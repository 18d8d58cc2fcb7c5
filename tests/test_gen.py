"""Seeded generators: determinism, shape guarantees, config validation."""

import hashlib
import importlib.util
import os
import pathlib
import random
import subprocess
import sys

import pytest

from bicat import kernel, rel_instance, span_instance
from bicat.fin import FinSet, SetFn, canonical_carrier
from bicat.gen import (SUITES, GenConfig, InvalidConfig, carrier, derive_seed,
                       map_cell, rng_for)
from bicat.rels import Rel, RelCell
from bicat.spans import Span

INSTANCES = (span_instance(), rel_instance())


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert 0 <= derive_seed(0, "") < 2 ** 64
    # Tag encoding keeps the seed and tag apart even with tricky strings.
    assert derive_seed(12, "3:x") != derive_seed(123, ":x")
    assert rng_for(5, "t").random() == rng_for(5, "t").random()


def test_derived_seeds_are_sha256_prefixes():
    for seed in (0, 1, 7, 2 ** 64 - 1):
        for tag in ("", "a", "span.pasting-interchange.3.body", "x\u00e9",
                    "\u03b1\u2192\u03b2", "\U0001f600"):
            digest = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
            assert derive_seed(seed, tag) == int.from_bytes(digest[:8], "big")


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="no builtin SHA-256 module in this interpreter")
def test_cli_import_leaves_openssl_unloaded():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bicat.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_carrier_sizes_cover_the_range_uniformly():
    rng = rng_for(0, "carrier-histogram")
    counts = [0] * 4
    for _ in range(10_000):
        counts[len(carrier(rng, "x", 3))] += 1
    # Uniform on {0,1,2,3}: each bucket expects 2500, sigma ~ 43.
    for c in counts:
        assert abs(c - 2500) < 5 * 44, counts


def test_carrier_element_names_follow_the_prefix():
    rng = rng_for(1, "names")
    fs = carrier(rng, "ab", 3)
    assert all(e.startswith("ab") for e in fs)


def test_one_cell_boundaries():
    rng = random.Random(2)
    for B in INSTANCES:
        for _ in range(20):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            R = B.one_cell(rng, X, A, 3)
            assert R.source == X and R.target == A


def test_map_cell_is_a_map_or_none():
    rng = random.Random(3)
    for B in INSTANCES:
        seen_none = seen_map = False
        for _ in range(60):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            m = map_cell(B, rng, X, A)
            if m is None:
                seen_none = True
                assert len(A) == 0 and len(X) > 0
            else:
                seen_map = True
                assert m.is_map()
                assert m.source == X and m.target == A
        assert seen_none and seen_map


def test_scrambled_maps_still_normalize():
    # Spans relabel about half of the map apexes; a relation has no apex.
    for B in INSTANCES:
        rng = random.Random(4)
        scrambled = 0
        for _ in range(60):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            m = map_cell(B, rng, X, A)
            if m is None:
                continue
            if m != B.graph(m.fn()):
                scrambled += 1
            assert kernel.check_adjunction(B, B.map_adjunction(m)) is None
        assert scrambled > 5 if B.name == "span" else scrambled == 0


def test_thicken_and_thin_produce_inclusions():
    rng = random.Random(5)
    for B in INSTANCES:
        for _ in range(25):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            R = B.one_cell(rng, X, A, 3)
            bigger, inc = B.thicken(rng, R, 2)
            assert inc.dom == R and inc.cod == bigger
            smaller, out = B.thin(rng, R)
            assert out.dom == smaller and out.cod == R


def test_thicken_avoids_apex_collisions():
    # Fresh span apex elements skip the names R's apex has; a relation has
    # no apex, and its thickening ignores ``extra``.
    X = FinSet(("x0",))
    apex = FinSet(("e0", "e2"))
    R = Span(X, X, apex, SetFn.constant(apex, X, "x0"),
             SetFn.constant(apex, X, "x0"))
    bigger, _ = span_instance().thicken(random.Random(6), R, 2)
    assert len(bigger.apex) == 4
    assert len(set(bigger.apex)) == 4
    full = Rel(X, X, (("x0", "x0"),))
    assert rel_instance().thicken(random.Random(6), full, 2) == (
        full, RelCell(full, full))


def test_no_draw_is_memoised():
    # A draw keyed on its ``rng`` would hand back its first value and skip
    # its draws, so a second call would not see where the first left off.
    X, A = canonical_carrier("x", 3), canonical_carrier("a", 3)
    for B in INSTANCES:
        R = B.local_terminal(X, A)
        m = B.graph(SetFn(X, A, ("a0", "a2", "a0")))
        draws = (lambda rng: B.one_cell(rng, X, A, 3),
                 lambda rng: B.thicken(rng, R, 2),
                 lambda rng: B.thin(rng, R),
                 lambda rng: B.scramble(rng, m),
                 lambda rng: map_cell(B, rng, X, A))
        for draw in draws:
            rng = random.Random(8)
            draw(rng)
            after_first = rng.getstate()
            second = draw(rng)
            fresh = random.Random()
            fresh.setstate(after_first)
            assert second == draw(fresh)
            assert rng.getstate() == fresh.getstate()


def test_rel_scramble_leaves_the_stream_where_it_was():
    B = rel_instance()
    X = canonical_carrier("x", 2)
    m = B.graph(SetFn(X, X, ("x1", "x0")))
    rng = random.Random(9)
    state = rng.getstate()
    assert B.scramble(rng, m) is m
    assert rng.getstate() == state


def test_config_validation():
    ok = GenConfig(seed=0, max_carrier=3, trials=5, instance="span",
                   suites=SUITES)
    assert ok.suites == SUITES
    bad = [
        dict(seed=-1, max_carrier=3, trials=5, instance="span", suites=SUITES),
        dict(seed=2 ** 64, max_carrier=3, trials=5, instance="span",
             suites=SUITES),
        dict(seed=0, max_carrier=-1, trials=5, instance="span", suites=SUITES),
        dict(seed=0, max_carrier=3, trials=0, instance="span", suites=SUITES),
        dict(seed=0, max_carrier=3, trials=5, instance="prof", suites=SUITES),
        dict(seed=0, max_carrier=3, trials=5, instance="span", suites=()),
        dict(seed=0, max_carrier=3, trials=5, instance="span",
             suites=("kernel", "nope")),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidConfig):
            GenConfig(**kwargs)
        # Each differs from ``ok`` in one field: replacing it validates too.
        with pytest.raises(InvalidConfig):
            ok._replace(**kwargs)
