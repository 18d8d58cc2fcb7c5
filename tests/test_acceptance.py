"""Shipping gate: the eight acceptance criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
pass/fail lines when everything is green; pytest prints them on failure
regardless).  Each test owns one criterion and asserts the advertised
bounds, including its own wall-clock budget where one is stated.
"""

import functools
import itertools
import time
from collections import Counter

from bicat import cartesian as ct
from bicat import coherence as C
from bicat import kernel
from bicat import mapprod as mp
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, all_functions, canonical_carrier
from bicat.fmt import parse_document
from bicat.gen import SUITES, GenConfig, map_cell
from bicat.harness import (SUITE_CHECKS, _chk_modification_pair,
                           _chk_product_cone, _chk_routes, exhaustive_check,
                           property_check, run_check, run_config)
from bicat.homprod import is_product_diagram

MODULE_T0 = time.monotonic()
INSTANCES = (span_instance(), rel_instance())


def _passes(B, prefixes, body, max_carrier, trials=None):
    """Run ``body`` on ``B`` as a check of its own and return its trial
    count once it passes: ``trials`` seeded draws, or, without ``trials``,
    every tuple of canonical carriers up to ``max_carrier``."""
    spec = (exhaustive_check(body.__name__, prefixes, body, max_carrier)
            if trials is None else property_check(body.__name__, prefixes, body))
    cfg = GenConfig(seed=0, max_carrier=max_carrier, trials=trials or 1,
                    instance=B.name, suites=SUITES)
    result = run_check(B, cfg, spec)
    assert result.status == "pass", result
    return result.trials


def _law(holds):
    """A check body from a predicate on the instance and the carriers."""
    @functools.wraps(holds)
    def body(B, rng, carriers):
        return None if holds(B, *carriers) else dict(zip("XYZUV", carriers))
    return body


def _larger(prefixes, carriers, n):
    """The drawn carriers, ``n`` points larger each."""
    return tuple(canonical_carrier(p, len(C) + n)
                 for p, C in zip(prefixes, carriers))


def _report(capsys, number, body):
    t0 = time.monotonic()
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print("criterion %d FAIL: %s" % (number, exc), flush=True)
        raise
    with capsys.disabled():
        print("criterion %d PASS: %s (%.1fs)"
              % (number, detail, time.monotonic() - t0), flush=True)


def _suite_trials(name, suite, max_carrier, trials):
    """Run ``suite`` on instance ``name`` at seed 0 and return the trial
    count of each row that passed; no row may fail."""
    run = run_config(GenConfig(seed=0, max_carrier=max_carrier, trials=trials,
                               instance=name, suites=(suite,)))
    assert run.ok
    return {c.check_id: c.trials for s in run.suites for c in s.checks
            if c.status == "pass"}


def test_criterion_1_kernel_laws(capsys):
    def body():
        t0 = time.monotonic()
        law_ids = ("pasting-interchange", "map-adjunction-triangles",
                   "mate-round-trip")
        total = 0
        for name in ("span", "rel"):
            trials = _suite_trials(name, "kernel", 4, 85)
            total += sum(trials[cid] for cid in law_ids)
        elapsed = time.monotonic() - t0
        assert total >= 500, total
        assert elapsed < 30, elapsed
        return "interchange, triangle, and mate laws over %d seeded " \
               "trials at carriers <= 4" % total

    _report(capsys, 1, body)


def test_criterion_2_local_products_and_terminals(capsys):
    def body():
        t0 = time.monotonic()
        wedges = 0

        @_law
        def ternary_cones(B, X, Y, Z):
            L = C.maps(B)
            return all(mp.check_product_cone(B, C.bracket_cone(L, t)) is None
                       for t in (((X, Y), Z), (X, (Y, Z))))

        @_law
        def rebracketings(B, X, Y, Z):
            a = C.assoc_map(C.maps(B), X, Y, Z)
            return kernel.find_equivalence(B, a) is not None

        def all_wedges(B, rng, carriers):
            nonlocal wedges
            cells = list(B.one_cells(*carriers, 0))
            for R, S in itertools.product(cells, repeat=2):
                w = B.local_product(R, S)
                if is_product_diagram(B, w.product, w.proj1, w.proj2, R, S,
                                      cells) is not None:
                    return {"R": R, "S": S}
                wedges += 1
            return None

        def sampled_wedge(B, rng, carriers):
            X, A = _larger("xa", carriers, 2)
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, X, A, 3)
            w = B.local_product(R, S)
            bad = is_product_diagram(B, w.product, w.proj1, w.proj2, R, S,
                                     list(B.one_cells(X, A, 2)))
            return None if bad is None else {"R": R, "S": S}

        @_law
        def terminals(B, X, A):
            top = B.local_terminal(X, A)
            return (len(list(all_functions(X, UNIT))) == 1
                    and all(list(B.hom_cells(T, top)) == [B.tau(T)]
                            for T in B.one_cells(X, A, 2)))

        for B in INSTANCES:
            assert mp.check_product_cone(B, mp.ProductCone(UNIT, (), ())) is None
            assert _passes(B, ("x", "y"), _chk_product_cone, 3) == 16
            assert _passes(B, ("x", "y", "z"), ternary_cones, 2) == 27
            assert _passes(B, ("x", "y", "z"), rebracketings, 3) == 64
            # Sampled wedges at carriers of size 2 or 3, spans included.
            wedges += _passes(B, ("x", "a"), sampled_wedge, 1, 12)
            assert _passes(B, ("x", "a"), terminals, 3) == 16
        # Every relation pair against every relation at carriers <= 2.
        assert _passes(rel_instance(), ("x", "a"), all_wedges, 2) == 9
        elapsed = time.monotonic() - t0
        assert elapsed < 30, elapsed
        return "canonical cones plus %d wedge universal-property " \
               "instances and all terminal shapes at carriers <= 3" \
               % wedges

    _report(capsys, 2, body)


def test_criterion_3_square_products(capsys):
    def body():
        ids = ("tensor-pairing-projections", "tensor-pairing-uniqueness",
               "square-cell-characterization")
        total = 0
        for name in ("span", "rel"):
            trials = _suite_trials(name, "groth", 3, 60)
            total += sum(trials[cid] for cid in ids)
        assert total >= 200, total
        return "mediator existence, brute-force uniqueness, and square-cell " \
               "characterization over %d seeded instances" % total

    _report(capsys, 3, body)


def test_criterion_4_lax_structure(capsys):
    def body():
        per_instance = {}
        for name in ("span", "rel"):
            trials = _suite_trials(name, "lax", 3, 100)
            assoc, unit, nat = (trials[cid] for cid in (
                "tensor-assoc-constraint", "tensor-unit-constraint",
                "tensor-2cell-naturality"))
            assert assoc >= 100 and unit >= 100, (assoc, unit)
            assert nat >= 100, nat
            per_instance[name] = (assoc, unit, nat)
        return "associativity and unit pastings plus naturality squares, " \
               ">= 100 tuples per instance %s" % (per_instance,)

    _report(capsys, 4, body)


def _two_sided(B, cell):
    inv = B.invert(cell)
    return (B.vcomp(cell, inv) == B.id2(cell.dom)
            and B.vcomp(inv, cell) == B.id2(cell.cod))


def test_criterion_5_tensor_constraints_invertible(capsys):
    def body():
        quads = maps = 0

        @_law
        def unit_constraint(B, X, Y):
            return _two_sided(B, ct.tensor_unit_cell(B, X, Y))

        def comp_constraint(B, rng, carriers):
            X, Y, A, Cc, L, M = carriers
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, Y, Cc, 2)
            T = B.one_cell(rng, A, L, 2)
            U = B.one_cell(rng, Cc, M, 2)
            ok = _two_sided(B, ct.tensor_comp_cell(B, R, S, T, U))
            return None if ok else {"R": R, "S": S, "T": T, "U": U}

        def canonical_maps(B, rng, carriers):
            # Every comparison between the paired maps and the product map.
            nonlocal maps
            D, E, D2, E2 = carriers
            for f, g in itertools.product(all_functions(D, E),
                                          all_functions(D2, E2)):
                f1, g1 = B.graph(f), B.graph(g)
                if not _two_sided(B, ct.m_cell(B, f1, g1)):
                    return {"f": f1, "g": g1}
                maps += 1
            return None

        def scrambled_maps(B, rng, carriers):
            X, A = _larger("xa", carriers, 1)
            f = map_cell(B, rng, X, A)
            g = map_cell(B, rng, A, X)
            ok = _two_sided(B, ct.m_cell(B, f, g))
            return None if ok else {"f": f, "g": g}

        for B in INSTANCES:
            assert ct.unit_functor_cells(B) == (B.id2(B.identity(UNIT)),) * 2
            assert _passes(B, ("x", "y"), unit_constraint, 4) == 25
            quads += _passes(B, tuple("xyaclm"), comp_constraint, 2, 55)
            # One carrier prefix, so endomaps and identities are among them.
            assert _passes(B, ("a",) * 4, canonical_maps, 2) == 81
        # Scrambled (non-canonical) map pairs, carriers of size 1 or 2.
        assert _passes(span_instance(), ("x", "a"), scrambled_maps, 1, 20) \
            == 20
        assert quads >= 100 and maps >= 100, (quads, maps)
        return "unit constraints at all carrier pairs <= 4, %d composition " \
               "quadruples, %d map comparison cells, all two-sided" \
               % (quads, maps)

    _report(capsys, 5, body)


def test_criterion_6_projection_and_unit_isos(capsys):
    def body():
        configs, compared, strange = 0, Counter(), 0

        def projections(B, rng, carriers):
            X, Y, A = carriers
            R = B.one_cell(rng, X, A, 3)
            cells = (*ct.projection_fillers(B, R, Y), ct.prebeck_cell(B, R, Y))
            ok = all(_two_sided(B, c) for c in cells)
            return None if ok else {"R": R, "Y": Y}

        def comparisons(B, rng, carriers):
            X, Y, A, Cc, L, M = carriers
            f = map_cell(B, rng, X, A)
            g = map_cell(B, rng, Y, Cc)
            R = B.one_cell(rng, A, L, 2)
            S = B.one_cell(rng, Cc, M, 2)
            u = map_cell(B, rng, X, L)
            v = map_cell(B, rng, Y, M)
            if None in (f, g, u, v):
                return None
            compared[B.name] += 2
            ok = (_two_sided(B, ct.precompose_iso(B, f, g, R, S))
                  and _two_sided(B, ct.postcompose_star_iso(B, R, S, u, v)))
            return None if ok else dict(f=f, g=g, u=u, v=v, R=R, S=S)

        def unit_factors(B, rng, carriers):
            # All relation pairs, and all span pairs with apex <= 2.
            nonlocal strange
            X, A = carriers
            for R, S in itertools.product(B.one_cells(X, UNIT, 2),
                                          B.one_cells(UNIT, A, 2)):
                if ct.strange_pair(B, R, S)[1] is not None:
                    return {"R": R, "S": S}
                strange += 1
            return None

        for B in INSTANCES:
            configs += 2 * _passes(B, ("x", "y", "a"), projections, 3, 30)
            _passes(B, tuple("xyaclm"), comparisons, 2, 100)
            assert _passes(B, ("x", "a"), unit_factors, 3) == 16
        assert all(compared[B.name] >= 60 for B in INSTANCES), compared
        configs += sum(compared.values())
        assert configs >= 200, configs
        return "%d sampled projection/unit comparison configs and %d " \
               "exhaustive unit-factor pairings" % (configs, strange)

    _report(capsys, 6, body)


def test_criterion_7_symmetry_and_pentagon(capsys):
    def body():
        def modification_pair(B, rng, carriers):
            # The row's body at carriers of size 1 or 2.
            return _chk_modification_pair(
                B, rng, _larger("abcdefgh", carriers, 1))

        for B in INSTANCES:
            # The bodies and size caps of the three exhaustive monoidal rows.
            assert _passes(B, ("x", "y"), _chk_routes("syllepsis"), 3) == 16
            assert _passes(B, ("x", "y"), _chk_routes("symmetry"), 4) == 25
            assert _passes(B, tuple("xyz"), _chk_routes("hexagon"), 2) == 27
            assert _passes(B, tuple("abcd"), _chk_routes("rebracket"), 2) == 81
            assert _passes(B, tuple("abcde"), _chk_routes("pentagon"), 2) \
                == 243
            assert _passes(B, tuple("abcdefgh"), modification_pair, 1, 5) == 5
        elapsed = time.monotonic() - MODULE_T0
        assert elapsed < 300, elapsed
        return "syllepsis routes at 16 pairs <= 3, symmetry routes at 25 " \
               "pairs <= 4, hexagon routes at 27 triples <= 2, all " \
               "rebracket routes at 81 + 243 carrier tuples <= 2, 5 square " \
               "modification pairs per instance, %.0fs since module " \
               "import" % elapsed

    _report(capsys, 7, body)


#: Each suite's control: the row it guards and the verdict that row's
#: checker must give on the corrupted input (``False`` from a ``bool`` law,
#: else the violation's kind).
CONTROLS = {
    "kernel": ("negative-nonmap-rejected", "map-adjunction-triangles", False),
    "homprod": ("negative-misplaced-terminal-cell", "terminal-cell-unique",
                False),
    "mapprod": ("negative-collapsed-cone", "product-cone-universal",
                "not-essentially-surjective"),
    "groth": ("negative-doubled-cells", "tensor-pairing-uniqueness", False),
    "lax": ("negative-tau-as-identity", "tensor-2cell-functorial", False),
    "cartesian": ("negative-empty-terminal", "global-constraints-invertible",
                  "unit-functor"),
    "monoidal": ("negative-identity-braid", "swap-involution",
                 "not-mediated"),
}


def test_criterion_8_negative_controls(capsys):
    def body():
        assert {suite: tuple((c.check_id, c.row, c.expect) for c in specs
                             if c.row is not None)
                for suite, specs in SUITE_CHECKS.items()} == {
                    suite: (control,) for suite, control in CONTROLS.items()}
        found = {}
        for name in ("span", "rel"):
            cfg = GenConfig(seed=0, max_carrier=2, trials=4, instance=name,
                            suites=SUITES)
            run = run_config(cfg)
            assert run.ok
            for s in run.suites:
                for c in s.checks:
                    if not c.check_id.startswith("negative-"):
                        continue
                    assert c.status == "pass", c
                    assert c.counterexample
                    parse_document(c.counterexample)
                    found.setdefault(s.suite, set()).add(c.check_id)
        assert found == {suite: {control[0]}
                         for suite, control in CONTROLS.items()}, found
        return "every suite carries one control that runs one of its " \
               "rows' checkers on a corrupted input and gets the expected " \
               "verdict, with a re-parseable payload (%d controls)" \
               % len(found)

    _report(capsys, 8, body)
