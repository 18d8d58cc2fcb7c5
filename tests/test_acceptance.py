"""Shipping gate: the eight acceptance criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
pass/fail lines when everything is green; pytest prints them on failure
regardless).  Each test owns one criterion and asserts the advertised
bounds, including its own wall-clock budget where one is stated.
"""

import itertools
import random
import time

from bicat import cartesian as ct
from bicat import coherence as C
from bicat import kernel
from bicat import mapprod as mp
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, FinSet, all_functions, clear_table
from bicat.fmt import parse_document
from bicat.gen import SUITES, GenConfig, map_cell, one_cell
from bicat.harness import run_config
from bicat.homprod import is_product_diagram

MODULE_T0 = time.monotonic()
INSTANCES = (span_instance(), rel_instance())


def _carriers(*sizes):
    return tuple(FinSet(tuple("%s%d" % (chr(97 + i), j) for j in range(n)))
                 for i, n in enumerate(sizes))


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


def _suite_trials(run, suite, ids):
    checks = {c.check_id: c for s in run.suites if s.suite == suite
              for c in s.checks}
    for cid in ids:
        assert checks[cid].status == "pass", checks[cid]
    return sum(checks[cid].trials for cid in ids)


def test_criterion_1_kernel_laws(capsys):
    def body():
        t0 = time.monotonic()
        law_ids = ("pasting-interchange", "map-adjunction-triangles",
                   "mate-round-trip")
        total = 0
        for name in ("span", "rel"):
            cfg = GenConfig(seed=0, max_carrier=4, trials=85, instance=name,
                            suites=("kernel",))
            run = run_config(cfg)
            assert run.ok
            total += _suite_trials(run, "kernel", law_ids)
        elapsed = time.monotonic() - t0
        assert total >= 500, total
        assert elapsed < 30, elapsed
        return "interchange, triangle, and mate laws over %d seeded " \
               "trials at carriers <= 4" % total

    _report(capsys, 1, body)


def test_criterion_2_local_products_and_terminals(capsys):
    def body():
        t0 = time.monotonic()
        for B in INSTANCES:
            # Canonical cones: nullary, binary at all size pairs, ternary.
            nullary = mp.ProductCone(UNIT, (), ())
            assert mp.check_product_cone(B, nullary) is None
            for nx, ny in itertools.product(range(4), repeat=2):
                cone = mp.product_object(B, *_carriers(nx, ny))
                assert mp.check_product_cone(B, cone) is None
            for sizes in ((2, 2, 2), (2, 1, 2), (1, 1, 1), (0, 2, 1)):
                X, Y, Z = _carriers(*sizes)
                lx, ly, lz = (C.shape_leaf(B, V) for V in (X, Y, Z))
                for shape in (C.shape_prod(B, C.shape_prod(B, lx, ly), lz),
                              C.shape_prod(B, lx, C.shape_prod(B, ly, lz))):
                    tern = mp.ProductCone(shape.carrier, shape.legs, (X, Y, Z))
                    assert mp.check_product_cone(B, tern) is None
            for sizes in ((2, 3, 2), (1, 0, 2)):
                a = C.assoc_map(B, *_carriers(*sizes))[0]
                assert kernel.find_equivalence(B, a) is not None
            for n in range(4):
                assert len(list(all_functions(_carriers(n)[0], UNIT))) == 1

        # Local products and terminals against enumerated test objects
        # (all relations; spans with apex up to 2).
        B = rel_instance()
        pairs = 0
        for nx, na in itertools.product(range(3), repeat=2):
            X, A = _carriers(nx, na)
            cells = list(B.one_cells(X, A, 0))
            for R in cells:
                for S in cells:
                    w = B.local_product(R, S)
                    assert is_product_diagram(B, w.product, w.proj1,
                                              w.proj2, R, S, cells) is None
                    pairs += 1
        rng = random.Random(0)
        for B in INSTANCES:
            for nx, na in ((3, 3), (3, 2), (2, 3)):
                X, A = _carriers(nx, na)
                tests = list(B.one_cells(X, A, 2))
                for _ in range(4):
                    R = one_cell(B, rng, X, A, 3)
                    S = one_cell(B, rng, X, A, 3)
                    w = B.local_product(R, S)
                    assert is_product_diagram(B, w.product, w.proj1,
                                              w.proj2, R, S, tests) is None
                    pairs += 1
            for nx, na in itertools.product(range(4), repeat=2):
                X, A = _carriers(nx, na)
                tests = list(B.one_cells(X, A, 2))
                top = B.local_terminal(X, A)
                for T in tests:
                    assert list(B.hom_cells(T, top)) == [B.tau(T)]
        elapsed = time.monotonic() - t0
        assert elapsed < 30, elapsed
        return "canonical cones plus %d wedge universal-property " \
               "instances and all terminal shapes at carriers <= 3" % pairs

    _report(capsys, 2, body)


def test_criterion_3_square_products(capsys):
    def body():
        ids = ("tensor-pairing-projections", "tensor-pairing-uniqueness",
               "square-cell-characterization")
        total = 0
        for name in ("span", "rel"):
            cfg = GenConfig(seed=0, max_carrier=3, trials=60, instance=name,
                            suites=("groth",))
            run = run_config(cfg)
            assert run.ok
            total += _suite_trials(run, "groth", ids)
        assert total >= 200, total
        return "mediator existence, brute-force uniqueness, and square-cell " \
               "characterization over %d seeded instances" % total

    _report(capsys, 3, body)


def test_criterion_4_lax_structure(capsys):
    def body():
        per_instance = {}
        for name in ("span", "rel"):
            cfg = GenConfig(seed=0, max_carrier=3, trials=100, instance=name,
                            suites=("lax",))
            run = run_config(cfg)
            assert run.ok
            assoc = _suite_trials(run, "lax", ("tensor-assoc-constraint",))
            unit = _suite_trials(run, "lax", ("tensor-unit-constraint",))
            nat = _suite_trials(run, "lax", ("tensor-2cell-naturality",))
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
        rng = random.Random(1)
        for B in INSTANCES:
            iu, ic = ct.unit_functor_cells(B)
            assert iu == B.id2(B.identity(UNIT))
            assert ic == B.id2(B.identity(UNIT))
            for nx, ny in itertools.product(range(5), repeat=2):
                clear_table()
                X, Y = _carriers(nx, ny)
                assert _two_sided(B, ct.tensor_unit_cell(B, X, Y))
            for _ in range(55):
                clear_table()
                X, Y, A, Cc, L, M = (FinSet("%s%d" % (p, i)
                                            for i in range(rng.randint(0, 2)))
                                     for p in "xyaclm")
                R = one_cell(B, rng, X, A, 2)
                S = one_cell(B, rng, Y, Cc, 2)
                T = one_cell(B, rng, A, L, 2)
                U = one_cell(B, rng, Cc, M, 2)
                assert _two_sided(B, ct.tensor_comp_cell(B, R, S, T, U))
                quads += 1
            # Every comparison between the paired maps and the product map,
            # exhaustively over canonical maps at carriers <= 2.
            sets = [_carriers(n)[0] for n in range(3)]
            all_maps = [B.graph(fn) for D in sets for E in sets
                        for fn in all_functions(D, E)]
            for f in all_maps:
                for g in all_maps:
                    clear_table()
                    assert _two_sided(B, ct.m_cell(B, f, g))
                    maps += 1
        # Scrambled (non-canonical) map pairs must work too.
        B = span_instance()
        done = 0
        while done < 20:
            clear_table()
            X, A = _carriers(rng.randint(1, 2), rng.randint(1, 2))
            f = map_cell(B, rng, X, A)
            g = map_cell(B, rng, A, X)
            if f is None or g is None:
                continue
            assert _two_sided(B, ct.m_cell(B, f, g))
            done += 1
        assert quads >= 100 and maps >= 100, (quads, maps)
        return "unit constraints at all carrier pairs <= 4, %d composition " \
               "quadruples, %d map comparison cells, all two-sided" \
               % (quads, maps)

    _report(capsys, 5, body)


def test_criterion_6_projection_and_unit_isos(capsys):
    def body():
        configs = 0
        rng = random.Random(2)
        for B in INSTANCES:
            for _ in range(30):
                clear_table()
                X, Y, A = (FinSet("%s%d" % (p, i)
                                  for i in range(rng.randint(0, 3)))
                           for p in "xya")
                R = one_cell(B, rng, X, A, 3)
                c1, c2 = ct.projection_fillers(B, R, Y)
                assert _two_sided(B, c1) and _two_sided(B, c2)
                configs += 1
                assert _two_sided(B, ct.prebeck_cell(B, R, Y))
                configs += 1
            done = 0
            while done < 30:
                clear_table()
                X, Y, A, Cc, L, M = (FinSet("%s%d" % (p, i)
                                            for i in range(rng.randint(0, 2)))
                                     for p in "xyaclm")
                f = map_cell(B, rng, X, A, scramble=False)
                g = map_cell(B, rng, Y, Cc, scramble=False)
                R = one_cell(B, rng, A, L, 2)
                S = one_cell(B, rng, Cc, M, 2)
                u = map_cell(B, rng, X, L, scramble=False)
                v = map_cell(B, rng, Y, M, scramble=False)
                if None in (f, g, u, v):
                    continue
                assert _two_sided(B, ct.precompose_iso(B, f, g, R, S))
                assert _two_sided(B, ct.postcompose_star_iso(B, R, S, u, v))
                configs += 2
                done += 1

        # Pairing through the unit carrier: exhaustive over all relation
        # pairs at carriers <= 3 and all span pairs with apex <= 2.
        strange = 0
        for B in INSTANCES:
            for nx, na in itertools.product(range(4), repeat=2):
                X, A = _carriers(nx, na)
                for R in B.one_cells(X, UNIT, 2):
                    for S in B.one_cells(UNIT, A, 2):
                        clear_table()
                        _, rep = ct.strange_pair(B, R, S)
                        assert rep == {"f": True, "u": True, "cell": True}
                        strange += 1
        assert configs >= 200, configs
        return "%d sampled projection/unit comparison configs and %d " \
               "exhaustive unit-factor pairings" % (configs, strange)

    _report(capsys, 6, body)


def test_criterion_7_symmetry_and_pentagon(capsys):
    def body():
        for B in INSTANCES:
            for nx, ny in itertools.product(range(4), repeat=2):
                clear_table()
                X, Y = _carriers(nx, ny)
                s, bmu, bnu = C.braid(B, X, Y)
                p, r = mp.product_object(B, X, Y).legs
                ps, rs = mp.product_object(B, Y, X).legs
                assert bmu.dom == B.comp(s, rs) and bmu.cod == p
                assert bnu.dom == B.comp(s, ps) and bnu.cod == r
                sigma, phi, psi = C.syllepsis_data(B, X, Y)
                assert B.whisker_right(sigma, p) == phi
                assert B.whisker_right(sigma, r) == psi
            for nx, ny in itertools.product(range(5), repeat=2):
                clear_table()
                assert C.symmetry_holds(B, *_carriers(nx, ny)), (nx, ny)
            for sizes in itertools.product(range(3), repeat=4):
                clear_table()
                assert C.check_quad_assoc(B, *_carriers(*sizes)), sizes
            for sizes in itertools.product(range(3), repeat=5):
                clear_table()
                assert C.pentagon_unique(B, *_carriers(*sizes)) == 1, sizes
            rng = random.Random(3)
            for _ in range(5):
                clear_table()
                cells = [one_cell(B, rng,
                                  _carriers(rng.randint(1, 2))[0],
                                  FinSet("b%d" % i
                                         for i in range(rng.randint(1, 2))),
                                  2)
                         for _ in range(4)]
                rep = C.modification_pair_check(B, *cells)
                assert rep.get("frames_match") and rep.get("cell_ok") \
                    and rep.get("invertible"), rep
        elapsed = time.monotonic() - MODULE_T0
        assert elapsed < 300, elapsed
        return "syllepsis equations at pairs <= 3, swap squares at pairs " \
               "<= 4, all rebracket routes at carriers <= 2, %.0fs since " \
               "module import" % elapsed

    _report(capsys, 7, body)


def test_criterion_8_negative_controls(capsys):
    def body():
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
        assert set(found) == set(SUITES), found
        n = sum(len(v) for v in found.values())
        return "every suite carries a corrupted-claim control with a " \
               "re-parseable counterexample (%d controls)" % n

    _report(capsys, 8, body)
