"""Rebracketing, unit, and swap maps with their coherence fillers."""

import random

from bicat import coherence as C
from bicat import groth, kernel
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, FinSet, SetFn
from bicat.gen import canonical_carrier, one_cell
from bicat.mapprod import product_object

INSTANCES = (span_instance(), rel_instance())


def _rand_fn(rng, A, Bset):
    if len(Bset) == 0:
        assert len(A) == 0
        return SetFn(A, Bset, ())
    return SetFn(A, Bset, tuple(rng.choice(tuple(Bset)) for _ in A))


def test_rebracketing_map_and_comparison():
    for B in INSTANCES:
        X, Y, Z = map(canonical_carrier, "abc", (2, 3, 2))
        a, mu, h, k = C.assoc_map(B, X, Y, Z)
        assert a.is_map() and B.is_invertible(mu)
        assert B.comp(a, k) == mu.dom and mu.cod == h
        assert C.assoc_map(B, X, FinSet(()), Z)[0].is_map()


def test_unit_maps_are_equivalences():
    for B in INSTANCES:
        for X in (canonical_carrier("a", 2), UNIT, FinSet(())):
            assert kernel.find_equivalence(B, C.left_unit_map(B, X)) is not None
            assert kernel.find_equivalence(B, C.right_unit_map(B, X)) is not None


def test_braid_cone_comparisons():
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        s, bmu, bnu = C.braid(B, X, Y)
        p, r = product_object(B, X, Y).legs
        ps, rs = product_object(B, Y, X).legs
        assert bmu.dom == B.comp(s, rs) and bmu.cod == p
        assert bnu.dom == B.comp(s, ps) and bnu.cod == r
        assert B.is_invertible(bmu) and B.is_invertible(bnu)


def test_syllepsis_equations():
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        s = C.braid(B, X, Y)[0]
        ss = C.braid(B, Y, X)[0]
        sigma, phi, psi = C.syllepsis_data(B, X, Y)
        p, r = product_object(B, X, Y).legs
        assert B.whisker_right(sigma, p) == phi
        assert B.whisker_right(sigma, r) == psi
        assert B.is_invertible(sigma)
        assert sigma.dom == B.identity(product_object(B, X, Y).vertex)
        assert sigma.cod == B.comp(s, ss)


def test_swap_squares_to_identity():
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        pairs = [(X, Y), (Y, X), (X, X), (FinSet(()), Y), (UNIT, X)]
        for Xa, Ya in pairs:
            assert C.symmetry_holds(B, Xa, Ya), (B.name, Xa, Ya)


def test_quadruple_rebracket_filler():
    for B in INSTANCES:
        X, Y, Z, W = map(canonical_carrier, "abcd", (2, 3, 2, 1))
        assert C.check_quad_assoc(B, X, Y, Z, W) is True
        data = C.quad_assoc_filler(B, X, Y, Z, W)
        assert data.m.is_map() and data.n.is_map()
        degenerate = C.quad_assoc_filler(B, UNIT, UNIT, UNIT, UNIT)
        assert B.is_invertible(degenerate.cell)


def test_structure_maps_natural_in_the_carriers():
    rng = random.Random(20260815)
    for B in INSTANCES:
        for _ in range(5):
            sizes = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
            A1, A2, A3 = map(canonical_carrier, "abc", sizes)
            f = B.graph(_rand_fn(rng, A1, A2))
            g = B.graph(_rand_fn(rng, A2, A3))
            h = B.graph(_rand_fn(rng, A3, A2))
            assert C.braid_map_natural(B, f, g)
            assert C.assoc_map_natural(B, f, g, h)
            assert C.unit_map_natural(B, f)


def test_square_level_constraints_are_equivalences():
    rng = random.Random(31)
    for B in INSTANCES:
        X, Y, Z = map(canonical_carrier, "abc", (2, 3, 2))
        A, A2, A3 = map(canonical_carrier, "abc", (2, 2, 1))
        R = one_cell(B, rng, X, A, 2)
        S = one_cell(B, rng, Y, A2, 2)
        T = one_cell(B, rng, Z, A3, 2)
        assert C.g_constraints_invertible(B, R, S, T) is None


def test_braid_square_naturality():
    rng = random.Random(41)
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        A, A2 = map(canonical_carrier, "ab", (2, 2))
        for _ in range(3):
            R = one_cell(B, rng, X, A, 2)
            S = one_cell(B, rng, Y, A2, 2)
            assert C.g_braid_natural(B, groth.g_identity(B, R),
                                     groth.g_identity(B, S))
            assert C.g_braid_natural(B, groth.g_bang(B, R),
                                     groth.g_bang(B, S))
            f = B.graph(_rand_fn(rng, X, A))
            g = B.graph(_rand_fn(rng, Y, A2))
            assert C.g_braid_natural(B, groth.g_map_arrow(B, f),
                                     groth.g_map_arrow(B, g))


def test_square_rebracket_modification():
    rng = random.Random(51)
    for B in INSTANCES:
        X, Y, Z, W = map(canonical_carrier, "abcd", (2, 1, 2, 1))
        A1, A2, A3, A4 = map(canonical_carrier, "abcd", (1, 2, 1, 1))
        R = one_cell(B, rng, X, A1, 2)
        S = one_cell(B, rng, Y, A2, 2)
        T = one_cell(B, rng, Z, A3, 2)
        U = one_cell(B, rng, W, A4, 2)
        assert C.modification_pair_check(B, R, S, T, U) is None


def test_terminal_frames_reproduce_the_chosen_terminal():
    from bicat.mapprod import bang
    for B in INSTANCES:
        X = FinSet(("x0", "x1"))
        A = FinSet(("a0", "a1", "a2"))
        for src in (UNIT, X):
            for tgt in (UNIT, A):
                adj = B.map_adjunction(bang(B, tgt))
                assert B.comp(bang(B, src), adj.right) == \
                    B.local_terminal(src, tgt)
