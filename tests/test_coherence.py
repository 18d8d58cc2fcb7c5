"""Rebracketing, unit, and swap maps with their coherence fillers."""

import functools
import random

import pytest

from bicat import coherence as C
from bicat import groth, kernel
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, FinSet, SetFn
from bicat.gen import canonical_carrier, one_cell
from bicat.mapprod import (FillError, maps_isomorphic, product_object,
                           times_on_arrows)

INSTANCES = (span_instance(), rel_instance())


def _rand_fn(rng, A, Bset):
    if len(Bset) == 0:
        assert len(A) == 0
        return SetFn(A, Bset, ())
    return SetFn(A, Bset, tuple(rng.choice(tuple(Bset)) for _ in A))


def test_rebracketing_map_and_comparison():
    # The rebracketing is the mediator of the left cone into the right one:
    # followed by each leg of the right cone, it is the matching left leg.
    for B in INSTANCES:
        X, Y, Z = map(canonical_carrier, "abc", (2, 3, 2))
        for Ya in (Y, FinSet(())):
            a = C.assoc_map(B, X, Ya, Z)
            left = C.bracket_cone(B, ((X, Ya), Z))
            right = C.bracket_cone(B, (X, (Ya, Z)))
            assert a.is_map() and a.source == left.vertex
            assert a.target == right.vertex
            assert left.factors == right.factors == (X, Ya, Z)
            for leg, expected in zip(right.legs, left.legs, strict=True):
                assert maps_isomorphic(B.comp(a, leg), expected)


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


def test_routes_match_their_written_out_composites():
    # The oracle: each route as the associators and tensors it stands for.
    for B in INSTANCES:
        X, Y, Z, U, V = map(canonical_carrier, "abcde", (2, 1, 2, 1, 2))
        one = B.identity
        a = functools.partial(C.assoc_map, B)
        t = functools.partial(times_on_arrows, B)

        def vx(P, Q):
            return product_object(B, P, Q).vertex

        data = C.quad_assoc_filler(B, X, Y, Z, U)
        assert data.m == B.comp(B.comp(t(a(X, Y, Z), one(U)),
                                       a(X, vx(Y, Z), U)),
                                t(one(X), a(Y, Z, U)))
        assert data.n == B.comp(a(vx(X, Y), Z, U), a(X, Y, vx(Z, U)))
        six = B.comp(B.comp(B.comp(B.comp(B.comp(
            t(t(a(X, Y, Z), one(U)), one(V)),
            t(a(X, vx(Y, Z), U), one(V))),
            t(t(one(X), a(Y, Z, U)), one(V))),
            a(X, vx(Y, vx(Z, U)), V)),
            t(one(X), a(Y, vx(Z, U), V))),
            t(one(X), t(one(Y), a(Z, U, V))))
        assert six == C.route(
            B, ((((X, Y), Z), U), V), (((X, (Y, Z)), U), V),
            ((X, ((Y, Z), U)), V), ((X, (Y, (Z, U))), V),
            (X, ((Y, (Z, U)), V)), (X, (Y, ((Z, U), V))),
            (X, (Y, (Z, (U, V)))))


def test_step_refuses_all_but_one_forward_associator():
    # Every carrier has two elements, so a leaf unpacks like a pair of
    # subtrees: only the tree structure may tell the two apart.
    for B in INSTANCES:
        X, Y, Z, W = map(canonical_carrier, "abcd", (2, 2, 2, 2))
        P = canonical_carrier("p", 2)
        assert C._step(B, ((X, Y), Z), (X, (Y, Z))) == C.assoc_map(B, X, Y, Z)
        for t1, t2 in (((X, (Y, Z)), ((X, Y), Z)),
                       ((((X, Y), Z), W), (X, (Y, (Z, W)))),
                       (((X, Y), (Z, W)), (((X, Y), Z), W)),
                       (((X, Y), Z), ((X, Y), Z)),
                       ((P, Z), (X, (Y, Z))),
                       (((X, Y), Z), (P, Z)),
                       (X, Y)):
            with pytest.raises(ValueError):
                C._step(B, t1, t2)


class _TwiceOver:
    """Instance proxy whose ``hom_cells`` yields every cell twice, as if
    the enumeration visited each candidate from two directions."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def hom_cells(self, R, S):
        for cell in self._inner.hom_cells(R, S):
            yield cell
            yield cell


def test_a_doubled_enumeration_makes_the_route_fillers_non_unique():
    for B in INSTANCES:
        proxy = _TwiceOver(B)
        X, Y, Z, U, V = map(canonical_carrier, "abcde", (2, 1, 2, 1, 1))
        with pytest.raises(FillError) as info:
            C.quad_assoc_filler(proxy, X, Y, Z, U)
        assert info.value.kind == "non-unique"
        assert C.pentagon_unique(proxy, X, Y, Z, U, V) == 2


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
