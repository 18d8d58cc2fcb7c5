"""The tensor's lax structure and the cartesian recognition checks."""

import random

import pytest

from bicat import cartesian as ct
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, FinSet, SetFn, canonical_carrier
from bicat.gen import carrier, map_cell
from bicat.groth import g_tensor
from bicat.harness import _Corrupt, _misplaced_tau, _tau_is_the_only_cell
from bicat.mapprod import FillError, fill2, product_object, times_on_arrows
from bicat.spans import relabel_apex

INSTANCES = (span_instance(), rel_instance())


def test_unit_and_composition_constraints_invertible():
    rng = random.Random(5)
    for B in INSTANCES:
        for _ in range(10):
            X, Y = carrier(rng, "x", 3), carrier(rng, "y", 3)
            A, C = carrier(rng, "a", 3), carrier(rng, "c", 3)
            L, M = carrier(rng, "l", 3), carrier(rng, "m", 3)
            assert B.is_invertible(ct.tensor_unit_cell(B, X, Y))
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, Y, C, 3)
            T = B.one_cell(rng, A, L, 3)
            U = B.one_cell(rng, C, M, 3)
            cc = ct.tensor_comp_cell(B, R, S, T, U)
            assert B.is_invertible(cc)
            # Source and target really are the two ways around the square.
            tens = lambda P, Q: g_tensor(B, P, Q).obj
            assert cc.dom == B.comp(tens(R, S), tens(T, U))
            assert cc.cod == tens(B.comp(R, T), B.comp(S, U))
        iu, ic = ct.unit_functor_cells(B)
        assert iu == B.id2(B.identity(UNIT))
        assert ic == B.id2(B.identity(UNIT))


def test_unit_functor_cells_trivial_because_unit_is_strict():
    # The unit carrier is a point, so everything over it collapses and the
    # two unit-functor constraints have nothing to do.
    for B in INSTANCES:
        one = B.identity(UNIT)
        assert B.comp(one, one) == one
        w = B.local_product(one, one)
        iso = w.pair(B.id2(one), B.id2(one))
        assert B.is_invertible(iso)


def test_lax_associativity_and_units():
    rng = random.Random(15)
    for B in INSTANCES:
        for _ in range(8):
            X, Y = carrier(rng, "x", 2), carrier(rng, "y", 2)
            A, C = carrier(rng, "a", 2), carrier(rng, "c", 2)
            L, M = carrier(rng, "l", 2), carrier(rng, "m", 2)
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, Y, C, 2)
            T = B.one_cell(rng, A, L, 2)
            U = B.one_cell(rng, C, M, 2)
            V = B.one_cell(rng, L, X, 2)
            W = B.one_cell(rng, M, Y, 2)
            lhs, rhs = ct.lax_assoc_sides(B, R, S, T, U, V, W)
            assert lhs == rhs
            (left, left_expect), (right, right_expect) = ct.lax_unit_sides(B, R, S)
            assert left == left_expect and right == right_expect


def test_tensor_respects_vertical_structure():
    rng = random.Random(25)
    for B in INSTANCES:
        done = 0
        while done < 8:
            X, Y = carrier(rng, "x", 2), carrier(rng, "y", 2)
            A, C = carrier(rng, "a", 2), carrier(rng, "c", 2)
            L, M = carrier(rng, "l", 2), carrier(rng, "m", 2)
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, Y, C, 2)
            T = B.one_cell(rng, A, L, 2)
            U = B.one_cell(rng, C, M, 2)
            endo = lambda P: list(B.hom_cells(P, P))
            choices = [endo(P) for P in (R, S, T, U)]
            if not all(choices):
                continue
            a, b, c, d = (rng.choice(cs) for cs in choices)
            assert ct.tensor_naturality_holds(B, a, b, c, d)
            assert ct.tensor_functor_law_holds(B, a, a, b, b)
            done += 1


def test_m_cell_handles_noncanonical_maps():
    rng = random.Random(45)
    B = span_instance()
    done = 0
    while done < 10:
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        f = map_cell(B, rng, X, A)
        g = map_cell(B, rng, A, X)
        if f is None or g is None:
            continue
        assert B.is_invertible(ct.m_cell(B, f, g))
        done += 1


def test_cartesian_recognition_report():
    rng = random.Random(55)
    for B in INSTANCES:
        X, Y = FinSet(("x0", "x1")), FinSet(("y0",))
        A, C = FinSet(("a0",)), FinSet(("c0", "c1"))
        R = B.one_cell(rng, X, A, 2)
        S = B.one_cell(rng, Y, C, 2)
        T = B.one_cell(rng, A, X, 2)
        U = B.one_cell(rng, C, Y, 2)
        assert ct.is_cartesian(B, (X, Y), (R, S, T, U)) is None
        assert ct.is_cartesian(B, (A, C), (R, S, T, U)) is None


def test_corrupt_terminal_control_catches_only_the_corruption():
    # The terminal-cell control's comparison holds on the honest instance,
    # at the control's own 1-cell and at drawn ones; only the proxy fails it.
    rng = random.Random(65)
    for B in INSTANCES:
        holds, entities = _misplaced_tau(B)
        R = entities["R"]
        assert holds is False
        assert _tau_is_the_only_cell(B, R, B.local_terminal(R.source,
                                                            R.target))
        X, A = carrier(rng, "x", 3), carrier(rng, "a", 3)
        for _ in range(5):
            R = B.one_cell(rng, X, A, 3)
            assert _tau_is_the_only_cell(B, R, B.local_terminal(X, A))


def test_terminal_comparison_lets_programming_errors_through():
    # A bug inside ``tau`` is not a violation of the local-terminal law.
    for B in INSTANCES:
        R = B.identity(FinSet(("x0", "x1")))
        proxy = _Corrupt(B, tau=lambda B, R: B.tau_of(R))
        with pytest.raises(AttributeError):
            _tau_is_the_only_cell(proxy, R, B.local_terminal(R.source,
                                                             R.target))


def test_comparisons_take_scrambled_maps():
    # On apex-relabelled span maps, both comparisons are two-sided
    # invertible cells with the boundaries their docstrings state.
    rng = random.Random(75)
    B = span_instance()

    def scrambled(X, A):
        m = B.graph(SetFn(X, A, (rng.choice(tuple(A)) for _ in X)))
        names = canonical_carrier("q", len(X))
        return relabel_apex(m, SetFn(X, names, reversed(tuple(names))))

    def star(m):
        return B.map_adjunction(m).right

    for _ in range(10):
        Xp, X, A, Yp, Y, C = (canonical_carrier(p, rng.randint(1, 2))
                              for p in ("xp", "x", "a", "yp", "y", "c"))
        f, g, u, v = (scrambled(D, E)
                      for D, E in ((Xp, X), (Yp, Y), (C, A), (A, C)))
        assert all(m != B.graph(m.fn()) for m in (f, g, u, v))
        R = B.one_cell(rng, X, A, 2)
        S = B.one_cell(rng, Y, C, 2)
        tens = g_tensor(B, R, S).obj
        pre = ct.precompose_iso(B, f, g, R, S)
        post = ct.postcompose_star_iso(B, R, S, u, v)
        assert pre.dom == B.comp(times_on_arrows(B, f, g), tens)
        assert pre.cod == g_tensor(B, B.comp(f, R), B.comp(g, S)).obj
        assert post.dom == B.comp(tens, star(times_on_arrows(B, u, v)))
        assert post.cod == g_tensor(B, B.comp(R, star(u)),
                                    B.comp(S, star(v))).obj
        for cell in (pre, post):
            inv = B.invert(cell)
            assert B.vcomp(cell, inv) == B.id2(cell.dom)
            assert B.vcomp(inv, cell) == B.id2(cell.cod)


def test_unit_factor_pairing_is_an_equivalence():
    rng = random.Random(95)
    for B in INSTANCES:
        for _ in range(6):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            R = B.one_cell(rng, X, UNIT, 3)
            S = B.one_cell(rng, UNIT, A, 3)
            arrow, verdict = ct.strange_pair(B, R, S)
            assert verdict is None
            assert arrow.dom.source == X and arrow.dom.target == A


def test_fill_cross_check_against_enumeration():
    # fill2 recovers every cell from its two whiskerings, and a pair of
    # projected cells that no cell restricts to has no fill.
    rng = random.Random(105)
    for B in INSTANCES:
        X, Y = FinSet(("x0", "x1")), FinSet(("y0", "y1"))
        A = FinSet(("a0", "a1"))
        cone = product_object(B, X, Y)
        p, r = cone.legs
        recovered = refused = 0
        for trial in range(60):
            T = B.one_cell(rng, A, cone.vertex, 2)
            U = (B.thicken(rng, T, 2)[0] if trial % 2
                 else B.one_cell(rng, A, cone.vertex, 3))
            restricted = set()
            for gamma in B.hom_cells(T, U):
                alpha = B.whisker_right(gamma, p)
                beta = B.whisker_right(gamma, r)
                restricted.add((alpha, beta))
                assert fill2(B, T, U, alpha, beta, cone) == gamma
                recovered += 1
            for alpha in B.hom_cells(B.comp(T, p), B.comp(U, p)):
                for beta in B.hom_cells(B.comp(T, r), B.comp(U, r)):
                    if (alpha, beta) in restricted:
                        continue
                    with pytest.raises(FillError) as info:
                        fill2(B, T, U, alpha, beta, cone)
                    assert info.value.kind == "no-solution"
                    refused += 1
        assert recovered > 0 and refused > 0, (B.name, recovered, refused)
