"""Rebracketing, unit, and swap maps with their coherence fillers."""

import functools
import random

import pytest

from bicat import coherence as C
from bicat import groth, kernel
from bicat import rel_instance, span_instance
from bicat.fin import UNIT, FinSet, SetFn, canonical_carrier
from bicat.mapprod import (maps_isomorphic, pairing, product_object,
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
        L = C.maps(B)
        X, Y, Z = map(canonical_carrier, "abc", (2, 3, 2))
        for Ya in (Y, FinSet(())):
            a = C.assoc_map(L, X, Ya, Z)
            left = C.bracket_cone(L, ((X, Ya), Z))
            right = C.bracket_cone(L, (X, (Ya, Z)))
            assert a.is_map() and a.source == left.vertex
            assert a.target == right.vertex
            assert left.factors == right.factors == (X, Ya, Z)
            for leg, expected in zip(right.legs, left.legs, strict=True):
                assert maps_isomorphic(B.comp(a, leg), expected)


def test_unit_maps_are_equivalences():
    for B in INSTANCES:
        L = C.maps(B)
        for X in (canonical_carrier("a", 2), UNIT, FinSet(())):
            assert kernel.find_equivalence(B, C.left_unit_map(L, X)) is not None
            assert kernel.find_equivalence(B, C.right_unit_map(L, X)) is not None


def test_braid_cone_comparisons():
    # The braid is the pairing of the swapped legs, whose comparisons
    # with the swapped cone's legs are invertible.
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        p, r = product_object(B, X, Y).legs
        ps, rs = product_object(B, Y, X).legs
        s, bnu, bmu = pairing(B, r, p)
        assert s == C.braid(C.maps(B), X, Y)
        assert bmu.dom == B.comp(s, rs) and bmu.cod == p
        assert bnu.dom == B.comp(s, ps) and bnu.cod == r
        assert B.is_invertible(bmu) and B.is_invertible(bnu)


def _filler(B, name, values):
    """The one compatible cell between the two routes of ``name``."""
    m, n, (cell,) = C.route_cells(B, C.maps(B), C.ROUTES[name], values)
    return cell


def test_syllepsis_equations():
    # The oracle: the two braid-triangle pastings, which the cell between
    # no step and a braid then its reverse must restrict to along p and r.
    for B in INSTANCES:
        L = C.maps(B)
        X, Y = map(canonical_carrier, "ab", (2, 3))
        cone = product_object(B, X, Y)
        p, r = cone.legs
        s, nu, mu = pairing(B, r, p)
        ss, nus, mus = pairing(B, *reversed(product_object(B, Y, X).legs))
        assert (s, ss) == (C.braid(L, X, Y), C.braid(L, Y, X))
        phi = B.vc(B.invert(mu), B.whisker_left(s, B.invert(nus)),
                   B.assoc_inv(s, ss, p))
        psi = B.vc(B.invert(nu), B.whisker_left(s, B.invert(mus)),
                   B.assoc_inv(s, ss, r))
        m, n, (sigma,) = C.route_cells(B, L, C.ROUTES["syllepsis"], (X, Y))
        assert m == B.identity(cone.vertex) and n == B.comp(s, ss)
        assert B.whisker_right(sigma, p) == phi
        assert B.whisker_right(sigma, r) == psi
        assert B.is_invertible(sigma)
        assert sigma.dom == B.identity(cone.vertex)
        assert sigma.cod == B.comp(s, ss)


def test_swap_squares_to_identity():
    # The symmetry pair's cell is the syllepsis whiskered with the braid on
    # either side, including at equal carriers, where only the leaf names
    # tell the braid from no step.
    for B in INSTANCES:
        X, Y = map(canonical_carrier, "ab", (2, 3))
        pairs = [(X, Y), (Y, X), (X, X), (FinSet(()), Y), (UNIT, X)]
        for Xa, Ya in pairs:
            s = C.braid(C.maps(B), Xa, Ya)
            sigma = _filler(B, "syllepsis", (Xa, Ya))
            sigma_s = _filler(B, "syllepsis", (Ya, Xa))
            cell = _filler(B, "symmetry", (Xa, Ya))
            assert (B.whisker_right(sigma, s) == B.whisker_left(s, sigma_s)
                    == cell), (B.name, Xa, Ya)
            assert B.is_invertible(cell)


def test_quadruple_rebracket_filler():
    for B in INSTANCES:
        X, Y, Z, W = map(canonical_carrier, "abcd", (2, 3, 2, 1))
        for values in ((X, Y, Z, W), (UNIT,) * 4):
            m, n, cells = C.route_cells(B, C.maps(B), C.ROUTES["rebracket"],
                                        values)
            assert m.is_map() and n.is_map()
            assert len(cells) == 1 and B.is_invertible(cells[0])


def test_routes_match_their_written_out_composites():
    # The oracle: each route as the associators, braids and tensors it
    # stands for.
    for B in INSTANCES:
        L = C.maps(B)
        X, Y, Z, U, V = map(canonical_carrier, "abcde", (2, 1, 2, 1, 2))
        one = B.identity
        a = functools.partial(C.assoc_map, L)
        t = functools.partial(times_on_arrows, B)

        def s(P, Q):
            return C.braid(L, P, Q)

        def vx(P, Q):
            return product_object(B, P, Q).vertex

        m, n = (C.route(L, trees, (X, Y, Z, U))
                for trees in C.ROUTES["rebracket"])
        assert m == B.comp(B.comp(t(a(X, Y, Z), one(U)), a(X, vx(Y, Z), U)),
                           t(one(X), a(Y, Z, U)))
        assert n == B.comp(a(vx(X, Y), Z, U), a(X, Y, vx(Z, U)))
        six = B.comp(B.comp(B.comp(B.comp(B.comp(
            t(t(a(X, Y, Z), one(U)), one(V)),
            t(a(X, vx(Y, Z), U), one(V))),
            t(t(one(X), a(Y, Z, U)), one(V))),
            a(X, vx(Y, vx(Z, U)), V)),
            t(one(X), a(Y, vx(Z, U), V))),
            t(one(X), t(one(Y), a(Z, U, V))))
        assert six == C.route(L, C.ROUTES["pentagon"][0], (X, Y, Z, U, V))
        first, second = (C.route(L, trees, (X, Y, Z))
                         for trees in C.ROUTES["hexagon"])
        assert first == B.comp(B.comp(a(X, Y, Z), s(X, vx(Y, Z))),
                               a(Y, Z, X))
        assert second == B.comp(B.comp(t(s(X, Y), one(Z)), a(Y, X, Z)),
                                t(one(Y), s(X, Z)))
        assert C.route(L, C.ROUTES["syllepsis"][0], (X, Y)) == one(vx(X, Y))


def test_step_takes_one_associator_or_one_braid_at_one_subtree():
    # Every leaf name stands for the same two-point carrier, so only the
    # names tell a braid from no step and a leaf from a renamed one.
    for B in INSTANCES:
        L = C.maps(B)
        X = canonical_carrier("a", 2)
        env = dict.fromkeys("xyzwp", X)
        one, t = B.identity, functools.partial(times_on_arrows, B)
        a, s = C.assoc_map(L, X, X, X), C.braid(L, X, X)
        assert s != one(product_object(B, X, X).vertex)
        accepted = (
            ((("x", "y"), "z"), ("x", ("y", "z")), a),
            (((("x", "y"), "z"), "w"), (("x", ("y", "z")), "w"),
             t(a, one(X))),
            (("x", "y"), ("y", "x"), s),
            ((("x", "y"), "z"), (("y", "x"), "z"), t(s, one(X))),
            (("z", ("x", "y")), ("z", ("y", "x")), t(one(X), s)))
        for t1, t2, expected in accepted:
            assert C._step(L, env, t1, t2) == expected, (t1, t2)
        refused = (
            (("x", "y"), ("x", "y")),
            ((("x", "y"), "z"), ("z", ("y", "x"))),
            (((("x", "y"), "z"), "w"), ("x", ("y", ("z", "w")))),
            (("x", ("y", "z")), (("x", "y"), "z")),
            ((("x", "y"), ("z", "w")), ((("x", "y"), "z"), "w")),
            (("p", "z"), ("x", ("y", "z"))),
            ((("x", "y"), "z"), ("p", "z")),
            ("x", "y"))
        for t1, t2 in refused:
            with pytest.raises(ValueError):
                C._step(L, env, t1, t2)
        # A flat cone is mediated only into a tree with one leaf per leg.
        with pytest.raises(ValueError, match="^cone arity does not match "
                                             "the bracketing$"):
            C.mediate_into(L, (one(X),) * 3, ("x", "y"))


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
    rng = random.Random(71)
    for B in INSTANCES:
        proxy = _TwiceOver(B)
        X, Y, Z, U, V = map(canonical_carrier, "abcde", (2, 1, 2, 1, 1))
        for name, values in (("rebracket", (X, Y, Z, U)),
                             ("pentagon", (X, Y, Z, U, V))):
            cells = C.route_cells(proxy, C.maps(proxy), C.ROUTES[name],
                                  values)[2]
            assert len(cells) == 2 and cells[0] == cells[1]
        R, S, T, W = (B.one_cell(rng, P, P, 2) for P in (X, Y, Z, U))
        verdict = C.modification_pair_check(proxy, R, S, T, W)
        assert verdict["kind"] == "non-unique"


def test_square_level_constraints_are_equivalences():
    rng = random.Random(31)
    for B in INSTANCES:
        X, Y, Z = map(canonical_carrier, "abc", (2, 3, 2))
        A, A2, A3 = map(canonical_carrier, "abc", (2, 2, 1))
        R = B.one_cell(rng, X, A, 2)
        S = B.one_cell(rng, Y, A2, 2)
        T = B.one_cell(rng, Z, A3, 2)
        assert C.g_constraints_invertible(B, R, S, T) is None


def _map_triples(B, rng):
    """Random maps between carriers of up to three elements."""
    for _ in range(5):
        sizes = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
        A1, A2, A3 = map(canonical_carrier, "abc", sizes)
        yield (B.graph(_rand_fn(rng, A1, A2)), B.graph(_rand_fn(rng, A2, A3)),
               B.graph(_rand_fn(rng, A3, A2)))


def _square_triples(B, rng):
    """Identity, terminal and map squares on random 1-cells."""
    ends = tuple(zip(map(canonical_carrier, "xyz", (2, 3, 1)),
                     map(canonical_carrier, "abc", (2, 2, 1))))
    for _ in range(3):
        cells = [B.one_cell(rng, X, A, 2) for X, A in ends]
        yield [groth.g_identity(B, R) for R in cells]
        yield [groth.g_bang(B, R) for R in cells]
        yield [groth.g_map_arrow(B, B.graph(_rand_fn(rng, X, A)))
               for X, A in ends]


def _assert_natural(L, triples):
    # Each naturality law is stated once, for any level.
    for f, g, h in triples:
        assert C.braid_natural(L, f, g)
        assert C.assoc_natural(L, f, g, h)
        assert C.unit_natural(L, f)


def test_structure_maps_natural_in_the_carriers():
    rng = random.Random(20260815)
    for B in INSTANCES:
        _assert_natural(C.maps(B), _map_triples(B, rng))


def test_braid_square_naturality():
    # The same laws on squares between 1-cells: the braid, and also the
    # associator and the unitors.
    rng = random.Random(41)
    for B in INSTANCES:
        _assert_natural(C.squares(B), _square_triples(B, rng))


def test_square_constructions_match_their_written_out_pairings():
    # The oracle: each square-level constraint as the tensor projections
    # and pairings it stands for, and the two routes of the modification
    # check as the composites of those.
    rng = random.Random(61)
    for B in INSTANCES:
        L = C.squares(B)
        ends = zip(map(canonical_carrier, "abcd", (2, 1, 2, 1)),
                   map(canonical_carrier, "abcd", (1, 2, 1, 1)))
        R, S, T, U = (B.one_cell(rng, X, A, 2) for X, A in ends)
        tensor = functools.partial(groth.g_tensor, B)
        compose = functools.partial(groth.g_compose, B)

        def pair(tens, a1, a2):
            return groth.g_pair(B, tens, a1, a2)

        def times(a1, a2):
            t_dom, t_cod = tensor(a1.dom, a2.dom), tensor(a1.cod, a2.cod)
            return pair(t_cod, compose(t_dom.proj1, a1),
                        compose(t_dom.proj2, a2))

        def assoc(P, Q, V):
            tPQ = tensor(P, Q)
            W = tensor(tPQ.obj, V)
            tQV = tensor(Q, V)
            inner = pair(tQV, compose(W.proj1, tPQ.proj2), W.proj2)
            return pair(tensor(P, tQV.obj), compose(W.proj1, tPQ.proj1),
                        inner)

        tRS, one = tensor(R, S), groth.g_terminal(B)
        assert C.assoc_map(L, R, S, T) == assoc(R, S, T)
        # A projection onto a leaf is its leg as it stands: no composite
        # with the leaf's identity square is built.
        assert (C.bracket_cone(L, ((R, S), T)).legs[2]
                is tensor(tRS.obj, T).proj2)
        assert C.braid(L, R, S) == pair(tensor(S, R), tRS.proj2, tRS.proj1)
        assert C.left_unit_map(L, R) == tensor(one, R).proj2
        assert C.right_unit_map(L, R) == pair(
            tensor(R, one), groth.g_identity(B, R), groth.g_bang(B, R))
        m_trees, n_trees = C.ROUTES["rebracket"]
        assert C.route(L, m_trees, (R, S, T, U)) == compose(
            compose(times(assoc(R, S, T), groth.g_identity(B, U)),
                    assoc(R, tensor(S, T).obj, U)),
            times(groth.g_identity(B, R), assoc(S, T, U)))
        assert C.route(L, n_trees, (R, S, T, U)) == compose(
            assoc(tRS.obj, T, U), assoc(R, S, tensor(T, U).obj))


def test_square_rebracket_modification():
    rng = random.Random(51)
    for B in INSTANCES:
        X, Y, Z, W = map(canonical_carrier, "abcd", (2, 1, 2, 1))
        A1, A2, A3, A4 = map(canonical_carrier, "abcd", (1, 2, 1, 1))
        R = B.one_cell(rng, X, A1, 2)
        S = B.one_cell(rng, Y, A2, 2)
        T = B.one_cell(rng, Z, A3, 2)
        U = B.one_cell(rng, W, A4, 2)
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
