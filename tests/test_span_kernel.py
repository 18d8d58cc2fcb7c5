"""Span structure and the 2-dimensional calculus on top of it.

The composition oracle counts two-step paths directly: the composite of two
spans must have, over every (source element, target element) pair, exactly
as many apex elements as there are middle-crossing paths.  That count is
invariant under the choice of pullback, so it validates both the canonical
pair apex and the kept apex along an identity leg.
"""

import functools
import itertools
import random

import pytest

from bicat import span_instance
from bicat.fin import (FinSet, SetFn, UNIT, all_functions, clear_table,
                       set_fn)
from bicat.gen import carrier, map_cell
from bicat.spans import (Span, SpanCell, graph, identity_span, relabel_apex,
                         reverse)
from bicat import kernel, spans
import memo_laws as laws

B = span_instance()


def path_counts(R, T):
    counts = {}
    for x in R.source:
        for l in T.target:
            n = sum(1 for r in R.apex for t in T.apex
                    if R.left(r) == x and R.right(r) == T.left(t)
                    and T.right(t) == l)
            counts[(x, l)] = n
    return counts


def span_counts(S):
    counts = {}
    for x in S.source:
        for l in S.target:
            counts[(x, l)] = sum(1 for s in S.apex
                                 if S.left(s) == x and S.right(s) == l)
    return counts


def test_composition_matches_path_counting():
    rng = random.Random(5)
    for _ in range(60):
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        L = carrier(rng, "l", 3)
        R = B.one_cell(rng, X, A, 4)
        T = B.one_cell(rng, A, L, 4)
        assert span_counts(B.comp(R, T)) == path_counts(R, T)


def test_identity_composition_is_strict():
    rng = random.Random(9)
    for _ in range(30):
        X = carrier(rng, "x", 4)
        A = carrier(rng, "a", 4)
        R = B.one_cell(rng, X, A, 4)
        assert B.comp(B.identity(X), R) == R
        assert B.comp(R, B.identity(A)) == R


def test_graph_composition_is_strict():
    X = FinSet(("x0", "x1", "x2"))
    Y = FinSet(("y0", "y1"))
    Z = FinSet(("z0", "z1", "z2"))
    f = SetFn(X, Y, ("y0", "y1", "y0"))
    g = SetFn(Y, Z, ("z2", "z0"))
    assert B.comp(graph(f), graph(g)) == graph(f.then(g))


def test_canonical_pullback_apex_is_row_major_pairs():
    X = FinSet(("x",))
    A = FinSet(("a",))
    L = FinSet(("l",))
    R = Span(X, A, FinSet(("r0", "r1")),
             SetFn.constant(FinSet(("r0", "r1")), X, "x"),
             SetFn.constant(FinSet(("r0", "r1")), A, "a"))
    T = Span(A, L, FinSet(("t0", "t1")),
             SetFn.constant(FinSet(("t0", "t1")), A, "a"),
             SetFn.constant(FinSet(("t0", "t1")), L, "l"))
    C = B.comp(R, T)
    assert list(C.apex) == [("r0", "t0"), ("r0", "t1"),
                            ("r1", "t0"), ("r1", "t1")]


def graph_form(S):
    return S.apex == S.source and S.left.is_identity()


def cograph_form(S):
    return S.apex == S.target and S.right.is_identity()


def reference_pullback(R, T):
    """The composite "R then T" by nested loops over both apexes: its apex,
    left-leg values, right-leg values and, aligned with the apex, the pairs
    of factor elements.  Along an identity leg the apex is the other
    factor's, in its order (R's when T is a graph, else T's when R is a
    cograph); otherwise it is the pairs, row-major."""
    pairs = [(r, t) for r in R.apex for t in T.apex if R.right(r) == T.left(t)]
    if graph_form(T):
        apex = [r for r, _ in pairs]
    elif cograph_form(R):
        pairs = [(r, t) for t in T.apex for r in R.apex
                 if R.right(r) == T.left(t)]
        apex = [t for _, t in pairs]
    else:
        apex = pairs
    return (apex, [R.left(r) for r, _ in pairs],
            [T.right(t) for _, t in pairs], pairs)


def test_composite_matches_nested_loop_pullback():
    rng = random.Random(23)
    seen = {"empty apex": 0, "empty fibre": 0, "graph first": 0,
            "graph second": 0, "cograph first": 0}
    for trial in range(240):
        X, A, L = (carrier(rng, p, 4) for p in "xal")
        R, T = B.one_cell(rng, X, A, 6), B.one_cell(rng, A, L, 6)
        if trial % 4 == 1 and len(A):
            R = graph(set_fn(rng, X, A))
        elif trial % 4 == 2 and len(L):
            T = graph(set_fn(rng, A, L))
        elif trial % 4 == 3 and len(X):
            R = reverse(graph(set_fn(rng, A, X)))
        seen["empty apex"] += not (len(R.apex) and len(T.apex))
        seen["empty fibre"] += not set(A) <= set(T.left.values)
        seen["graph first"] += graph_form(R)
        seen["graph second"] += graph_form(T)
        seen["cograph first"] += cograph_form(R) and not graph_form(T)
        C = B.comp(R, T)
        apex, left, right, _ = reference_pullback(R, T)
        assert (C.source, C.target) == (R.source, T.target)
        assert list(C.apex) == apex
        assert list(C.left.values) == left
        assert list(C.right.values) == right
    assert min(seen.values()) >= 10, seen


def reference_fibres(R, S):
    """For each element of R's apex, in order, the elements of S's apex with
    the same pair of leg values, by nested loops in S's apex order."""
    return [[s for s in S.apex
             if S.left(s) == R.left(r) and S.right(s) == R.right(r)]
            for r in R.apex]


def test_hom_cells_and_wedge_match_nested_loop_references():
    rng = random.Random(29)
    seen = {"empty R apex": 0, "empty fibre": 0, "fibre of two or more": 0,
            "several cells": 0}
    for _ in range(240):
        X, A = carrier(rng, "x", 2), carrier(rng, "a", 2)
        R, S = B.one_cell(rng, X, A, 3), B.one_cell(rng, X, A, 5)
        fibres = reference_fibres(R, S)
        seen["empty R apex"] += not fibres
        seen["empty fibre"] += any(not f for f in fibres)
        seen["fibre of two or more"] += any(len(f) > 1 for f in fibres)
        want = list(itertools.product(*fibres))
        seen["several cells"] += len(want) > 1
        cells = list(B.hom_cells(R, S))
        assert [c.fn.values for c in cells] == want
        assert all((c.dom, c.cod) == (R, S) for c in cells)
        assert list(B._wedge_apex(R, S)) == [
            (r, s) for r, f in zip(R.apex, fibres) for s in f]
    assert min(seen.values()) >= 10, seen


def test_non_commuting_cell_names_its_first_offender():
    X, A = FinSet(("x0", "x1")), FinSet(("a0", "a1"))
    S = FinSet(("s0", "s1", "s2"))
    R = Span(X, A, S, SetFn(S, X, ("x0", "x0", "x1")),
             SetFn(S, A, ("a0", "a1", "a1")))
    # Each function first breaks one leg only, at s1, and both legs at s2.
    right_only = SetFn(S, S, ("s0", "s0", "s0"))
    left_only = SetFn(S, S, ("s0", "s2", "s0"))
    for _ in range(2):
        for fn in (right_only, left_only):
            with pytest.raises(ValueError, match="^2-cell does not commute "
                                                 "with the legs at s1$"):
                SpanCell(R, R, fn)
        assert SpanCell(R, R, SetFn.identity(S)) is B.id2(R)


def test_cell_requires_commuting_legs():
    X = FinSet(("x0", "x1"))
    R = graph(SetFn(X, X, ("x0", "x1")))
    S = graph(SetFn(X, X, ("x1", "x0")))
    with pytest.raises(ValueError):
        SpanCell(R, S, SetFn.identity(X))
    assert SpanCell(R, R, SetFn.identity(X)) == B.id2(R)


def test_vcomp_and_whiskering_boundaries():
    rng = random.Random(11)
    X = carrier(rng, "x", 3)
    A = carrier(rng, "a", 3)
    L = carrier(rng, "l", 3)
    R = B.one_cell(rng, X, A, 3)
    R1, a = B.thicken(rng, R, 2)
    T = B.one_cell(rng, A, L, 3)

    assert a.dom == R and a.cod == R1
    assert B.vcomp(B.id2(R), a) == a
    assert B.vcomp(a, B.id2(R1)) == a

    wr = B.whisker_right(a, T)
    assert wr.dom == B.comp(R, T) and wr.cod == B.comp(R1, T)

    U = B.one_cell(rng, L, X, 3)
    wl = B.whisker_left(U, a)
    assert wl.dom == B.comp(U, R) and wl.cod == B.comp(U, R1)


def test_interchange_seeded():
    rng = random.Random(23)
    for _ in range(40):
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        L = carrier(rng, "l", 3)
        R = B.one_cell(rng, X, A, 3)
        R1, a1 = B.thicken(rng, R, rng.randint(0, 2))
        _, a2 = B.thicken(rng, R1, rng.randint(0, 2))
        T = B.one_cell(rng, A, L, 3)
        T1, b1 = B.thicken(rng, T, rng.randint(0, 2))
        _, b2 = B.thicken(rng, T1, rng.randint(0, 2))
        assert kernel.interchange_holds(B, a1, a2, b1, b2)


def test_associator_is_two_sided_inverse_and_natural():
    rng = random.Random(31)
    for _ in range(25):
        X, A, L, M = (carrier(rng, p, 3) for p in "xalm")
        R = B.one_cell(rng, X, A, 3)
        T = B.one_cell(rng, A, L, 3)
        U = B.one_cell(rng, L, M, 3)
        fwd = B.assoc(R, T, U)
        bwd = B.assoc_inv(R, T, U)
        assert fwd.dom == B.comp(B.comp(R, T), U)
        assert fwd.cod == B.comp(R, B.comp(T, U))
        assert B.vcomp(fwd, bwd) == B.id2(fwd.dom)
        assert B.vcomp(bwd, fwd) == B.id2(fwd.cod)

        # Naturality in the first argument.
        R1, al = B.thicken(rng, R, 1)
        lhs = B.vcomp(B.whisker_right(B.whisker_right(al, T), U),
                      B.assoc(R1, T, U))
        rhs = B.vcomp(B.assoc(R, T, U),
                      B.whisker_right(al, B.comp(T, U)))
        assert lhs == rhs


#: The carriers of the exhaustive sweeps: ``x0 x1 -> a0 a1 -> l0 l1 -> m0 m1``.
CHAIN = tuple(FinSet((p + "0", p + "1")) for p in "xalm")


def chain_one_cells():
    """The 1-cells of the sweeps, keyed by the positions in CHAIN of their
    source and target: between neighbours, every span with apex at most 2
    (none of them in graph form) and every graph and reversed graph; on each
    carrier, its identity."""
    cells = {(i, i): [B.identity(P)] for i, P in enumerate(CHAIN)}
    for i, (P, Q) in enumerate(zip(CHAIN, CHAIN[1:])):
        cells[i, i + 1] = (list(B.one_cells(P, Q, 2))
                           + [graph(f) for f in all_functions(P, Q)]
                           + [reverse(graph(f)) for f in all_functions(Q, P)])
    return cells


def reference_composite(R, T):
    """``comp(R, T)`` built from :func:`reference_pullback`, and the pair of
    factor elements of each of its apex elements."""
    apex, left, right, pairs = reference_pullback(R, T)
    S = FinSet(apex)
    return (Span(R.source, T.target, S, SetFn(S, R.source, left),
                 SetFn(S, T.target, right)), dict(zip(apex, pairs)))


def reference_assoc(R, T, U, composite):
    """The associator by nested loops: each element of the left bracketing
    goes to the element of the right one over the same path ``(r, t, u)``.
    ``composite`` is :func:`reference_composite`, perhaps cached."""
    RT, rt_of = composite(R, T)
    TU, tu_of = composite(T, U)
    dom, dom_of = composite(RT, U)
    cod, cod_of = composite(R, TU)
    over = {}
    for e in cod.apex:
        r, tu = cod_of[e]
        over[(r, *tu_of[tu])] = e
    values = []
    for e in dom.apex:
        rt, u = dom_of[e]
        values.append(over[(*rt_of[rt], u)])
    return SpanCell(dom, cod, SetFn(dom.apex, cod.apex, values))


def reference_hcomp(a, b):
    """The horizontal composite by nested loops: each element over ``(r, t)``
    goes to the element over ``(a(r), b(t))``."""
    dom, dom_of = reference_composite(a.dom, b.dom)
    cod, cod_of = reference_composite(a.cod, b.cod)
    over = {pair: e for e, pair in cod_of.items()}
    return SpanCell(dom, cod, SetFn(dom.apex, cod.apex, [
        over[a.fn(r), b.fn(t)] for r, t in map(dom_of.get, dom.apex)]))


def test_associator_matches_nested_loop_reference_on_every_triple():
    # Every composable triple of chain 1-cells: identities in each position,
    # graphs and reversed graphs on either side of spans in pair form.
    cells = chain_one_cells()
    # A sweep meets each inner composite of a triple many times.
    composite = functools.lru_cache(maxsize=4096)(reference_composite)
    seen = {"triples": 0, "identities": 0, "C graph": 0, "A cograph": 0,
            "B identity": 0, "B graph, not identity": 0}
    for (i, j), firsts in cells.items():
        for R in firsts:
            clear_table()
            for k in (j, j + 1):
                for l in (k, k + 1):
                    for T, U in itertools.product(cells.get((j, k), ()),
                                                  cells.get((k, l), ())):
                        got = B.assoc(R, T, U)
                        want = reference_assoc(R, T, U, composite)
                        assert got is want, (R, T, U)
                        seen["triples"] += 1
                        seen["identities"] += got._identity
                        seen["C graph"] += U._graph
                        seen["A cograph"] += R._cograph
                        seen["B identity"] += T.is_identity()
                        seen["B graph, not identity"] += (
                            T._graph and not T.is_identity()
                            and not (U._graph or R._cograph))
    assert seen["triples"] > 25_000 and min(seen.values()) >= 100, seen


def test_identity_tag_and_shortcuts_agree_with_the_general_formulas():
    # Every cell out of a chain 1-cell: the tag is the definition, and the
    # operations that return identities without building them agree with
    # the formulas on identities and on the other endo-cells alike.
    cells = chain_one_cells()
    for (i, j), here in cells.items():
        clear_table()
        for R in here:
            ident = B.id2(R)
            outgoing = [c for S in here for c in B.hom_cells(R, S)]
            incoming = [c for S in here for c in B.hom_cells(S, R)]
            assert ident in outgoing
            for c in outgoing:
                assert c._identity == (c.dom is c.cod and c.fn.is_identity())
                assert B.vcomp(ident, c) is SpanCell(R, c.cod,
                                                     ident.fn.then(c.fn))
            for c in incoming:
                assert B.vcomp(c, ident) is SpanCell(c.dom, R,
                                                     c.fn.then(ident.fn))
            for c in B.hom_cells(R, R):
                if B.is_invertible(c):
                    assert B.invert(c) is SpanCell(R, R, c.fn.inverse())
                for T in cells.get((j, j + 1), ()):
                    want = reference_hcomp(c, B.id2(T))
                    assert B.whisker_right(c, T) is want
                    assert B.hcomp(c, B.id2(T)) is want
                for T in cells.get((i - 1, i), ()):
                    assert B.whisker_left(T, c) is reference_hcomp(B.id2(T), c)
    # Every invertible endo-cell above is an involution; a three-cycle tells
    # an inverse from the cell itself.
    X, A = CHAIN[:2]
    three = FinSet(("s0", "s1", "s2"))
    R = Span(X, A, three, SetFn.constant(three, X, "x0"),
             SetFn.constant(three, A, "a0"))
    cycle = SpanCell(R, R, SetFn(three, three, ("s1", "s2", "s0")))
    assert B.invert(cycle) is SpanCell(R, R, cycle.fn.inverse())
    assert B.invert(cycle) is not cycle


def test_hom_cells_count_oracle():
    # The number of 2-cells R -> S is the product over R's apex of the
    # number of S-apex elements with the same pair of leg values.
    rng = random.Random(41)
    for _ in range(20):
        X = carrier(rng, "x", 2)
        A = carrier(rng, "a", 2)
        R = B.one_cell(rng, X, A, 3)
        S = B.one_cell(rng, X, A, 3)
        expect = 1
        for r in R.apex:
            expect *= sum(1 for s in S.apex
                          if S.left(s) == R.left(r)
                          and S.right(s) == R.right(r))
        assert len(list(B.hom_cells(R, S))) == expect


def test_hom_cells_guard_trips_only_past_its_limit(monkeypatch):
    # Nine cells from a two-element apex into a three-element fibre: an
    # existence query reads one and passes, a full enumeration raises.
    X, A = FinSet(("x0",)), FinSet(("a0",))
    R, S = (Span(X, A, apex, SetFn.constant(apex, X, "x0"),
                 SetFn.constant(apex, A, "a0"))
            for apex in (FinSet(("r0", "r1")), FinSet(("s0", "s1", "s2"))))
    monkeypatch.setattr(spans, "HOM_CELLS_LIMIT", 2)
    assert next(B.hom_cells(R, S)).dom is R
    with pytest.raises(RuntimeError, match="exceeds 2 cells"):
        list(B.hom_cells(R, S))
    monkeypatch.setattr(spans, "HOM_CELLS_LIMIT", 9)
    assert len(list(B.hom_cells(R, S))) == 9


def test_reverse_and_relabel():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    R = Span(X, A, FinSet(("s0", "s1")),
             SetFn(FinSet(("s0", "s1")), X, ("x0", "x1")),
             SetFn(FinSet(("s0", "s1")), A, ("a0", "a0")))
    rev = reverse(R)
    assert rev.source == A and rev.target == X
    assert reverse(rev) == R

    names = SetFn(R.apex, FinSet(("u", "v")), ("u", "v"))
    R2 = relabel_apex(R, names)
    assert set(R2.apex) == {"u", "v"}
    assert span_counts(R2) == span_counts(R)


def test_map_recognition_and_normalization():
    rng = random.Random(57)
    hits = 0
    for _ in range(40):
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        m = map_cell(B, rng, X, A)
        if m is None:
            continue
        hits += 1
        assert m.is_map()
        assert relabel_apex(graph(m.fn()), m.left.inverse()) == m
    assert hits > 10


def test_is_map_rejects_non_bijective_left_leg():
    X = FinSet(("x0",))
    A = FinSet(("a0", "a1"))
    S = FinSet(("s0", "s1"))
    bad = Span(X, A, S, SetFn.constant(S, X, "x0"), SetFn(S, A, ("a0", "a1")))
    assert not bad.is_map()
    with pytest.raises(kernel.NotAMap, match="non-map"):
        B.map_adjunction(bad)


def test_equivalences_are_two_bijective_legs():
    X = FinSet(("x0", "x1"))
    Y = FinSet(("y0", "y1"))
    E = Span(X, Y, FinSet(("e0", "e1")),
             SetFn(FinSet(("e0", "e1")), X, ("x1", "x0")),
             SetFn(FinSet(("e0", "e1")), Y, ("y0", "y1")))
    w = kernel.find_equivalence(B, E)
    assert w is not None and w.left == E

    # A map whose right adjoint is not a map, and that adjoint.
    N = graph(SetFn.constant(X, Y, "y0"))
    assert kernel.find_equivalence(B, N) is None
    assert not reverse(N).is_map()
    assert kernel.find_equivalence(B, reverse(N)) is None


def test_identity_span_shape():
    X = FinSet(("x0", "x1"))
    assert identity_span(X) == graph(SetFn.identity(X))
    assert B.identity(UNIT).source == UNIT


def test_shape_tags_match_their_definitions():
    X, A = FinSet(("x0", "x1")), FinSet(("a0", "a1"))
    for S in list(B.one_cells(X, A, 2)) + list(B.one_cells(X, X, 2)):
        assert S._graph == graph_form(S)
        assert S._cograph == cograph_form(S)
        assert S.is_identity() == (graph_form(S) and S.right.is_identity())


def test_fn_refuses_a_non_map_before_and_after_a_map():
    X, A = FinSet(("x0", "x1")), FinSet(("a0",))
    one, two = FinSet(("s0",)), FinSet(("s0", "s1"))
    not_onto = Span(X, A, one, SetFn(one, X, ("x0",)), SetFn(one, A, ("a0",)))
    not_injective = Span(X, A, two, SetFn(two, X, ("x0", "x0")),
                         SetFn(two, A, ("a0", "a0")))
    m = relabel_apex(graph(SetFn(X, A, ("a0", "a0"))),
                     SetFn(X, two, ("s1", "s0")))
    for _ in range(2):
        for bad in (not_onto, not_injective):
            with pytest.raises(ValueError, match="^not a map-span$"):
                bad.fn()
        assert m.fn() == SetFn(X, A, ("a0", "a0"))


def test_invert_refuses_a_non_invertible_cell_around_a_valid_one():
    X, A = FinSet(("x0",)), FinSet(("a0",))
    two = FinSet(("s0", "s1"))
    R = Span(X, A, two, SetFn(two, X, ("x0", "x0")),
             SetFn(two, A, ("a0", "a0")))
    f = graph(SetFn(X, A, ("a0",)))
    not_injective = B.tau(R)
    not_surjective = SpanCell(f, R, SetFn(X, two, ("s1",)))
    swap = SpanCell(R, R, SetFn(two, two, ("s1", "s0")))
    for _ in range(2):
        for bad in (not_injective, not_surjective):
            with pytest.raises(ValueError, match="^2-cell is not invertible$"):
                B.invert(bad)
        assert B.invert(swap) is swap
    for names in (SetFn(two, X, ("x0", "x0")), SetFn.identity(X)):
        with pytest.raises(ValueError, match="^apex relabeling must be a "
                                             "bijection from the apex$"):
            relabel_apex(R, names)


def test_invalid_cells_raise_after_a_valid_one():
    X = FinSet(("x0", "x1"))
    R = graph(SetFn(X, X, ("x0", "x1")))
    S = graph(SetFn(X, X, ("x1", "x0")))
    ident = SetFn.identity(X)
    Y = FinSet(("y0",))
    to_y = SetFn.constant(X, Y, "y0")
    refused = (
        (lambda: SpanCell(R, S, ident), "commute"),
        (lambda: B.vcomp(B.id2(R), B.id2(S)), "non-composable"),
        (lambda: Span(Y, X, X, ident, ident),
         "^left leg does not match the span boundary$"),
        (lambda: Span(X, Y, X, ident, ident),
         "^right leg does not match the span boundary$"),
        (lambda: SpanCell(R, graph(to_y), ident),
         "^2-cell between non-parallel spans$"),
        (lambda: SpanCell(R, R, to_y),
         "^2-cell function does not match the apexes$"))
    assert SpanCell(R, R, ident) is B.id2(R)
    for _ in range(2):
        for call, message in refused:
            with pytest.raises(ValueError, match=message):
                call()


@pytest.fixture
def instance():
    return B, reverse


test_repeated_composite_is_the_same_object = \
    laws.test_repeated_composite_is_the_same_object
test_non_composable_pair_raises_after_a_composite = \
    laws.test_non_composable_pair_raises_after_a_composite
test_property_check_shares_one_memo_per_check = \
    laws.test_property_check_shares_one_memo_per_check
