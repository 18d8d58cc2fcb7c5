"""Span structure and the 2-dimensional calculus on top of it.

The composition oracle counts two-step paths directly: the composite of two
spans must have, over every (source element, target element) pair, exactly
as many apex elements as there are middle-crossing paths.  That count is
invariant under the choice of pullback, so it validates both the canonical
pair apex and the strict graph/identity shortcuts.
"""

import random

import pytest

from bicat import span_instance
from bicat.fin import FinSet, SetFn, UNIT
from bicat.gen import carrier, map_cell, one_cell, rng_for, thicken
from bicat.spans import (Span, graph, identity_span, relabel_apex, reverse)
from bicat import kernel

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
        R = one_cell(B, rng, X, A, 4)
        T = one_cell(B, rng, A, L, 4)
        assert span_counts(B.comp(R, T)) == path_counts(R, T)


def test_identity_composition_is_strict():
    rng = random.Random(9)
    for _ in range(30):
        X = carrier(rng, "x", 4)
        A = carrier(rng, "a", 4)
        R = one_cell(B, rng, X, A, 4)
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


def test_cell_requires_commuting_legs():
    X = FinSet(("x0", "x1"))
    R = graph(SetFn(X, X, ("x0", "x1")))
    S = graph(SetFn(X, X, ("x1", "x0")))
    with pytest.raises(ValueError):
        B.cell_from_callable(R, S, lambda s: s)
    assert B.cell_from_callable(R, R, lambda s: s) == B.id2(R)


def test_vcomp_and_whiskering_boundaries():
    rng = random.Random(11)
    X = carrier(rng, "x", 3)
    A = carrier(rng, "a", 3)
    L = carrier(rng, "l", 3)
    R = one_cell(B, rng, X, A, 3)
    R1, a = thicken(B, rng, R, 2)
    T = one_cell(B, rng, A, L, 3)

    assert a.dom == R and a.cod == R1
    assert B.vcomp(B.id2(R), a) == a
    assert B.vcomp(a, B.id2(R1)) == a

    wr = B.whisker_right(a, T)
    assert wr.dom == B.comp(R, T) and wr.cod == B.comp(R1, T)

    U = one_cell(B, rng, L, X, 3)
    wl = B.whisker_left(U, a)
    assert wl.dom == B.comp(U, R) and wl.cod == B.comp(U, R1)


def test_interchange_seeded():
    rng = random.Random(23)
    for _ in range(40):
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        L = carrier(rng, "l", 3)
        R = one_cell(B, rng, X, A, 3)
        R1, a1 = thicken(B, rng, R, rng.randint(0, 2))
        _, a2 = thicken(B, rng, R1, rng.randint(0, 2))
        T = one_cell(B, rng, A, L, 3)
        T1, b1 = thicken(B, rng, T, rng.randint(0, 2))
        _, b2 = thicken(B, rng, T1, rng.randint(0, 2))
        assert kernel.interchange_holds(B, a1, a2, b1, b2)


def test_associator_is_two_sided_inverse_and_natural():
    rng = random.Random(31)
    for _ in range(25):
        X, A, L, M = (carrier(rng, p, 3) for p in "xalm")
        R = one_cell(B, rng, X, A, 3)
        T = one_cell(B, rng, A, L, 3)
        U = one_cell(B, rng, L, M, 3)
        fwd = B.assoc(R, T, U)
        bwd = B.assoc_inv(R, T, U)
        assert fwd.dom == B.comp(B.comp(R, T), U)
        assert fwd.cod == B.comp(R, B.comp(T, U))
        assert B.vcomp(fwd, bwd) == B.id2(fwd.dom)
        assert B.vcomp(bwd, fwd) == B.id2(fwd.cod)

        # Naturality in the first argument.
        R1, al = thicken(B, rng, R, 1)
        lhs = B.vcomp(B.whisker_right(B.whisker_right(al, T), U),
                      B.assoc(R1, T, U))
        rhs = B.vcomp(B.assoc(R, T, U),
                      B.whisker_right(al, B.comp(T, U)))
        assert lhs == rhs


def test_hom_cells_count_oracle():
    # The number of 2-cells R -> S is the product over R's apex of the
    # number of S-apex elements with the same pair of leg values.
    rng = random.Random(41)
    for _ in range(20):
        X = carrier(rng, "x", 2)
        A = carrier(rng, "a", 2)
        R = one_cell(B, rng, X, A, 3)
        S = one_cell(B, rng, X, A, 3)
        expect = 1
        for r in R.apex:
            expect *= sum(1 for s in S.apex
                          if S.left(s) == R.left(r)
                          and S.right(s) == R.right(r))
        assert len(list(B.hom_cells(R, S))) == expect


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
        nm = B.normalize_map(m)
        assert nm == graph(m.fn())
    assert hits > 10


def test_is_map_rejects_non_bijective_left_leg():
    X = FinSet(("x0",))
    A = FinSet(("a0", "a1"))
    S = FinSet(("s0", "s1"))
    bad = Span(X, A, S, SetFn.constant(S, X, "x0"), SetFn(S, A, ("a0", "a1")))
    assert not bad.is_map()
    assert B.is_map(bad) is None


def test_equivalences_are_two_bijective_legs():
    X = FinSet(("x0", "x1"))
    Y = FinSet(("y0", "y1"))
    E = Span(X, Y, FinSet(("e0", "e1")),
             SetFn(FinSet(("e0", "e1")), X, ("x1", "x0")),
             SetFn(FinSet(("e0", "e1")), Y, ("y0", "y1")))
    w = kernel.find_equivalence(B, E)
    assert w is not None and w.forward == E

    N = graph(SetFn.constant(X, Y, "y0"))
    assert kernel.find_equivalence(B, N) is None


def test_identity_span_shape():
    X = FinSet(("x0", "x1"))
    assert identity_span(X) == graph(SetFn.identity(X))
    assert B.identity(UNIT).source == UNIT


def test_shape_tags_match_their_definitions():
    X, A = FinSet(("x0", "x1")), FinSet(("a0", "a1"))
    for S in list(B.one_cells(X, A, 2)) + list(B.one_cells(X, X, 2)):
        graph_form = S.apex == S.source and S.left.is_identity()
        assert S.is_graph() == graph_form
        assert S.is_identity() == (graph_form and S.right.is_identity())


def _pullback_pair():
    X = FinSet(("x0", "x1"))
    top = B.local_terminal(X, X)
    return top, reverse(top)


def test_repeated_composite_is_the_same_object():
    B.forget_composites()
    R, T = _pullback_pair()
    first = B.comp(R, T)
    assert B.comp(R, T) is first
    # Equal factors built separately hit the same memo entry.
    R2, T2 = _pullback_pair()
    assert R2 is not R and B.comp(R2, T2) is first
    B.forget_composites()
    again = B.comp(R, T)
    assert again == first and again is not first


def test_non_composable_pair_raises_after_a_composite():
    B.forget_composites()
    R, T = _pullback_pair()
    B.comp(R, T)
    bad = identity_span(FinSet(("y0",)))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-composable"):
            B.comp(R, bad)


def test_property_check_attempts_start_with_an_empty_memo():
    from bicat.gen import GenConfig
    from bicat.harness import property_check

    seen = []

    def body(B, rng, carriers):
        R, T = _pullback_pair()
        got = B.comp(R, T)
        assert all(got is not prev for prev in seen)
        seen.append(got)
        return {"X": carriers[0]} if len(carriers[0]) >= 2 else None

    spec = property_check("toy-memo-scope", ("x",), body)
    cfg = GenConfig(seed=1, max_carrier=4, trials=20, instance="span",
                    suites=("kernel",))
    result = spec.run(B, cfg)
    assert result.status == "fail"
    # More attempts than trials: the shrink attempts were checked too.
    assert len(seen) > result.trials
