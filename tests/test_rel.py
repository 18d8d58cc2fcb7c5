"""Relations on finite sets, checked against plain set comprehensions."""

import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import _TABLE, FinSet, SetFn, clear_table
from bicat.gen import carrier, one_cell
from bicat.rels import Rel, RelCell, converse, identity_rel, rel_graph, span_image

R = rel_instance()
S = span_instance()


def naive_compose(a: Rel, b: Rel) -> set:
    return {(x, z) for (x, y) in a.pairs for (y2, z) in b.pairs if y == y2}


def test_composition_oracle():
    rng = random.Random(3)
    for _ in range(80):
        X = carrier(rng, "x", 4)
        A = carrier(rng, "a", 4)
        L = carrier(rng, "l", 4)
        f = one_cell(R, rng, X, A, 0)
        g = one_cell(R, rng, A, L, 0)
        assert set(R.comp(f, g).pairs) == naive_compose(f, g)


def test_pairs_stored_sorted_and_deduplicated():
    X = FinSet(("b", "a"))
    r = Rel(X, X, (("b", "a"), ("a", "a"), ("b", "a")))
    assert r.pairs == (("a", "a"), ("b", "a"))


def test_identity_and_graph():
    X = FinSet(("x0", "x1"))
    assert identity_rel(X).pairs == (("x0", "x0"), ("x1", "x1"))
    f = SetFn(X, X, ("x1", "x1"))
    assert rel_graph(f).pairs == (("x0", "x1"), ("x1", "x1"))
    assert rel_graph(f).is_map()


def test_converse_is_an_involution():
    rng = random.Random(13)
    for _ in range(30):
        X = carrier(rng, "x", 4)
        A = carrier(rng, "a", 4)
        r = one_cell(R, rng, X, A, 0)
        assert converse(converse(r)) == r
        # Contravariant on composition.
        L = carrier(rng, "l", 4)
        s = one_cell(R, rng, A, L, 0)
        assert converse(R.comp(r, s)) == R.comp(converse(s), converse(r))


def test_cells_are_containments():
    X = FinSet(("x0", "x1"))
    small = Rel(X, X, (("x0", "x0"),))
    big = Rel(X, X, (("x0", "x0"), ("x1", "x0")))
    assert R.cell(small, big).dom == small
    with pytest.raises(ValueError):
        R.cell(big, small)
    assert list(R.hom_cells(small, big)) == [RelCell(small, big)]
    assert list(R.hom_cells(big, small)) == []


def test_local_product_is_intersection():
    X = FinSet(("x0", "x1"))
    a = Rel(X, X, (("x0", "x0"), ("x0", "x1")))
    b = Rel(X, X, (("x0", "x1"), ("x1", "x1")))
    w = R.local_product(a, b)
    assert w.product.pairs == (("x0", "x1"),)


def test_local_terminal_is_full_relation():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    top = R.local_terminal(X, A)
    assert set(top.pairs) == {("x0", "a0"), ("x1", "a0")}
    r = Rel(X, A, (("x1", "a0"),))
    assert R.tau(r).cod == top


def test_span_image_is_a_quotient_functor():
    # Composition first or image first, same relation.
    rng = random.Random(29)
    for _ in range(40):
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        L = carrier(rng, "l", 3)
        u = one_cell(S, rng, X, A, 4)
        v = one_cell(S, rng, A, L, 4)
        assert span_image(S.comp(u, v)) == R.comp(span_image(u), span_image(v))
        assert span_image(S.identity(X)) == R.identity(X)


def test_one_cells_enumerates_the_whole_poset():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    rels = list(R.one_cells(X, A))
    assert len(rels) == 4
    assert len(set(rels)) == 4


def _stored(op, args) -> bool:
    """Whether the memo holds a result of the bound operation ``op`` at
    ``args``."""
    return (op.__func__.__wrapped__, op.__self__, *args) in _TABLE


def _full_pair():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0", "a1"))
    full = R.local_terminal(X, A)
    return full, converse(full)


def test_repeated_composite_is_the_same_object():
    f, g = _full_pair()
    first = R.comp(f, g)
    assert R.comp(f, g) is first
    # Within a unit, equal values built separately are one object.
    f2, g2 = _full_pair()
    assert f2 is f and g2 is g
    # A clear forgets the memo, but values still referenced stay the one
    # live copy, so rebuilding them and their composite returns them.
    clear_table()
    assert not _stored(R.comp, (f, g))
    f3, g3 = _full_pair()
    assert f3 is f and g3 is g
    assert R.comp(f3, g3) is first
    assert _stored(R.comp, (f, g))


def _memoised_calls():
    """Every memoised operation, with arguments it is defined at."""
    f, g = _full_pair()
    X = f.source
    h = rel_graph(SetFn(X, f.target, ("a0", "a0")))
    a = R.tau(h)
    return [("comp", (f, g)), ("identity", (X,)), ("id2", (f,)),
            ("vcomp", (R.id2(h), a)), ("whisker_left", (g, a)),
            ("whisker_right", (a, g)), ("hcomp", (a, R.id2(g))),
            ("assoc", (f, g, f)), ("invert", (R.assoc(f, g, f),)),
            ("map_adjunction", (h,))]


def test_memoised_operations_repeat_within_a_unit_only():
    for name, args in _memoised_calls():
        op = getattr(R, name)
        first = op(*args)
        assert op(*args) is first, name
        clear_table()
        assert not _stored(op, args), name
        again = op(*args)
        assert _stored(op, args), name
        # The adjunction is a witness, built again; every other result is
        # a value ``first`` still holds, so it comes back.
        assert again == first, name
        assert (again is first) == (name != "map_adjunction"), name


def test_fn_refuses_a_relation_that_is_not_a_graph():
    X, A = FinSet(("x0", "x1")), FinSet(("a0", "a1"))
    partial = Rel(X, A, [("x0", "a0")])
    many_valued = Rel(X, A, [("x0", "a0"), ("x0", "a1"), ("x1", "a0")])
    for bad in (partial, many_valued) * 2:
        with pytest.raises(ValueError, match="not a map relation"):
            bad.fn()
    h = SetFn(X, A, ("a1", "a0"))
    assert rel_graph(h).fn() == h


def test_non_composable_pair_raises_after_a_composite():
    f, g = _full_pair()
    R.comp(f, g)
    for _ in range(2):
        with pytest.raises(ValueError, match="non-composable"):
            R.comp(f, f)


def test_invalid_values_raise_after_a_valid_one():
    f, g = _full_pair()
    X, A = f.source, f.target
    small = Rel(X, A, (("x0", "a0"),))
    for _ in range(2):
        with pytest.raises(ValueError, match="out of bounds"):
            Rel(X, A, (("x0", "a0"), ("x0", "zz")))
        with pytest.raises(ValueError, match="containment fails"):
            RelCell(f, small)
        with pytest.raises(ValueError, match="non-composable"):
            R.vcomp(R.id2(small), R.id2(f))


def test_pair_set_is_stored_and_read():
    f, _ = _full_pair()
    X, A = f.source, f.target
    r = Rel(X, A, [("x1", "a0"), ("x0", "a1")])
    assert r.pairset == frozenset(r.pairs)
    assert r is Rel(X, A, {("x0", "a1"), ("x1", "a0")})
    assert ("x1", "a0") in r and ("x0", "a0") not in r
    assert R.local_product(r, f).product.pairset == r.pairset
    # ``pairs`` reads in label order (atoms, then pairs), not set order:
    # ten pairs leave set order no real chance to agree with it.
    Y = FinSet([("p", "q")] + ["y%d" % i for i in range(8, -1, -1)])
    wide = Rel(Y, A, ((y, "a0") for y in Y))
    assert wide.pairs == tuple(
        (y, "a0") for y in ["y%d" % i for i in range(9)] + [("p", "q")])
    # A relation still referenced survives a fresh memo.
    clear_table()
    assert Rel(X, A, [("x0", "a1"), ("x1", "a0")]) is r


def test_property_check_shares_one_memo_per_check():
    from bicat.gen import GenConfig
    from bicat.harness import property_check

    stored = []

    def body(B, rng, carriers):
        f, g = _full_pair()
        stored.append(_stored(B.comp, (f, g)))
        B.comp(f, g)
        return {"X": carriers[0]} if len(carriers[0]) >= 2 else None

    spec = property_check("toy-memo-scope", ("x",), body)
    cfg = GenConfig(seed=1, max_carrier=4, trials=20, instance="rel",
                    suites=("kernel",))
    for _ in range(2):
        stored.clear()
        result = spec.run(R, cfg)
        assert result.status == "fail"
        # Only the first attempt builds the composite: later trials and
        # the shrink attempts find it in the memo.  A second run of the
        # check starts empty again.
        assert len(stored) > result.trials > 1
        assert stored == [False] + [True] * (len(stored) - 1)
