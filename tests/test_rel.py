"""Relations on finite sets, checked against plain set comprehensions."""

import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn, canonical_carrier, clear_table, set_fn
from bicat.gen import carrier
from bicat.rels import Rel, RelCell, converse, identity_rel, rel_graph, span_image
from bicat.spans import graph, reverse
import memo_laws as laws

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
        f = R.one_cell(rng, X, A, 0)
        g = R.one_cell(rng, A, L, 0)
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
        r = R.one_cell(rng, X, A, 0)
        assert converse(converse(r)) == r
        # Contravariant on composition.
        L = carrier(rng, "l", 4)
        s = R.one_cell(rng, A, L, 0)
        assert converse(R.comp(r, s)) == R.comp(converse(s), converse(r))


def test_cells_are_containments():
    X = FinSet(("x0", "x1"))
    small = Rel(X, X, (("x0", "x0"),))
    big = Rel(X, X, (("x0", "x0"), ("x1", "x0")))
    assert RelCell(small, big).dom == small
    with pytest.raises(ValueError):
        RelCell(big, small)
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
    # Composition first or image first, same relation.  A third of the
    # trials take a graph on the right and a third a reversed graph on the
    # left: those composites keep the other factor's apex, the rest are
    # pair pullbacks.  Carriers are non-empty, so enough composites of each
    # shape relate two or more pairs.
    rng = random.Random(29)
    related = [0, 0, 0]
    for trial in range(90):
        shape = trial % 3
        X, A, L = (canonical_carrier(p, rng.randint(1, 3)) for p in "xal")
        u = S.one_cell(rng, X, A, 4)
        v = S.one_cell(rng, A, L, 4)
        if shape == 1:
            v = graph(set_fn(rng, A, L))
        elif shape == 2:
            u = reverse(graph(set_fn(rng, A, X)))
        image = span_image(S.comp(u, v))
        assert image == R.comp(span_image(u), span_image(v))
        assert span_image(S.identity(X)) == R.identity(X)
        related[shape] += len(image.pairset) >= 2
    assert min(related) >= 5, related


def test_one_cells_enumerates_the_whole_poset():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    rels = list(R.one_cells(X, A, 0))
    assert len(rels) == 4
    assert len(set(rels)) == 4


def test_fn_refuses_a_relation_that_is_not_a_graph():
    X, A = FinSet(("x0", "x1")), FinSet(("a0", "a1"))
    partial = Rel(X, A, [("x0", "a0")])
    many_valued = Rel(X, A, [("x0", "a0"), ("x0", "a1"), ("x1", "a0")])
    for bad in (partial, many_valued) * 2:
        with pytest.raises(ValueError, match="not a map relation"):
            bad.fn()
    h = SetFn(X, A, ("a1", "a0"))
    assert rel_graph(h).fn() == h


def test_invalid_values_raise_after_a_valid_one():
    f, g = laws.full_pair(R, converse)
    X, A = f.source, f.target
    small = Rel(X, A, (("x0", "a0"),))
    for _ in range(2):
        with pytest.raises(ValueError, match="out of bounds"):
            Rel(X, A, (("x0", "a0"), ("x0", "zz")))
        with pytest.raises(ValueError, match="containment fails"):
            RelCell(f, small)
        with pytest.raises(ValueError, match="non-composable"):
            R.vcomp(R.id2(small), R.id2(f))
        with pytest.raises(ValueError,
                           match="^2-cell between non-parallel relations$"):
            RelCell(small, g)
        with pytest.raises(ValueError, match="^2-cell is not invertible$"):
            R.invert(RelCell(small, f))


def test_pair_set_is_stored_and_read():
    f, _ = laws.full_pair(R, converse)
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


@pytest.fixture
def instance():
    return R, converse


test_repeated_composite_is_the_same_object = \
    laws.test_repeated_composite_is_the_same_object
test_non_composable_pair_raises_after_a_composite = \
    laws.test_non_composable_pair_raises_after_a_composite
test_property_check_shares_one_memo_per_check = \
    laws.test_property_check_shares_one_memo_per_check
