"""Relations on finite sets, checked against plain set comprehensions."""

import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn
from bicat.gen import carrier, one_cell, rng_for
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


def _full_pair():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0", "a1"))
    full = R.local_terminal(X, A)
    return full, converse(full)


def test_repeated_composite_is_the_same_object():
    R.forget_composites()
    f, g = _full_pair()
    first = R.comp(f, g)
    assert R.comp(f, g) is first
    f2, g2 = _full_pair()
    assert f2 is not f and R.comp(f2, g2) is first
    R.forget_composites()
    again = R.comp(f, g)
    assert again == first and again is not first


def test_non_composable_pair_raises_after_a_composite():
    R.forget_composites()
    f, g = _full_pair()
    R.comp(f, g)
    for _ in range(2):
        with pytest.raises(ValueError, match="non-composable"):
            R.comp(f, f)


def test_property_check_attempts_start_with_an_empty_memo():
    from bicat.gen import GenConfig
    from bicat.harness import property_check

    seen = []

    def body(B, rng, carriers):
        f, g = _full_pair()
        got = B.comp(f, g)
        assert all(got is not prev for prev in seen)
        seen.append(got)
        return {"X": carriers[0]} if len(carriers[0]) >= 2 else None

    spec = property_check("toy-memo-scope", ("x",), body)
    cfg = GenConfig(seed=1, max_carrier=4, trials=20, instance="rel",
                    suites=("kernel",))
    result = spec.run(R, cfg)
    assert result.status == "fail"
    assert len(seen) > result.trials
