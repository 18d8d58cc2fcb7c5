"""The memo and value-table laws both instances keep, each written once.

``tests/test_span_kernel.py`` and ``tests/test_rel.py`` bind these tests
under their own names and supply the ``instance`` fixture: the instance
with its reversal of 1-cells (``spans.reverse``, ``rels.converse``).
"""

import pytest

from bicat.fin import FinSet, clear_table
from bicat.gen import GenConfig
from bicat.harness import exhaustive_check, property_check, run_check


def stored(op, args) -> bool:
    """Whether the memo holds a result of the memoised function or bound
    method ``op`` at ``args``: a key of ``op``'s own table."""
    table = getattr(op, "__func__", op).table
    bound = getattr(op, "__self__", None)
    return (args if bound is None else (bound, *args)) in table


def full_pair(B, rev):
    """The full 1-cell ``X -> A`` and its reversal, a composable pair."""
    full = B.local_terminal(FinSet(("x0", "x1")), FinSet(("a0", "a1")))
    return full, rev(full)


def test_repeated_composite_is_the_same_object(instance):
    B, rev = instance
    f, g = full_pair(B, rev)
    first = B.comp(f, g)
    assert B.comp(f, g) is first
    # Within a unit, equal values built separately are one object.
    f2, g2 = full_pair(B, rev)
    assert f2 is f and g2 is g
    # A clear forgets the memo, but values still referenced stay the one
    # live copy, so rebuilding them and their composite returns them.
    clear_table()
    assert not stored(B.comp, (f, g))
    f3, g3 = full_pair(B, rev)
    assert f3 is f and g3 is g
    assert B.comp(f3, g3) is first
    assert stored(B.comp, (f, g))


def test_non_composable_pair_raises_after_a_composite(instance):
    B, rev = instance
    f, g = full_pair(B, rev)
    B.comp(f, g)
    for _ in range(2):
        with pytest.raises(ValueError, match="non-composable"):
            B.comp(f, f)


def test_property_check_shares_one_memo_per_check(instance):
    B, rev = instance
    seen = []

    def body(B, rng, carriers):
        f, g = full_pair(B, rev)
        seen.append(stored(B.comp, (f, g)))
        B.comp(f, g)
        return {"X": carriers[0]} if len(carriers[0]) >= 2 else None

    cfg = GenConfig(seed=1, max_carrier=4, trials=20, instance=B.name,
                    suites=("kernel",))
    # Only the first attempt builds the composite: later trials, a sampled
    # check's shrink attempts and an exhaustive check's later tuples find
    # it in the memo.  A second run of the check starts empty again.
    for spec, shrinks in ((property_check("toy-memo-scope", ("x",), body), 1),
                          (exhaustive_check("toy-memo-scope", ("x",), body, 4),
                           0)):
        for _ in range(2):
            seen.clear()
            result = run_check(B, cfg, spec)
            assert result.status == "fail"
            assert len(seen) - shrinks >= result.trials > 1
            assert seen == [False] + [True] * (len(seen) - 1)
