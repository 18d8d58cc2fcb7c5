"""The operations that are memoised per unit: the instances' structure
operations and the constructions above them.

Each one returns the stored object when repeated within a unit, and a
cleared table no longer holds it; a ``None`` result is stored too; a
refused call raises every time; and the instance is part of the key of
every operation that takes one, so a proxy instance gets its own entries.
"""

import pytest

from bicat import mapprod, rel_instance, span_instance
from bicat.cartesian import tensor_unit_cell
from bicat.fin import UNIT, FinSet, SetFn, canonical_carrier, clear_table
from bicat.groth import (TensorWitness, g_compose, g_identity, g_pair,
                         g_tensor, g_terminal, garr_from_secondary, secondary)
from bicat.harness import _Corrupt
from bicat.homprod import LocalProductWitness, transport_cell, transport_hom
from bicat.kernel import compose_adjunctions, right_mate_of_map_cell
from bicat.mapprod import (_hom_count, bang, check_product_cone, map_iso,
                           pair_map, pairing, product_object)
from bicat.rels import Rel, RelCell
from bicat.spans import Span, SpanCell, _fibres, relabel_apex
from memo_laws import stored

INSTANCES = (span_instance(), rel_instance())
X = FinSet(("x0", "x1"))
A = FinSet(("a0", "a1"))
#: The interned value classes: one live object per value.
VALUES = (FinSet, SetFn, Span, SpanCell, Rel, RelCell)


def _cells(B):
    """A full 1-cell ``X -> A``, two maps out of X and a scrambled copy of
    the first map (the map itself on relations, which have one form)."""
    full = B.local_terminal(X, A)
    f = B.graph(SetFn(X, A, ("a0", "a1")))
    swap = B.graph(SetFn(X, X, ("x1", "x0")))
    scrambled = f if B.name == "rel" else relabel_apex(
        f, SetFn(X, FinSet(("s0", "s1")), ("s1", "s0")))
    return full, f, swap, scrambled


def _memoised_calls(B):
    """Every memoised operation, with arguments it is defined at."""
    full, f, swap, scrambled = _cells(B)
    f_star = B.map_adjunction(f).right
    one = g_identity(B, full)
    adj_f = B.map_adjunction(f)
    top = B.tau(f)
    calls = [
        ("comp", B.comp, (full, f_star)),
        ("identity", B.identity, (X,)),
        ("id2", B.id2, (full,)),
        ("vcomp", B.vcomp, (B.id2(f), top)),
        ("whisker_left", B.whisker_left, (f_star, top)),
        ("whisker_right", B.whisker_right, (top, f_star)),
        ("hcomp", B.hcomp, (top, B.id2(f_star))),
        ("assoc", B.assoc, (full, f_star, full)),
        ("invert", B.invert, (B.assoc(full, f_star, full),)),
        ("map_adjunction", B.map_adjunction, (f,)),
        ("g_tensor", g_tensor, (B, full, f)),
        ("garr_from_secondary", garr_from_secondary,
         (B, full, g_terminal(B), bang(B, X), bang(B, A), B.tau(full))),
        ("pair_map", pair_map, (B, f, swap)),
        ("pairing", pairing, (B, f, swap)),
        ("map_iso", map_iso, (B, scrambled, f)),
        ("transport_hom", transport_hom, (B, swap, full, f_star)),
        ("transport_cell", transport_cell, (B, swap, B.tau(f), f_star)),
        ("compose_adjunctions", compose_adjunctions,
         (B, B.map_adjunction(swap), B.map_adjunction(f))),
        ("local_product", B.local_product, (full, f)),
        ("fn", type(f).fn, (scrambled,)),
        ("is_map", type(f).is_map, (scrambled,)),
        ("product_object", product_object, (B, X, A)),
        ("check_product_cone", check_product_cone,
         (B, product_object(B, X, UNIT))),
        ("_hom_count", _hom_count, (B, f, f)),
        ("g_pair", g_pair, (B, g_tensor(B, full, full), one, one)),
        ("secondary", secondary, (B, one)),
        ("g_compose", g_compose, (B, one, one)),
        ("right_mate_of_map_cell", right_mate_of_map_cell,
         (B, B.id2(f), adj_f, adj_f)),
        ("tensor_unit_cell", tensor_unit_cell, (B, X, A)),
        ("canonical_carrier", canonical_carrier, ("x", 2)),
    ]
    if B.name == "span":
        # Only spans have a fibre index.
        calls.append(("_fibres", _fibres, (full,)))
    return calls


def _parts(x):
    """A result as plain data: the witnesses compare by identity, so open
    them into their parts."""
    if isinstance(x, TensorWitness):
        return (x.obj, x.proj1, x.proj2, _parts(x.wedge), x.src_cone,
                x.tgt_cone)
    if isinstance(x, LocalProductWitness):
        return (x.product, x.proj1, x.proj2)
    return x


def test_upper_memoised_operations_repeat_within_a_unit_only():
    for B in INSTANCES:
        for name, op, args in _memoised_calls(B):
            first = op(*args)
            assert stored(op, args), (B.name, name)
            assert op(*args) is first, (B.name, name)
            clear_table()
            assert not stored(op, args), (B.name, name)
            again = op(*args)
            assert stored(op, args), (B.name, name)
            # A witness (an adjunction, a cone) is built again, equal but
            # not identical; a value ``first`` still holds, and ``None`` or a
            # truth value, comes back as the same object; a count is equal.
            same = first is None or isinstance(first, VALUES + (bool,))
            if type(first) is not int:
                assert (again is first) == same, (B.name, name)
            assert _parts(again) == _parts(first), (B.name, name)


def test_a_none_result_is_stored_and_not_recomputed(monkeypatch):
    # ``check_product_cone`` returns ``None`` on a product cone; the repeat
    # must find it in the memo, not search the probe carriers again.
    searched = []
    all_functions = mapprod.all_functions

    def counted(*args):
        searched.append(args)
        return all_functions(*args)

    monkeypatch.setattr(mapprod, "all_functions", counted)
    for B in INSTANCES:
        cone = product_object(B, X, UNIT)
        assert check_product_cone(B, cone) is None
        assert stored(check_product_cone, (B, cone)), B.name
        before = len(searched)
        assert before > 0
        assert check_product_cone(B, cone) is None
        assert len(searched) == before, B.name


def test_refused_upper_calls_raise_on_every_call():
    for B in INSTANCES:
        _, f, swap, _ = _cells(B)
        other = B.identity(FinSet(("y0",)))
        pairing(B, f, swap)
        map_iso(B, f, f)
        for _ in range(2):
            with pytest.raises(ValueError, match="different sources"):
                pairing(B, f, other)
            with pytest.raises(ValueError, match="different sources"):
                pair_map(B, f, other)
            with pytest.raises(ValueError, match="not isomorphic"):
                map_iso(B, swap, B.identity(X))


def test_a_proxy_instance_gets_entries_of_its_own():
    for B in INSTANCES:
        full, f, _, _ = _cells(B)
        proxy = _Corrupt(B)
        mine = g_tensor(B, full, f)
        theirs = g_tensor(proxy, full, f)
        assert theirs is not mine
        assert g_tensor(proxy, full, f) is theirs
        assert g_tensor(B, full, f) is mine
        # A square records the cell it was built from as its secondary
        # form under the instance that built it, the proxy apart.
        args = (full, g_terminal(B), bang(B, X), bang(B, A), B.tau(full))
        square = garr_from_secondary(proxy, *args)
        assert stored(secondary, (proxy, square))
        assert not stored(secondary, (B, square))
        assert garr_from_secondary(B, *args) == square
        assert stored(secondary, (B, square))
