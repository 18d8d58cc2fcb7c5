import gc
import importlib
import weakref

import pytest
from hypothesis import given, strategies as st

from bicat.fin import (_DEAD, _TABLES, _VALUES, FinSet, SetFn, UNIT, _Ref,
                       _sweep, all_functions, clear_table, memoised,
                       parse_label, render_label)

atoms = st.from_regex(r"[A-Za-z0-9_*'+.=|!?$-]{1,8}", fullmatch=True)
labels = st.recursive(atoms, lambda inner: st.tuples(inner, inner),
                      max_leaves=6)


@given(labels)
def test_label_round_trip(label):
    assert parse_label(render_label(label)) == label


def test_label_rendering_shapes():
    assert render_label("a0") == "a0"
    assert render_label(("a", "b")) == "(a,b)"
    assert render_label((("a", "b"), "c")) == "((a,b),c)"
    assert parse_label("((a,b),(c,d))") == (("a", "b"), ("c", "d"))


def test_parse_label_rejects_garbage():
    for bad in ("", "(a", "a,b", "(a,b", "(a b)", "a)"):
        with pytest.raises(ValueError):
            parse_label(bad)


def test_finset_is_ordered_and_structural():
    A = FinSet(("b", "a"))
    B = FinSet(("b", "a"))
    C = FinSet(("a", "b"))
    assert A == B
    assert A != C, "element order is part of the identity"
    assert list(A) == ["b", "a"]
    assert "a" in A and "z" not in A
    assert len(FinSet(())) == 0


def test_finset_product_is_row_major():
    A = FinSet(("x", "y"))
    B = FinSet(("0", "1"))
    assert list(A.product(B)) == [("x", "0"), ("x", "1"),
                                  ("y", "0"), ("y", "1")]


def test_setfn_basics():
    X = FinSet(("a", "b", "c"))
    Y = FinSet(("0", "1"))
    f = SetFn(X, Y, ("0", "1", "1"))
    assert f("a") == "0" and f("c") == "1"
    assert not f.is_bijective()

    g = SetFn(Y, Y, ("1", "0"))
    assert g.is_bijective()
    assert g.inverse().then(g) == SetFn.identity(Y)
    assert f.then(g) == SetFn(X, Y, ("1", "0", "0"))


def test_setfn_values_are_the_codomains_own_labels():
    P = FinSet(("a", "b")).product(FinSet(("0",)))
    f = SetFn(UNIT, P, [("b", "0")])
    assert f.values[0] == ("b", "0") and f.values[0] is P.elements[1]


def test_setfn_identity_and_constant():
    X = FinSet(("p", "q"))
    assert SetFn.identity(X)("p") == "p"
    c = SetFn.constant(X, UNIT, "*")
    assert all(c(x) == "*" for x in X)


def test_setfn_equality_is_pointwise_on_equal_carriers():
    X = FinSet(("a", "b"))
    Y = FinSet(("0", "1"))
    assert SetFn(X, Y, ("0", "0")) == SetFn(X, Y, ("0", "0"))
    assert SetFn(X, Y, ("0", "0")) != SetFn(X, Y, ("0", "1"))


def test_all_functions_count_and_determinism():
    X = FinSet(("a", "b"))
    Y = FinSet(("0", "1", "2"))
    fns = list(all_functions(X, Y))
    assert len(fns) == 9
    assert fns == list(all_functions(X, Y))
    # Degenerate shapes: one function out of the empty carrier, none into it
    # from anything nonempty.
    assert len(list(all_functions(FinSet(()), Y))) == 1
    assert list(all_functions(X, FinSet(()))) == []


def test_equal_values_are_one_object_within_a_unit():
    X, Y = FinSet(("a", "b")), FinSet(["a", "b"])
    f = SetFn(X, UNIT, ("*", "*"))
    assert X is Y
    assert SetFn.constant(Y, UNIT, "*") is f
    then = memoised(SetFn.then)
    ident = SetFn.identity(UNIT)
    assert then(f, ident) is f
    assert (f, ident) in then.table
    # A clear forgets the memo, but a value still referenced stays the
    # one live copy: rebuilding it returns the same object.
    clear_table()
    assert (f, ident) not in then.table
    assert FinSet(("a", "b")) is X
    assert SetFn(X, UNIT, ("*", "*")) is f
    assert then(f, ident) is f
    assert (f, ident) in then.table


def test_a_clear_empties_every_table():
    # Every memoised operation registers its table, whichever module
    # defines it, and a clear reaches them all.
    importlib.import_module("bicat.cli")
    assert len(_TABLES) > 1
    for table in _TABLES:
        table[("not cleared",)] = None
    clear_table()
    assert not any(_TABLES)


def _weak():
    """The keys of the values that outlived a clear, held weakly."""
    return {key for key, value in _VALUES.items() if type(value) is _Ref}


def test_a_value_dropped_within_its_unit_is_freed_at_the_next_clear():
    clear_table()
    old = _weak()
    X = FinSet(("p0", "p1"))
    f = SetFn(X, X, ("p1", "p0"))
    gone = weakref.ref(f)
    key = (FinSet, ("p0", "p1"))
    # A young value is held strongly, with no weak reference, until the
    # clear that ends its unit.
    assert _VALUES[key] is X and len(_VALUES) == len(old) + 2
    del X, f
    assert gone() is not None
    clear_table()
    assert gone() is None and key not in _VALUES and _weak() == old
    # An equal value built afterwards is a new object, interned afresh.
    Z = FinSet(("p0", "p1"))
    assert Z.elements == ("p0", "p1") and _VALUES[key] is Z


def test_a_value_held_across_a_clear_is_then_held_weakly():
    clear_table()
    old = _weak()
    X = FinSet(("q0", "q1"))
    key = (FinSet, ("q0", "q1"))
    clear_table()
    assert _weak() == old | {key} and _VALUES[key]() is X
    # A rebuild returns the survivor and interns nothing.
    assert FinSet(["q0", "q1"]) is X and _weak() == old | {key}
    assert len(_VALUES) == len(old) + 1
    del X
    assert key not in _VALUES and _weak() == old


def test_a_young_component_of_a_survivor_survives_with_it():
    clear_table()
    old = _weak()
    X = FinSet(("r0", "r1"))
    f = SetFn(X, X, ("r1", "r0"))
    held_only_by_f = weakref.ref(X)
    del X
    clear_table()
    X = held_only_by_f()
    assert X is f.domain and _VALUES[(FinSet, ("r0", "r1"))]() is X
    assert FinSet(("r0", "r1")) is X and SetFn(X, X, ("r1", "r0")) is f
    assert len(_weak() - old) == 2 == len(_VALUES) - len(old)
    # Both entries go when the survivor dies: its own, then its component's.
    del X, f
    assert held_only_by_f() is None and _weak() == old


def test_a_weak_value_freed_by_the_sweep_leaves_the_table():
    # The newest weak entry is popped before the sweep knows it is weak,
    # and freeing the strong value popped just before can free its value.
    clear_table()
    old = _weak()
    X = FinSet(("t0", "t1"))
    clear_table()
    f = SetFn(X, X, ("t1", "t0"))
    del X, f
    clear_table()
    key = (FinSet, ("t0", "t1"))
    assert key not in _VALUES and _weak() == old
    # So a rebuild is a young value again, which the next clear frees.
    assert FinSet(("t0", "t1")) is _VALUES[key]
    clear_table()
    assert key not in _VALUES and _weak() == old


def test_the_sweep_frees_what_only_its_table_holds():
    # The threshold is measured, not assumed: a lone entry is freed, and
    # an entry with one referrer besides the table is kept, weakly.
    table = {0: set()}
    assert _sweep(_DEAD, table) == (1, []) and not table
    kept = set()
    table = {0: kept}
    assert _sweep(_DEAD, table) == (1, [(0, table[0])])
    assert table[0]() is kept


def test_the_sweep_stops_at_the_weak_entries():
    # Strong entries follow weak ones, so the sweep stops at the first
    # weak entry it pops and leaves the weak entries as they were.
    old, young = set(), set()
    table = {"old": old, "dropped": set(), "young": young}
    found, kept = _sweep(_DEAD, table)
    assert found == 3 and [key for key, _ in kept] == ["young", "old"]
    assert table["young"]() is young and table["old"]() is old
    table["new"] = new = set()
    found, kept = _sweep(_DEAD, table)
    assert found == 1 and [key for key, _ in kept] == ["new"]
    assert list(table) == ["young", "old", "new"]
    assert [ref() for ref in table.values()] == [young, old, new]


class _Holder:
    """A value stand-in that can hold another."""


def test_a_value_freed_later_in_the_same_sweep_leaves_the_table():
    # The young value is kept because the older one holds it; freeing the
    # older one frees it before its weak entry is in the table, where its
    # ``_drop`` would have found it.
    old, older, young = set(), _Holder(), _Holder()
    older.young = young
    table = {"old": old, "older": older, "young": young}
    del older, young
    found, _ = _sweep(_DEAD, table)
    assert found == 3 and list(table) == ["old"] and table["old"]() is old


def test_invalid_values_raise_on_every_call():
    FinSet(("a", "b"))
    X = FinSet(("a",))
    SetFn(X, X, ("a",))
    for _ in range(2):
        # FinSet stores its entry before it validates, and takes it back.
        # With the collector off, no other value can leave the table here.
        gc.disable()
        try:
            size = len(_VALUES)
            with pytest.raises(ValueError, match="duplicate"):
                FinSet(("a", "a"))
            assert len(_VALUES) == size
        finally:
            gc.enable()
        with pytest.raises(ValueError, match="not in codomain"):
            SetFn(X, X, ("b",))
        with pytest.raises(ValueError, match="cover"):
            SetFn(X, X, ("a", "a"))


def test_unit_outlives_a_clear():
    clear_table()
    fresh = FinSet(("*",))
    assert fresh is UNIT
    assert SetFn.constant(fresh, UNIT, "*") == SetFn.identity(UNIT)


def test_invalid_values_name_the_first_offender():
    X = FinSet(("a", "b", "c"))
    SetFn(X, X, ("a", "b", "c"))
    for _ in range(2):
        # Neighbours of the bad values are interned first, so a lookup that
        # wrongly hit the table would return them instead of raising.
        FinSet(("a", ("p", "q"), "b"))
        SetFn(X, X, ("c", "b", "a"))
        with pytest.raises(ValueError,
                           match=r"^duplicate element \(p,q\)$"):
            FinSet(("a", ("p", "q"), "b", ("p", "q"), "a"))
        with pytest.raises(ValueError, match=r"^value \(z,z\) not in codomain$"):
            SetFn(X, X, ("c", ("z", "z"), "y"))
        clear_table()
        X = FinSet(("a", "b", "c"))


def test_inverse_refuses_non_bijections_around_a_valid_one():
    X, Y = FinSet(("x0", "x1")), FinSet(("y0", "y1"))
    not_injective = SetFn(X, Y, ("y0", "y0"))
    not_surjective = SetFn(X, FinSet(("y0", "y1", "y2")), ("y1", "y0"))
    for _ in range(2):
        for bad in (not_injective, not_surjective):
            with pytest.raises(ValueError,
                               match="^inverse of a non-bijective function$"):
                bad.inverse()
        # A valid neighbour and its inverse are interned between the rounds.
        valid = SetFn(X, Y, ("y1", "y0"))
        assert valid.inverse() == SetFn(Y, X, ("x1", "x0"))
        assert valid.inverse().then(valid) == SetFn.identity(Y)
