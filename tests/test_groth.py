"""Squares over the base instance: the arrow-layer bicategory and its tensor."""

import random

import pytest

from bicat import groth, kernel, rel_instance, span_instance
from bicat.fin import UNIT, FinSet, SetFn, clear_table, set_fn
from bicat.gen import carrier, map_cell
from bicat.groth import (GArr, dunit_iso, g_bang, g_cell,
                         g_cell_invertible, g_compose, g_diag, g_identity,
                         g_is_equivalence, g_map_arrow, g_pair, g_tensor,
                         g_terminal, garr_from_primary,
                         garr_from_secondary, paste_vertical, secondary)
from bicat.kernel import NotAMap
from bicat.mapprod import pairing
from bicat.rels import Rel

INSTANCES = (span_instance(), rel_instance())


def _mate_of_primary(B, a):
    """``a``'s secondary form derived from its primary through the kernel,
    not read back from the memo."""
    return kernel.mate_to_secondary(B, a.primary, a.dom, a.cod, a.f,
                                    B.map_adjunction(a.u))


def _inclusion_square(B, rng, R):
    """A square R => R1 with identity frames given by thickening R."""
    R1, inc = B.thicken(rng, R, 1)
    return garr_from_primary(B, R, R1,
                             B.identity(R.source), B.identity(R.target), inc)


def test_square_keeps_only_its_primary_filler():
    B = rel_instance()
    X = FinSet(("x0", "x1"))
    R = B.identity(X)
    a = g_identity(B, R)
    assert GArr._fields == ("dom", "cod", "f", "u", "primary")
    rebuilt = GArr(a.dom, a.cod, a.f, a.u, a.primary)
    assert a == rebuilt
    assert hash(a) == hash(rebuilt)


def test_equal_squares_share_one_memo_entry():
    # Squares compare by value, so a separately built equal square finds the
    # composite its twin stored.
    for B in INSTANCES:
        a = g_identity(B, B.identity(FinSet(("x0", "x1"))))
        rebuilt = GArr(*a)
        assert rebuilt is not a and rebuilt == a
        first = g_compose(B, a, a)
        assert g_compose(B, rebuilt, rebuilt) is first
        assert len(g_compose.table) == 1
        clear_table()


def test_tensor_witnesses_compare_by_identity():
    B = span_instance()
    R = B.identity(FinSet(("x0", "x1")))
    first = g_tensor(B, R, R)
    clear_table()
    again = g_tensor(B, R, R)
    assert again is not first and again != first
    assert (again.obj, again.proj1, again.proj2) == (
        first.obj, first.proj1, first.proj2)
    assert len({first, again}) == 2


def test_wrapping_init_sees_every_construction(monkeypatch):
    # An operation count can wrap ``__init__`` of the values and squares, as
    # ``bench/tracer.py`` does: the wrapper passes the constructor's
    # arguments on and runs once per object built.
    built = {cls: [] for cls in (FinSet, SetFn, GArr)}
    for cls, seen in built.items():
        def counted(self, *args, orig=cls.__init__, seen=seen, **kwargs):
            seen.append(self)
            orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    B = span_instance()
    R = B.identity(FinSet(("x0", "x1")))
    tens = g_tensor(B, R, R)
    # The tensor alone builds no square: its projections wait to be read.
    assert built[GArr] == []
    projections = [id(tens.proj1), id(tens.proj2)]
    assert [id(a) for a in built[GArr]] == projections
    assert built[FinSet] and built[SetFn]


def test_primary_and_secondary_views_agree():
    rng = random.Random(3)
    for B in INSTANCES:
        done = 0
        while done < 15:
            X, Y = carrier(rng, "x", 3), carrier(rng, "y", 3)
            A, C = carrier(rng, "a", 3), carrier(rng, "c", 3)
            f = map_cell(B, rng, X, Y)
            u = map_cell(B, rng, A, C)
            if f is None or u is None:
                continue
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, Y, C, 3)
            cells = list(B.hom_cells(B.comp(R, u), B.comp(f, S)))
            if not cells:
                continue
            a = garr_from_primary(B, R, S, f, u, cells[0])
            again = garr_from_secondary(B, R, S, f, u, secondary(B, a))
            assert again.primary == a.primary
            assert again == a
            done += 1


def _square_and_secondary(B, rng):
    """A random square built from its primary, with its secondary form."""
    while True:
        X, Y = carrier(rng, "x", 2), carrier(rng, "y", 2)
        A, C = carrier(rng, "a", 2), carrier(rng, "c", 2)
        f = map_cell(B, rng, X, Y)
        u = map_cell(B, rng, A, C)
        if f is None or u is None:
            continue
        R = B.one_cell(rng, X, A, 3)
        S = B.one_cell(rng, Y, C, 3)
        cells = list(B.hom_cells(B.comp(R, u), B.comp(f, S)))
        if cells:
            a = garr_from_primary(B, R, S, f, u, cells[-1])
            return a, _mate_of_primary(B, a)


def test_a_square_keeps_the_secondary_it_was_built_from(monkeypatch):
    # The mates are a bijection: the cell a square was built from is its
    # secondary form, read back with no mate taken.  A square built from
    # its primary derives that form, once per unit.
    derived = []
    mate = groth.mate_to_secondary
    monkeypatch.setattr(groth, "mate_to_secondary",
                        lambda *args: derived.append(args) or mate(*args))
    rng = random.Random(11)
    for B in INSTANCES:
        for _ in range(5):
            a, sec = _square_and_secondary(B, rng)
            clear_table()
            built = garr_from_secondary(B, a.dom, a.cod, a.f, a.u, sec)
            assert built == a
            assert secondary(B, built) is sec
            assert derived == []
            clear_table()
            assert secondary(B, a) is sec
            assert secondary(B, a) is sec
            assert len(derived) == 1
            derived.clear()


def test_projections_are_built_once_each_when_first_read(monkeypatch):
    built = []
    build = groth.garr_from_secondary

    def counted(B, dom, cod, f, u, cell):
        built.append(cod)
        return build(B, dom, cod, f, u, cell)

    monkeypatch.setattr(groth, "garr_from_secondary", counted)
    for B in INSTANCES:
        R = B.identity(FinSet(("x0", "x1")))
        S = B.identity(FinSet(("y0",)))
        tens = g_tensor(B, R, S)
        assert built == []
        first = tens.proj1
        assert built == [R]
        assert tens.proj1 is first and g_tensor(B, R, S).proj1 is first
        second = tens.proj2
        assert tens.proj2 is second
        # Any other unset name is an AttributeError and builds nothing.
        with pytest.raises(AttributeError, match="^proj3$"):
            tens.proj3
        assert built == [R, S]
        # A new unit has a new witness, which builds its own projections.
        clear_table()
        again = g_tensor(B, R, S)
        assert again.proj2 == second and again.proj1 == first
        assert built == [R, S, S, R]
        built.clear()
        clear_table()


def test_square_constructor_rejections():
    B = rel_instance()
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    R = Rel(X, A, (("x0", "a0"),))
    partial = Rel(X, X, (("x0", "x0"),))
    with pytest.raises(NotAMap):
        garr_from_primary(B, R, R, partial, B.identity(A), B.id2(R))
    with pytest.raises(ValueError):
        # Identity filler has the wrong boundary once a frame is not identity.
        garr_from_primary(B, B.identity(X), B.identity(X),
                          B.graph(SetFn.constant(X, X, "x0")),
                          B.identity(X), B.id2(B.identity(X)))


def test_map_arrow_squares_compose_like_maps():
    rng = random.Random(13)
    for B in INSTANCES:
        done = 0
        while done < 15:
            X, Y, Z = (carrier(rng, p, 3) for p in "xyz")
            fns = set_fn(rng, X, Y), set_fn(rng, Y, Z)
            if None in fns:
                continue
            f, g = map(B.graph, fns)
            composite = g_compose(B, g_map_arrow(B, f), g_map_arrow(B, g))
            assert composite == g_map_arrow(B, B.comp(f, g))
            done += 1


def test_compose_and_paste_boundaries():
    rng = random.Random(23)
    for B in INSTANCES:
        done = 0
        while done < 10:
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            C = carrier(rng, "c", 3)
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, A, C, 3)
            a1 = _inclusion_square(B, rng, R)
            a2 = _inclusion_square(B, rng, a1.cod)
            h = g_compose(B, a1, a2)
            assert h.dom == R and h.cod == a2.cod
            assert h.f == B.identity(X) and h.u == B.identity(A)
            b1 = _inclusion_square(B, rng, S)
            stacked = paste_vertical(B, a1, b1)
            assert stacked.dom == B.comp(R, S)
            assert stacked.cod == B.comp(a1.cod, b1.cod)
            done += 1
        with pytest.raises(ValueError):
            g_compose(B, a1, b1)
        with pytest.raises(ValueError):
            paste_vertical(B, a1, a2)


def test_square_two_cells_validate_and_compose():
    rng = random.Random(33)
    for B in INSTANCES:
        done = 0
        while done < 10:
            X = carrier(rng, "x", 2)
            A = carrier(rng, "a", 2)
            R = B.one_cell(rng, X, A, 2)
            a = _inclusion_square(B, rng, R)
            ident = g_cell(B, a, a, B.id2(a.f), B.id2(a.u))
            assert g_cell_invertible(B, ident)
            done += 1
        # Mismatched frame cells must be refused.
        X = FinSet(("x0", "x1"))
        R = B.identity(X)
        swap = B.graph(SetFn(X, X, ("x1", "x0")))
        a = g_identity(B, R)
        b = garr_from_primary(B, R, R, swap, swap,
                              next(iter(B.hom_cells(B.comp(R, swap),
                                                    B.comp(swap, R)))))
        refused = ((g_bang(B, R), B.id2(a.f), B.id2(a.u),
                    "squares are not parallel"),
                   (b, B.id2(a.f), B.id2(a.u),
                    "first frame cell has the wrong boundary"),
                   (a, B.id2(a.f), B.id2(swap),
                    "second frame cell has the wrong boundary"))
        for cod, phi, psi, message in refused:
            with pytest.raises(ValueError, match="^%s$" % message):
                g_cell(B, a, cod, phi, psi)


def test_equivalence_report():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    R = B.identity(X)
    assert g_is_equivalence(B, g_identity(B, R)) is None
    report = g_is_equivalence(B, g_bang(B, R))
    assert report["kind"] == "frame-not-equivalence"
    assert report["frame"] == "f"


def test_tensor_projection_squares():
    rng = random.Random(43)
    for B in INSTANCES:
        done = 0
        while done < 8:
            X, Y = carrier(rng, "x", 2), carrier(rng, "y", 2)
            A, C = carrier(rng, "a", 2), carrier(rng, "c", 2)
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, Y, C, 2)
            tens = g_tensor(B, R, S)
            assert tens.obj.source == X.product(Y)
            assert tens.obj.target == A.product(C)
            assert tens.proj1.cod == R and tens.proj2.cod == S
            assert tens.proj1.f == tens.src_cone.legs[0]
            assert tens.proj2.u == tens.tgt_cone.legs[1]
            done += 1


def test_pairing_the_projections_gives_the_identity_square():
    rng = random.Random(53)
    for B in INSTANCES:
        done = 0
        while done < 8:
            X, Y = carrier(rng, "x", 2), carrier(rng, "y", 2)
            A, C = carrier(rng, "a", 2), carrier(rng, "c", 2)
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, Y, C, 2)
            tens = g_tensor(B, R, S)
            arrow = g_pair(B, tens, tens.proj1, tens.proj2)
            assert arrow == g_identity(B, tens.obj)
            # The cells as the tensor-pairing-projections row builds them.
            a1, a2 = tens.proj1, tens.proj2
            _, mu0, nu0 = pairing(B, a1.f, a2.f)
            _, mu1, nu1 = pairing(B, a1.u, a2.u)
            c1 = g_cell(B, g_compose(B, arrow, a1), a1, mu0, mu1)
            c2 = g_cell(B, g_compose(B, arrow, a2), a2, nu0, nu1)
            assert g_cell_invertible(B, c1) and g_cell_invertible(B, c2)
            done += 1


def test_pair_rejects_malformed_cones():
    B = rel_instance()
    X = FinSet(("x0",))
    A = FinSet(("a0", "a1"))
    R = Rel(X, A, (("x0", "a0"),))
    S = Rel(X, A, (("x0", "a1"),))
    tens = g_tensor(B, R, S)
    with pytest.raises(ValueError,
                       match="^cone legs do not land in the tensor factors$"):
        g_pair(B, tens, tens.proj2, tens.proj1)
    other = g_identity(B, B.identity(X))
    with pytest.raises(ValueError,
                       match="^cone legs have different domain objects$"):
        g_pair(B, tens, tens.proj1, other)


def test_terminal_and_bang():
    for B in INSTANCES:
        assert g_terminal(B) == B.identity(UNIT)
        X = FinSet(("x0", "x1"))
        A = FinSet(("a0",))
        R = B.graph(SetFn.constant(X, A, "a0"))
        sq = g_bang(B, R)
        assert sq.dom == R and sq.cod == g_terminal(B)
        assert _mate_of_primary(B, sq) == B.tau(R)


def test_diagonal_square_and_unit_comparison(monkeypatch):
    built = []

    def recording(B, dom, cod, f, u, cell):
        built.append((garr_from_secondary(B, dom, cod, f, u, cell), cell))
        return built[-1][0]

    # g_diag builds one square from a secondary cell, the g_pair arrow, and
    # no projection square; each square must derive back to the cell it
    # came from, the projections too when read afterwards.
    monkeypatch.setattr(groth, "garr_from_secondary", recording)
    rng = random.Random(63)
    for B in INSTANCES:
        done = 0
        while done < 6:
            # Each case is its own unit: a tensor memoised by an earlier
            # case would build no squares to record.
            clear_table()
            X = carrier(rng, "x", 2)
            A = carrier(rng, "a", 2)
            R = B.one_cell(rng, X, A, 2)
            S = B.one_cell(rng, X, A, 2)
            built.clear()
            d = g_diag(B, R)
            tens = g_tensor(B, R, R)
            assert d.dom == R and d.cod == tens.obj
            assert [a for a, _ in built] == [d]
            assert _mate_of_primary(B, d) == built[0][1]
            for proj, cell in ((tens.proj1, tens.wedge.proj1),
                               (tens.proj2, tens.wedge.proj2)):
                assert _mate_of_primary(B, proj) == cell
            iso = dunit_iso(B, R, S)
            assert B.is_invertible(iso)
            assert iso.cod == B.local_product(R, S).product
            done += 1
        with pytest.raises(ValueError):
            dunit_iso(B, B.identity(FinSet(("x0",))),
                      B.identity(FinSet(("y0",))))
