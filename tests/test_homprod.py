"""Products and terminals inside a single hom-category."""

import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn
from bicat.gen import carrier, map_cell
from bicat.homprod import is_product_diagram, transport_cell, transport_hom

INSTANCES = (span_instance(), rel_instance())


def test_wedge_universal_property_enumerated():
    # Independent check: for every test 1-cell T (small apex), every cone
    # (T -> R, T -> S) factors through the wedge exactly once.
    rng = random.Random(4)
    for B in INSTANCES:
        for _ in range(12):
            X = carrier(rng, "x", 2)
            A = carrier(rng, "a", 2)
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, X, A, 3)
            w = B.local_product(R, S)
            tests = list(B.one_cells(X, A, 2))
            assert is_product_diagram(B, w.product, w.proj1, w.proj2,
                                      R, S, tests) is None


def test_wedge_pairing_recovers_inclusions():
    rng = random.Random(14)
    for B in INSTANCES:
        for _ in range(25):
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            R = B.one_cell(rng, X, A, 4)
            S = B.one_cell(rng, X, A, 4)
            w = B.local_product(R, S)
            T, inc = B.thin(rng, w.product)
            med = w.pair(B.vcomp(inc, w.proj1), B.vcomp(inc, w.proj2))
            assert med == inc


def test_local_terminal_has_exactly_one_cell_from_everything():
    rng = random.Random(24)
    for B in INSTANCES:
        for X_n in range(3):
            for A_n in range(3):
                X = FinSet("x%d" % i for i in range(X_n))
                A = FinSet("a%d" % i for i in range(A_n))
                top = B.local_terminal(X, A)
                tests = list(B.one_cells(X, A, 2))
                for T in tests:
                    assert list(B.hom_cells(T, top)) == [B.tau(T)]


def test_terminal_composite_collapses_through_the_unit():
    # Composing the chosen terminal around the unit carrier gives back the
    # chosen terminal on the nose, whatever the shape.
    from bicat.fin import UNIT
    from bicat.mapprod import bang
    for B in INSTANCES:
        for X_n in range(3):
            for A_n in range(3):
                X = FinSet("x%d" % i for i in range(X_n))
                A = FinSet("a%d" % i for i in range(A_n))
                t_X = bang(B, X)
                t_A_star = B.map_adjunction(bang(B, A)).right
                middle = B.local_terminal(UNIT, UNIT)
                built = B.comp(t_X, B.comp(middle, t_A_star))
                assert built == B.local_terminal(X, A)


def test_module_level_helpers_agree_with_instance_methods():
    rng = random.Random(34)
    for B in INSTANCES:
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        R = B.one_cell(rng, X, A, 3)
        w = B.local_product(R, R)
        d = w.pair(B.id2(R), B.id2(R))
        assert d.dom == R and d.cod == w.product


def test_transport_is_a_functor():
    rng = random.Random(54)
    for B in INSTANCES:
        done = 0
        while done < 12:
            X, Y = carrier(rng, "x", 3), carrier(rng, "y", 3)
            A, C = carrier(rng, "a", 3), carrier(rng, "c", 3)
            f = map_cell(B, rng, X, Y)
            u = map_cell(B, rng, A, C)
            if f is None or u is None:
                continue
            u_star = B.map_adjunction(u).right
            S = B.one_cell(rng, Y, C, 3)
            S1, al = B.thicken(rng, S, 1)
            _, be = B.thicken(rng, S1, 1)
            assert (transport_cell(B, f, B.id2(S), u_star)
                    == B.id2(transport_hom(B, f, S, u_star)))
            assert (transport_cell(B, f, B.vcomp(al, be), u_star)
                    == B.vcomp(transport_cell(B, f, al, u_star),
                               transport_cell(B, f, be, u_star)))
            done += 1


def test_product_diagram_check_spots_a_fake():
    from bicat.spans import Span
    B = span_instance()
    X = FinSet(("x0",))
    A = FinSet(("a0",))
    apex = FinSet(("p", "q"))
    to_x = SetFn.constant(apex, X, "x0")
    to_a = SetFn.constant(apex, A, "a0")
    R = Span(X, A, apex, to_x, to_a)
    w = B.local_product(R, R)
    # Claim R itself is the wedge, reusing its identity as both projections.
    # A cone whose two legs pick different apex points then has no mediator.
    fake = is_product_diagram(B, R, B.id2(R), B.id2(R), R, R,
                              list(B.one_cells(X, A, 2)))
    assert fake["kind"] == "no-mediator" and "test" in fake
    # Claim R is the wedge of a one-point S with itself, projecting both
    # apex points onto S's: the diagonal cone then has two mediators.
    one = FinSet(("p",))
    S = Span(X, A, one, SetFn.constant(one, X, "x0"),
             SetFn.constant(one, A, "a0"))
    collapse = next(iter(B.hom_cells(R, S)))
    many = is_product_diagram(B, R, collapse, collapse, S, S,
                              list(B.one_cells(X, A, 2)))
    assert many["kind"] == "many-mediators" and many["count"] == 2
    assert is_product_diagram(B, w.product, w.proj1, w.proj2, R, R,
                              list(B.one_cells(X, A, 2))) is None


@pytest.mark.parametrize("B", INSTANCES, ids=lambda B: B.name)
def test_local_products_refuse_what_is_not_a_cone(B):
    X, A, E = FinSet(("x0", "x1")), FinSet(("a0",)), FinSet(())
    R = B.local_terminal(X, A)
    empty = B.comp(B.local_terminal(X, E), B.local_terminal(E, A))
    w = B.local_product(empty, R)
    assert w.pair(B.id2(empty), B.tau(empty)) == B.id2(w.product)
    with pytest.raises(ValueError, match="^cone legs have different domains$"):
        w.pair(B.id2(empty), B.id2(R))
    with pytest.raises(ValueError,
                       match="^cone legs do not land in the two factors$"):
        w.pair(B.tau(empty), B.id2(empty))
    with pytest.raises(ValueError, match="^local product of non-parallel "
                                         "(spans|relations)$"):
        B.local_product(R, B.local_terminal(A, X))
