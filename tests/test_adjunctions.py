"""Adjunctions, composite adjunctions and mates, and the pasting chains
they are built from."""

import functools
import itertools
import math
import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn, canonical_carrier, clear_table
from bicat.gen import carrier, map_cell
from bicat.kernel import (Adjunction, AdjunctionMismatch, check_adjunction,
                          compose_adjunctions, mate_to_primary,
                          mate_to_secondary, right_mate_of_map_cell)
from bicat.spans import Span, reverse

INSTANCES = (span_instance(), rel_instance())


def test_map_adjunction_triangles():
    rng = random.Random(2)
    for B in INSTANCES:
        checked = 0
        for _ in range(60):
            X = carrier(rng, "x", 4)
            A = carrier(rng, "a", 4)
            m = map_cell(B, rng, X, A)
            if m is None:
                continue
            assert check_adjunction(B, B.map_adjunction(m)) is None
            checked += 1
        assert checked > 20


def test_is_map_agrees_with_its_definition_on_every_small_one_cell():
    # A map relation relates each source element to exactly one target
    # element; a map span's left leg hits each source element exactly once.
    fibre = {"rel": lambda R, x: [a for a in R.target if (x, a) in R],
             "span": lambda R, x: [s for s in R.apex if R.left(s) == x]}
    # Maps X -> A: the functions, and on spans each with every bijective
    # naming of its apex.
    maps = {"rel": lambda n, m: m ** n,
            "span": lambda n, m: math.factorial(n) * m ** n}
    for B in INSTANCES:
        found = expected = 0
        for n, m in itertools.product(range(3), repeat=2):
            X, A = canonical_carrier("x", n), canonical_carrier("a", m)
            for R in B.one_cells(X, A, 3):
                is_map = all(len(fibre[B.name](R, x)) == 1 for x in X)
                assert R.is_map() == is_map, (B.name, R)
                found += is_map
            expected += maps[B.name](n, m)
        assert found == expected, B.name


def test_check_adjunction_rejects_bad_boundaries():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    m = B.graph(SetFn.constant(X, A, "a0"))
    adj = B.map_adjunction(m)
    for unit, counit, side in ((adj.counit, adj.unit, "unit"),
                               (adj.unit, adj.unit, "counit")):
        wrong = Adjunction(adj.left, adj.right, unit, counit)
        with pytest.raises(AdjunctionMismatch, match="^%s boundary does not "
                           "match the adjunction$" % side):
            check_adjunction(B, wrong)


def test_non_map_span_fails_the_left_triangle():
    # On rel every 2-cell equation holds, because relations are locally
    # posetal: parallel 2-cells are equal.  The triangle kinds can therefore
    # be reached only on spans.  R has a two-point apex over one point on
    # each side, so its left leg is not injective and R is not a map.
    B = span_instance()
    X, A = FinSet(("x0",)), FinSet(("a0",))
    apex = FinSet(("s0", "s1"))
    R = Span(X, A, apex, SetFn.constant(apex, X, "x0"),
             SetFn.constant(apex, A, "a0"))
    Rs = reverse(R)
    assert not R.is_map()
    units = list(B.hom_cells(B.identity(X), B.comp(R, Rs)))
    counits = list(B.hom_cells(B.comp(Rs, R), B.identity(A)))
    assert (len(units), len(counits)) == (4, 1)
    for unit in units:
        adj = Adjunction(R, Rs, unit, counits[0])
        assert check_adjunction(B, adj)["kind"] == "left-triangle"


def test_composed_adjunctions_still_satisfy_triangles():
    rng = random.Random(8)
    for B in INSTANCES:
        done = 0
        while done < 10:
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            L = carrier(rng, "l", 3)
            f = map_cell(B, rng, X, A)
            g = map_cell(B, rng, A, L)
            if f is None or g is None:
                continue
            both = compose_adjunctions(B, B.map_adjunction(f),
                                       B.map_adjunction(g))
            assert both.left == B.comp(f, g)
            assert check_adjunction(B, both) is None
            done += 1


def test_mates_are_mutually_inverse():
    rng = random.Random(21)
    for B in INSTANCES:
        done = 0
        while done < 15:
            X, Y = carrier(rng, "x", 3), carrier(rng, "y", 3)
            A, C = carrier(rng, "a", 3), carrier(rng, "c", 3)
            f = map_cell(B, rng, X, Y)
            u = map_cell(B, rng, A, C)
            if f is None or u is None:
                continue
            S = B.one_cell(rng, Y, C, 3)
            adj = B.map_adjunction(u)
            E = B.comp(f, B.comp(S, adj.right))
            R, beta = B.thin(rng, E)

            alpha = mate_to_primary(B, beta, R, S, f, adj)
            assert alpha.dom == B.comp(R, u)
            assert alpha.cod == B.comp(f, S)
            assert mate_to_secondary(B, alpha, R, S, f, adj) == beta
            done += 1


def test_mate_rejects_boundary_mismatch():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    m = B.graph(SetFn.constant(X, A, "a0"))
    adj = B.map_adjunction(m)
    # The identity on 1_X has the right domain but the wrong codomain for
    # a secondary cell against (R, S, f) = (1_X, 1_A, m).
    # It is no primary cell either, nor a cell between m and m.
    wrong = B.id2(B.identity(X))
    with pytest.raises(AdjunctionMismatch,
                       match="^secondary cell boundary mismatch$"):
        mate_to_primary(B, wrong, B.identity(X), B.identity(A), m, adj)
    with pytest.raises(AdjunctionMismatch,
                       match="^primary cell boundary mismatch$"):
        mate_to_secondary(B, wrong, B.identity(X), B.identity(A), m, adj)
    with pytest.raises(AdjunctionMismatch, match="^cell boundary does not "
                                                 "match the adjunctions$"):
        right_mate_of_map_cell(B, wrong, adj, adj)


def test_right_mate_reverses_direction():
    rng = random.Random(77)
    B = span_instance()
    done = 0
    while done < 10:
        X = carrier(rng, "x", 3)
        A = carrier(rng, "a", 3)
        m = map_cell(B, rng, X, A)
        if m is None:
            continue
        # The only cell from a map to itself is the identity, so use it;
        # direction reversal is still visible in the boundaries.
        psi = B.id2(m)
        adj = B.map_adjunction(m)
        star = right_mate_of_map_cell(B, psi, adj, adj)
        assert star.dom == adj.right and star.cod == adj.right
        assert star == B.id2(adj.right)
        done += 1


def _chain(B, *links):
    """A pasting chain written out: the left fold of ``B.vcomp``, which
    makes no use of the shortcuts of ``B.vc``."""
    return functools.reduce(B.vcomp, links)


def test_across_the_identity_adjunction_mates_and_composites_are_their_argument():
    # Every link of these pastings is an identity cell, so the general
    # chain, written out here as the mates and compose_adjunctions write
    # it, is the argument; the shortcut must return exactly that.
    rng = random.Random(39)
    for B in INSTANCES:
        done = 0
        while done < 12:
            # Without a clear each case would find the last one's results.
            clear_table()
            X, Y, A = (carrier(rng, p, 3) for p in "xya")
            f = map_cell(B, rng, X, Y)
            if f is None:
                continue
            one = B.identity(A)
            adj = B.map_adjunction(one)
            S = B.one_cell(rng, Y, A, 3)
            R, beta = B.thin(rng, B.comp(f, S))
            # Across 1_A -| 1_A, comp(S, 1_A) is S and comp(R, 1_A) is R, so
            # beta is a secondary and a primary cell at once.
            assert beta.cod == B.comp(f, B.comp(S, one))
            assert beta.dom == B.comp(R, one)
            to_primary = _chain(
                B, B.whisker_right(beta, one),
                B.assoc(f, B.comp(S, one), one),
                B.whisker_left(f, B.assoc(S, one, one)),
                B.whisker_left(f, B.whisker_left(S, adj.counit)))
            to_secondary = _chain(
                B, B.whisker_left(R, adj.unit), B.assoc_inv(R, one, one),
                B.whisker_right(beta, one), B.assoc(f, S, one))
            assert mate_to_primary(B, beta, R, S, f, adj) == to_primary == beta
            assert (mate_to_secondary(B, beta, R, S, f, adj) == to_secondary
                    == beta)

            adj_f = B.map_adjunction(f)
            for first, second in ((B.map_adjunction(B.identity(X)), adj_f),
                                  (adj_f, B.map_adjunction(B.identity(Y)))):
                g, gs = first.left, first.right
                h, hs = second.left, second.right
                left, right = B.comp(g, h), B.comp(hs, gs)
                unit = _chain(
                    B, first.unit,
                    B.whisker_left(g, B.whisker_right(second.unit, gs)),
                    B.whisker_left(g, B.assoc(h, hs, gs)),
                    B.assoc_inv(g, h, right))
                counit = _chain(
                    B, B.assoc(hs, gs, left),
                    B.whisker_left(hs, B.assoc_inv(gs, g, h)),
                    B.whisker_left(hs, B.whisker_right(first.counit, h)),
                    second.counit)
                both = compose_adjunctions(B, first, second)
                assert both == Adjunction(left, right, unit, counit) == adj_f
            done += 1
        # The identity adjunction on another carrier composes with nothing
        # here: the refusal is the general construction's.
        Z = FinSet(("z0",))
        with pytest.raises(ValueError, match="non-composable"):
            compose_adjunctions(B, B.map_adjunction(B.identity(Z)),
                                B.map_adjunction(B.identity(X)))


def _links_out_of(B, rng, R, n):
    """``n`` composable cells out of ``R``: identities, inclusions into
    thickenings and endo-cells, at random."""
    links = []
    for _ in range(n):
        step = rng.randrange(3)
        if step == 0:
            links.append(B.id2(R))
        elif step == 1:
            R, inclusion = B.thicken(rng, R, 1)
            links.append(inclusion)
        else:
            links.append(rng.choice(
                list(itertools.islice(B.hom_cells(R, R), 8))))
    return links


def test_a_pasting_chain_is_the_fold_of_its_vertical_composites():
    rng = random.Random(40)
    for B in INSTANCES:
        for _ in range(40):
            X, A = carrier(rng, "x", 3), carrier(rng, "a", 3)
            R = B.one_cell(rng, X, A, 3)
            _, into = B.thin(rng, R)
            links = [into, *_links_out_of(B, rng, R, rng.randint(0, 7))]
            assert B.vc(*links) == _chain(B, *links)
        # A link that does not start where the one before it ends is refused
        # with vcomp's message, between identity links too.
        X, A, E = FinSet(("x0",)), FinSet(("a0",)), FinSet(())
        empty = B.comp(B.local_terminal(X, E), B.local_terminal(E, A))
        stray = (B.id2(empty), B.tau(empty), B.id2(empty))
        message = "^vertical composite of non-composable 2-cells$"
        with pytest.raises(ValueError, match=message):
            B.vc(*stray)
        with pytest.raises(ValueError, match=message):
            _chain(B, *stray)
