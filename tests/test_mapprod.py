"""Products of objects through maps: cones, pairings, fills."""

import itertools
import math
import random

import pytest

from bicat import rel_instance, span_instance
from bicat.coherence import bracket_cone, maps
from bicat.fin import (UNIT, FinSet, SetFn, all_functions, canonical_carrier,
                       clear_table, set_fn)
from bicat.gen import carrier, map_cell
from bicat.harness import _Corrupt
from bicat.kernel import NotAMap
from bicat.mapprod import (FillError, ProductCone, bang, bang_sides,
                           check_product_cone, diag, diag_sides, fill2, map_iso,
                           maps_isomorphic, pairing, product_object,
                           times_on_arrows)
from bicat.rels import Rel
from bicat.spans import Span

INSTANCES = (span_instance(), rel_instance())


def test_canonical_cone_is_built_once_per_unit():
    X, Y = FinSet(("x0", "x1")), FinSet(("y0",))
    for B in INSTANCES:
        cone = product_object(B, X, Y)
        assert product_object(B, X, Y) is cone
        assert product_object(B, Y, X) != cone
        clear_table()
        assert (B, X, Y) not in product_object.table
        # The cone is no interned value, so it is built again; its legs
        # are still referenced through ``cone``, so they come back.
        again = product_object(B, X, Y)
        assert again == cone and again is not cone
        assert again.legs[0] is cone.legs[0]
        assert (B, X, Y) in product_object.table


def test_ternary_product_flattens():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    Y = FinSet(("y0",))
    Z = FinSet(("z0", "z1"))
    cone = bracket_cone(maps(B), ((X, Y), Z))
    assert cone.factors == (X, Y, Z)
    assert check_product_cone(B, cone) is None
    assert len(cone.legs) == 3
    assert len(cone.vertex) == 4
    for leg, factor in zip(cone.legs, cone.factors):
        assert leg.source == cone.vertex and leg.target == factor
        assert leg.is_map()
    # Each leg really is the corresponding coordinate function.
    for v in cone.vertex:
        coords = []
        for leg in cone.legs:
            coords.append(leg.fn()(v))
    # Last vertex element decomposes into the last element of each factor.
    assert coords == ["x1", "y0", "z1"]


def test_pairing_identities_on_canonical_graphs():
    rng = random.Random(7)
    for B in INSTANCES:
        done = 0
        while done < 20:
            W = carrier(rng, "w", 3)
            X = carrier(rng, "x", 3)
            Y = carrier(rng, "y", 3)
            fns = set_fn(rng, W, X), set_fn(rng, W, Y)
            if None in fns:
                continue
            f, g = map(B.graph, fns)
            h, mu, nu = pairing(B, f, g)
            cone = product_object(B, X, Y)
            assert mu == B.id2(f) and nu == B.id2(g)
            assert B.comp(h, cone.legs[0]) == f
            assert B.comp(h, cone.legs[1]) == g
            done += 1


def test_pairing_tolerates_scrambled_maps():
    rng = random.Random(17)
    B = span_instance()
    done = 0
    while done < 20:
        W = carrier(rng, "w", 3)
        X = carrier(rng, "x", 3)
        f = map_cell(B, rng, W, X)
        g = map_cell(B, rng, W, X)
        if f is None or g is None:
            continue
        h, mu, nu = pairing(B, f, g)
        assert B.is_invertible(mu) and B.is_invertible(nu)
        assert mu.dom == B.comp(h, product_object(B, X, X).legs[0])
        assert mu.cod == f
        done += 1


def test_pairing_rejects_mismatched_sources():
    B = rel_instance()
    X = FinSet(("x0",))
    Y = FinSet(("y0",))
    with pytest.raises(ValueError):
        pairing(B, B.identity(X), B.identity(Y))


def test_times_on_arrows_is_pointwise():
    rng = random.Random(27)
    for B in INSTANCES:
        done = 0
        while done < 20:
            X = carrier(rng, "x", 3)
            Y = carrier(rng, "y", 3)
            A = carrier(rng, "a", 3)
            C = carrier(rng, "c", 3)
            f = map_cell(B, rng, X, A)
            g = map_cell(B, rng, Y, C)
            if f is None or g is None:
                continue
            fg = times_on_arrows(B, f, g)
            ffn, gfn = f.fn(), g.fn()
            expect = SetFn(X.product(Y), A.product(C),
                           ((ffn(x), gfn(y)) for (x, y) in X.product(Y)))
            assert fg == B.graph(expect)
            done += 1


def test_non_maps_are_refused():
    B = rel_instance()
    X = FinSet(("x0", "x1"))
    partial = Rel(X, X, (("x0", "x0"),))
    with pytest.raises(NotAMap):
        times_on_arrows(B, partial, B.identity(X))
    with pytest.raises(NotAMap):
        pairing(B, partial, partial)
    with pytest.raises(NotAMap):
        bang_sides(B, partial)


def test_map_iso_identity_and_failure():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    f = B.graph(SetFn.identity(X))
    assert map_iso(B, f, f) == B.id2(f)
    swap = B.graph(SetFn(X, X, ("x1", "x0")))
    assert not maps_isomorphic(f, swap)
    with pytest.raises(ValueError):
        map_iso(B, f, swap)


def test_bang_and_diag_squares():
    rng = random.Random(37)
    for B in INSTANCES:
        done = 0
        while done < 15:
            X = carrier(rng, "x", 3)
            A = carrier(rng, "a", 3)
            f = map_cell(B, rng, X, A)
            if f is None:
                continue
            nb, nd = (map_iso(B, *sides(B, f))
                      for sides in (bang_sides, diag_sides))
            assert nb.dom == B.comp(f, bang(B, A))
            assert nb.cod == bang(B, X)
            assert nd.dom == B.comp(f, diag(B, A))
            assert nd.cod == B.comp(diag(B, X), times_on_arrows(B, f, f))
            assert B.is_invertible(nb) and B.is_invertible(nd)
            done += 1
        assert bang(B, UNIT) == B.identity(UNIT)
        d = diag(B, FinSet(("x0", "x1")))
        assert d.fn()("x0") == ("x0", "x0")


def test_fill_round_trip():
    rng = random.Random(47)
    for B in INSTANCES:
        done = 0
        while done < 12:
            X = carrier(rng, "x", 2)
            A = carrier(rng, "a", 2)
            C = carrier(rng, "c", 2)
            cone = product_object(B, A, C)
            cells = []
            for T in B.one_cells(X, cone.vertex, 2):
                for U in B.one_cells(X, cone.vertex, 2):
                    cells.extend(B.hom_cells(T, U))
                    if len(cells) > 3:
                        break
                if len(cells) > 3:
                    break
            if not cells:
                continue
            gamma = cells[0]
            alpha = B.whisker_right(gamma, cone.legs[0])
            beta = B.whisker_right(gamma, cone.legs[1])
            assert fill2(B, gamma.dom, gamma.cod, alpha, beta, cone) == gamma
            done += 1


def test_fill_boundary_and_no_solution_errors():
    B = rel_instance()
    X = FinSet(("x0",))
    A = FinSet(("a0", "a1"))
    C = FinSet(("c0", "c1"))
    cone = product_object(B, A, C)
    T = Rel(X, cone.vertex, (("x0", ("a0", "c0")),))
    U = Rel(X, cone.vertex, (("x0", ("a0", "c1")), ("x0", ("a1", "c0"))))
    p, r = cone.legs
    alpha = next(iter(B.hom_cells(B.comp(T, p), B.comp(U, p))))
    beta = next(iter(B.hom_cells(B.comp(T, r), B.comp(U, r))))
    # Both projected containments hold, but T is not contained in U.
    # A FillError is a ValueError, so callers may catch either.
    with pytest.raises(ValueError) as info:
        fill2(B, T, U, alpha, beta, cone)
    assert type(info.value) is FillError
    assert info.value.args[0].startswith("no-solution")
    with pytest.raises(ValueError, match="^fill boundary mismatch$"):
        fill2(B, B.comp(T, p), U, alpha, beta, cone)
    with pytest.raises(ValueError,
                       match="^first cone cell has the wrong boundary$"):
        fill2(B, T, U, beta, alpha, cone)
    with pytest.raises(ValueError,
                       match="^second cone cell has the wrong boundary$"):
        fill2(B, T, U, alpha, alpha, cone)


def test_fill_against_a_forgetful_cone_is_non_unique():
    # Whiskering with a map leg is faithful, so a canonical cone pins at
    # most one fill.  A leg with an empty apex forgets every cell: both
    # cells from the identity into a doubled copy of it restrict to the
    # same pair of cone cells.
    B = span_instance()
    X, none, two = FinSet(("x0",)), FinSet(()), FinSet(("u0", "u1"))
    V = product_object(B, X, FinSet(("y0",))).vertex
    blind = Span(V, X, none, SetFn(none, V, ()), SetFn(none, X, ()))
    cone = ProductCone(V, (blind, blind), (X, X))
    T = B.identity(V)
    U = Span(V, V, two, SetFn.constant(two, V, ("x0", "y0")),
             SetFn.constant(two, V, ("x0", "y0")))
    assert len(list(B.hom_cells(T, U))) == 2
    alpha = B.id2(B.comp(T, blind))
    with pytest.raises(FillError) as info:
        fill2(B, T, U, alpha, alpha, cone)
    assert info.value.kind == "non-unique"


def test_collapsed_cone_is_rejected():
    B = span_instance()
    X = FinSet(("x0", "x1"))
    Y = FinSet(("y0",))
    squashed = ProductCone(Y, (B.identity(Y), B.identity(Y)), (Y, Y))
    verdict = check_product_cone(B, squashed)
    assert verdict is None  # Y x Y really is Y when Y is a point.
    crooked = ProductCone(X, (B.graph(SetFn.constant(X, X, "x0")),
                              B.identity(X)), (X, X))
    verdict = check_product_cone(B, crooked)
    assert verdict is not None
    assert verdict["kind"] == "not-essentially-surjective"


def _recounting_cone_check(B, cone):
    """``check_product_cone`` as it was before hom-set counts were shared:
    every pair of probe maps counts the cells between its leg composites
    again."""
    for leg in cone.legs:
        if not leg.is_map():
            return {"kind": "leg-not-a-map", "leg": leg}

    probes = [FinSet("a%d" % i for i in range(n)) for n in range(3)]
    for A in probes:
        reachable = {tuple(B.comp(B.graph(h), leg).fn() for leg in cone.legs)
                     for h in all_functions(A, cone.vertex)}
        for fns in itertools.product(
                *(tuple(all_functions(A, X)) for X in cone.factors)):
            if tuple(fns) not in reachable:
                return {
                    "kind": "not-essentially-surjective",
                    "test_carrier": A,
                    "cone_maps": tuple(fns),
                }

    for A in probes:
        maps = [B.graph(h) for h in all_functions(A, cone.vertex)]
        composites = [tuple(B.comp(m, leg) for leg in cone.legs) for m in maps]
        for Tm, Tlegs in zip(maps, composites):
            for Um, Ulegs in zip(maps, composites):
                direct = list(B.hom_cells(Tm, Um))
                legwise = [list(B.hom_cells(T, U)) for T, U in zip(Tlegs, Ulegs)]
                combined = math.prod(map(len, legwise))
                if len(direct) > 1 or combined > 1:
                    return {"kind": "hom-enumeration-broken", "pair": (Tm, Um)}
                if len(direct) != combined:
                    return {
                        "kind": "not-fully-faithful",
                        "pair": (Tm, Um),
                        "direct": len(direct),
                        "through_legs": combined,
                    }
    return None


def _hiding_cells(into):
    """A ``hom_cells`` corruption: no cell between 1-cells into ``into``."""
    return lambda B, R, S: (iter(()) if R.target == into
                            else B.hom_cells(R, S))


def test_cone_check_agrees_with_a_per_pair_recount():
    # Counting each pair of leg composites once changes no verdict: the
    # canonical cones, and cones or instances corrupted to give each kind.
    small = [canonical_carrier(p, n) for p in "xy" for n in range(3)]
    kinds = set()
    for B in INSTANCES:
        X, Y = small[2], small[5]
        doubled = _Corrupt(B, hom_cells=lambda B, R, S: (
            c for c in B.hom_cells(R, S) for _ in (0, 1)))
        cases = [(B, product_object(B, P, Q))
                 for P in small[:3] for Q in small[3:]]
        cases += [
            (doubled, product_object(B, X, Y)),
            (_Corrupt(B, hom_cells=_hiding_cells(X.product(Y))),
             product_object(B, X, Y)),
            (_Corrupt(B, hom_cells=_hiding_cells(X)), product_object(B, X, Y)),
            (B, ProductCone(X, (B.identity(X),
                                B.graph(SetFn.constant(X, Y, "y0"))), (X, Y))),
            (B, ProductCone(X, (B.identity(X), B.local_terminal(X, Y)),
                            (X, Y))),
        ]
        for inst, cone in cases:
            want = _recounting_cone_check(inst, cone)
            assert check_product_cone(inst, cone) == want, (B.name, cone)
            kinds.add(None if want is None else want["kind"])
        clear_table()
    assert kinds == {None, "hom-enumeration-broken", "not-fully-faithful",
                     "not-essentially-surjective", "leg-not-a-map"}
