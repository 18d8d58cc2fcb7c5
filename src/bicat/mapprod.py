"""Finite products in the subbicategory of maps.

Maps (spans with bijective left leg, graphs of functions for relations) form
a category-like layer where binary products are carrier products, the
terminal object is the unit carrier, and pairings are built pointwise.  The
constructions here are chosen so that on canonical graph maps everything is
strict: pairing constraint cells, projection composites and naturality
squares of the terminal and diagonal transformations all come out as
identity 2-cells.  The canonical product cone of two carriers, the pairing
of two maps, the isomorphism between two maps, a cone's verdict and the
hom-set counts between leg composites it reads are memoised in the
per-unit memo of :mod:`bicat.fin`, so a unit builds each one once.  A
checker validates arbitrary candidate cones by brute force, which is what
gives the negative controls teeth.

A cell fixed by its whiskerings, as by a universal property, is found for
any instance by filtering ``hom_cells`` (:func:`pinned_cells`).
:class:`FillError` is the error of a failed fill (:func:`fill2`):
``no-solution`` when no cell fits, ``non-unique`` when several do.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .fin import FinSet, SetFn, UNIT, all_functions, memoised
from .kernel import require_map


class FillError(ValueError):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__("%s%s" % (kind, ": " + detail if detail else ""))
        self.kind = kind


class ProductCone(namedtuple("ProductCone", "vertex legs factors")):
    """A cone over ``factors``: a ``vertex`` with one leg into each."""
    __slots__ = ()


def maps_isomorphic(m1, m2) -> bool:
    """Maps are isomorphic exactly when their underlying functions agree."""
    return m1.fn() == m2.fn()


@memoised
def map_iso(B, m1, m2):
    """The unique invertible 2-cell between isomorphic maps.

    Identity on the nose when both maps are canonical graphs.
    """
    if not maps_isomorphic(m1, m2):
        raise ValueError("maps are not isomorphic")
    return next(B.hom_cells(m1, m2))


# --- canonical cones --------------------------------------------------------

@memoised
def product_object(B, X: FinSet, Y: FinSet) -> ProductCone:
    vertex = X.product(Y)
    p = B.graph(SetFn(vertex, X, (x for (x, y) in vertex)))
    r = B.graph(SetFn(vertex, Y, (y for (x, y) in vertex)))
    return ProductCone(vertex, (p, r), (X, Y))


@memoised
def pair_map(B, f, g):
    """``<f,g>`` into the canonical product of the targets: the map whose
    composites with the product's legs are ``f`` and ``g``."""
    require_map(f, g)
    if f.source != g.source:
        raise ValueError("pairing of maps with different sources")
    vertex = product_object(B, f.target, g.target).vertex
    ffn, gfn = f.fn(), g.fn()
    return B.graph(SetFn(f.source, vertex, zip(ffn.values, gfn.values)))


@memoised
def pairing(B, f, g):
    """``(f, g) -> <f,g>`` into the canonical product of the targets.

    Returns :func:`pair_map` and the two constraint cells
    ``comp(<f,g>, p) -> f`` and ``comp(<f,g>, r) -> g``; both are identities
    when f and g are canonical graphs.
    """
    h = pair_map(B, f, g)
    p, r = product_object(B, f.target, g.target).legs
    return h, map_iso(B, B.comp(h, p), f), map_iso(B, B.comp(h, r), g)


def times_on_arrows(B, f, g):
    """The product of two maps, ``X x Y -> A x B`` pointwise."""
    require_map(f, g)
    src = f.source.product(g.source)
    tgt = f.target.product(g.target)
    ffn, gfn = f.fn(), g.fn()
    return B.graph(SetFn(src, tgt, ((a, b) for a in ffn.values
                                    for b in gfn.values)))


def bang(B, X: FinSet):
    """The terminal map ``t_X : X -> I``."""
    return B.graph(SetFn.constant(X, UNIT, "*"))


def bang_sides(B, f):
    """The two sides of the terminal transformation's naturality square at
    a map ``f : X -> A``, ``comp(f, bang(A))`` and ``bang(X)``: the law is
    that they are isomorphic, and :func:`map_iso` is then the square."""
    require_map(f)
    return B.comp(f, bang(B, f.target)), bang(B, f.source)


def diag(B, X: FinSet):
    """The diagonal map ``d_X : X -> X x X``."""
    return pair_map(B, B.identity(X), B.identity(X))


def diag_sides(B, f):
    """The two sides of the diagonal's naturality square at a map, ``d . f``
    and ``(f x f) . d``, as for :func:`bang_sides`."""
    require_map(f)
    return (B.comp(f, diag(B, f.target)),
            B.comp(diag(B, f.source), times_on_arrows(B, f, f)))


# --- cells fixed by their whiskerings ---------------------------------------

def pinned_cells(B, T, U, pins):
    """The cells ``T -> U`` whose whiskering with each leg of ``pins``, a
    sequence of ``(leg, cell)``, is that cell; in ``hom_cells`` order."""
    for gamma in B.hom_cells(T, U):
        if all(B.whisker_right(gamma, leg) == cell for leg, cell in pins):
            yield gamma


def fill2(B, T, U, alpha, beta, cone: ProductCone):
    """The unique ``gamma : T -> U`` with ``gamma . p = alpha`` and
    ``gamma . r = beta`` (whiskering with the two cone legs), for parallel
    1-cells into the cone's vertex.

    Raises :class:`FillError` ``no-solution`` when no cell restricts to both
    cone cells and ``non-unique`` when several do, which needs legs that
    forget part of the vertex: whiskering with a map leg is faithful.
    """
    p, r = cone.legs
    if T.source != U.source or T.target != U.target or T.target != cone.vertex:
        raise ValueError("fill boundary mismatch")
    if alpha.dom != B.comp(T, p) or alpha.cod != B.comp(U, p):
        raise ValueError("first cone cell has the wrong boundary")
    if beta.dom != B.comp(T, r) or beta.cod != B.comp(U, r):
        raise ValueError("second cone cell has the wrong boundary")
    found = pinned_cells(B, T, U, ((p, alpha), (r, beta)))
    gamma = next(found, None)
    if gamma is None:
        raise FillError("no-solution", "no cell restricts to both cone cells")
    if next(found, None) is not None:
        raise FillError("non-unique", "two cells restrict to both cone cells")
    return gamma


@memoised
def check_product_cone(B, cone: ProductCone):
    """Validate a candidate product cone by exhaustive finite search.

    Essential surjectivity, fullness and faithfulness of the comparison are
    tested against every carrier of size at most 2, which keeps the pair
    enumeration exact but small.  Returns ``None`` when the cone is a
    product, else a violation (verdicts as in :mod:`bicat.kernel`).
    """
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
                direct = sum(1 for _ in B.hom_cells(Tm, Um))
                combined = math.prod(_hom_count(B, T, U)
                                     for T, U in zip(Tlegs, Ulegs))
                if direct > 1 or combined > 1:
                    # Maps have at most one 2-cell between them here; any
                    # other count means the enumeration itself broke.
                    return {"kind": "hom-enumeration-broken", "pair": (Tm, Um)}
                if direct != combined:
                    return {
                        "kind": "not-fully-faithful",
                        "pair": (Tm, Um),
                        "direct": direct,
                        "through_legs": combined,
                    }
    return None


@memoised
def _hom_count(B, T, U) -> int:
    """The number of 2-cells ``T -> U``.  Many probe maps of
    :func:`check_product_cone` share a leg composite, so it counts each
    pair of composites once; its pairs of probe maps never repeat."""
    return sum(1 for _ in B.hom_cells(T, U))
