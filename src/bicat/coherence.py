"""Symmetric-monoidal constraint data, built componentwise and verified.

The associator, braid and unitors come from finite products at two levels,
each a :class:`Level` of the operations it supplies: :func:`maps`
(carriers and maps) and :func:`squares` (1-cells and squares, with
:func:`~bicat.groth.g_tensor` as product).  A nested product is a
bracketing tree, a leaf (anything but a tuple: a carrier or a 1-cell,
never a record such as a cone, which is a named tuple) or a pair of trees.
:func:`bracket_cone` is its product cone, one leg per leaf, and
:func:`mediate_into` sends a flat cone into any tree, so every
rebracketing, unit and swap arrow is mediated through product cones, never
written down as raw label surgery.  A route is a list of bracketings, each
one associator from the next; :func:`route` composes those associators.
Each naturality law is one function for both levels.

On carriers, the syllepsis is the unique fill of the two braid-triangle
pastings against the binary cone.  The quadruple rebracketing filler is
the unique cell between two routes compatible with the mediators into the
left-nested flat product of the leaves; the pentagon check finds exactly
one such cell between the six-step and three-step routes through five
factors, which forces the two pastings to agree.  On squares, the pair of
carrier fillers at the ends of the two pasted four-factor routes must be
an invertible 2-cell between them.  Verdicts are as in :mod:`bicat.kernel`.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .fin import UNIT
from .mapprod import (FillError, ProductCone, bang, fill2, map_iso, pairing,
                      pinned_cells, product_object, times_on_arrows)
from . import groth
from .groth import g_compose, g_identity, g_pair, g_tensor, g_terminal


# --- levels ------------------------------------------------------------------

class Level(namedtuple("Level",
                       "cone pair comp identity times unit bang ends")):
    """The operations the bracketing trees need from one level: a chosen
    product ``cone(X, Y) -> (vertex, (p, r))``, ``pair(f, g) -> (h, c1,
    c2)`` into the product of the targets with its comparisons, the product
    ``times(f, g)`` of two arrows, the terminal object ``unit`` with
    ``bang(X)`` into it, and ``ends(f) -> (source, target)``."""
    __slots__ = ()


def maps(B) -> Level:
    """Carriers and the maps between them."""
    def cone(X, Y):
        c = product_object(B, X, Y)
        return c.vertex, c.legs

    return Level(cone, functools.partial(pairing, B), B.comp, B.identity,
                 functools.partial(times_on_arrows, B), UNIT,
                 functools.partial(bang, B), lambda f: (f.source, f.target))


def squares(B) -> Level:
    """1-cells and the squares between them, with the tensor as product."""
    def cone(R, S):
        t = g_tensor(B, R, S)
        return t.obj, (t.proj1, t.proj2)

    def pair(a1, a2):
        return g_pair(B, g_tensor(B, a1.cod, a2.cod), a1, a2)

    def times(a1, a2):
        t = g_tensor(B, a1.dom, a2.dom)
        return pair(g_compose(B, t.proj1, a1), g_compose(B, t.proj2, a2))[0]

    return Level(cone, pair, functools.partial(g_compose, B),
                 functools.partial(g_identity, B), times, g_terminal(B),
                 functools.partial(groth.g_bang, B), lambda a: (a.dom, a.cod))


# --- bracketing trees --------------------------------------------------------

def _leaves(tree) -> tuple:
    if not isinstance(tree, tuple):
        return (tree,)
    return _leaves(tree[0]) + _leaves(tree[1])


def _vertex(L, tree):
    if not isinstance(tree, tuple):
        return tree
    return L.cone(_vertex(L, tree[0]), _vertex(L, tree[1]))[0]


def _vertex_and_legs(L, tree):
    """A tree's vertex and cone legs, none for a leaf: the projection onto
    a leaf is its leg, not composed with the leaf's identity."""
    if not isinstance(tree, tuple):
        return tree, ()
    (v1, legs1), (v2, legs2) = (_vertex_and_legs(L, t) for t in tree)
    vertex, (p, r) = L.cone(v1, v2)
    return vertex, ((tuple(L.comp(p, leg) for leg in legs1) or (p,))
                    + (tuple(L.comp(r, leg) for leg in legs2) or (r,)))


def bracket_cone(L, tree) -> ProductCone:
    """The nested product ``tree`` as a cone with one leg per leaf; a lone
    leaf's one leg is its identity."""
    vertex, legs = _vertex_and_legs(L, tree)
    return ProductCone(vertex, legs or (L.identity(vertex),), _leaves(tree))


def mediate_into(L, legs, tree):
    """The arrow classified by a flattened cone: sends the legs' common
    source into ``tree`` so that its cone's legs recover them."""
    legs = tuple(legs)
    if len(legs) != len(_leaves(tree)):
        raise ValueError("cone arity does not match the bracketing")
    if not isinstance(tree, tuple):
        return legs[0]
    split = len(_leaves(tree[0]))
    return L.pair(mediate_into(L, legs[:split], tree[0]),
                  mediate_into(L, legs[split:], tree[1]))[0]


def rebracket(L, src, tgt):
    """The equivalence between two bracketings of the same leaves."""
    return mediate_into(L, bracket_cone(L, src).legs, tgt)


# --- associativity and units --------------------------------------------------

def assoc_map(L, X, Y, Z):
    """The rebracketing equivalence ``(X x Y) x Z -> X x (Y x Z)``."""
    return rebracket(L, ((X, Y), Z), (X, (Y, Z)))


def _step(L, t1, t2):
    """The one associator from ``t1`` to ``t2``, tensored with identities on
    the subtrees it leaves alone; ``ValueError`` unless ``t2`` is ``t1``
    with one subtree ``((a, b), c)`` rebracketed to ``(a, (b, c))``."""
    if isinstance(t1, tuple) and isinstance(t2, tuple):
        if isinstance(t1[0], tuple) and t2 == (t1[0][0], (t1[0][1], t1[1])):
            a, (b, c) = t2
            return assoc_map(L, _vertex(L, a), _vertex(L, b), _vertex(L, c))
        if t1[0] == t2[0]:
            return L.times(L.identity(_vertex(L, t1[0])),
                           _step(L, t1[1], t2[1]))
        if t1[1] == t2[1]:
            return L.times(_step(L, t1[0], t2[0]),
                           L.identity(_vertex(L, t1[1])))
    raise ValueError("bracketings are not one associator apart")


def route(L, *trees):
    """The composite of the associators along a route of bracketings."""
    return functools.reduce(L.comp, (_step(L, t1, t2)
                                     for t1, t2 in zip(trees, trees[1:])))


def left_unit_map(L, X):
    """``I x X -> X``: the second projection, an equivalence."""
    return L.cone(L.unit, X)[1][1]


def right_unit_map(L, X):
    """``X -> X x I``: the pairing of the identity with the terminal arrow."""
    return L.pair(L.identity(X), L.bang(X))[0]


# --- braiding, syllepsis, symmetry -------------------------------------------

def braid(L, X, Y):
    """The swap ``s : X x Y -> Y x X`` mediated through the swapped cone,
    with the invertible comparisons ``mu : comp(s, r') -> p`` and
    ``nu : comp(s, p') -> r`` its universal property provides."""
    p, r = L.cone(X, Y)[1]
    s, c1, c2 = L.pair(r, p)
    return s, c2, c1


def syllepsis_data(B, X, Y):
    """The unique cell ``sigma : 1 -> comp(s, s')`` filling the two pasted
    braid triangles against the binary cone.

    Returns ``(sigma, phi, psi)`` where ``phi`` and ``psi`` are the
    pastings it must project onto.
    """
    L = maps(B)
    cone = bracket_cone(L, (X, Y))
    p, r = cone.legs
    s, mu, nu = braid(L, X, Y)
    ss, mus, nus = braid(L, Y, X)
    phi = B.vc(B.invert(mu),
               B.whisker_left(s, B.invert(nus)),
               B.assoc_inv(s, ss, p))
    psi = B.vc(B.invert(nu),
               B.whisker_left(s, B.invert(mus)),
               B.assoc_inv(s, ss, r))
    sigma = fill2(B, B.identity(cone.vertex), B.comp(s, ss), phi, psi, cone)
    return sigma, phi, psi


def braid_syllepsis_holds(B, L, X, Y) -> bool:
    """The braid at the level ``L`` of ``B``'s maps has the comparisons
    ``mu``, ``nu`` of the swapped cone, and the syllepsis restricts to the
    braid-triangle pastings and is invertible."""
    p, r = L.cone(X, Y)[1]
    ps, rs = L.cone(Y, X)[1]
    s, mu, nu = braid(L, X, Y)
    sigma, phi, psi = syllepsis_data(B, X, Y)
    return (mu.dom == L.comp(s, rs) and mu.cod == p
            and nu.dom == L.comp(s, ps) and nu.cod == r
            and B.whisker_right(sigma, p) == phi
            and B.whisker_right(sigma, r) == psi and B.is_invertible(sigma))


def symmetry_holds(B, X, Y) -> bool:
    """The self-inverse equation for the braid cell."""
    s, _, _ = braid(maps(B), X, Y)
    sigma = syllepsis_data(B, X, Y)[0]
    sigma_s = syllepsis_data(B, Y, X)[0]
    return B.whisker_right(sigma, s) == B.whisker_left(s, sigma_s)


# --- the quadruple rebracketing filler ----------------------------------------

class QuadFiller(namedtuple("QuadFiller", "m n cell")):
    """The two rebracketing routes through four factors with the unique
    compatible cell between them."""
    __slots__ = ()


def _quad_routes(X, Y, Z, W):
    """The three-step and two-step routes of bracketings from
    ``((X x Y) x Z) x W`` to ``X x (Y x (Z x W))``."""
    start, end = (((X, Y), Z), W), (X, (Y, (Z, W)))
    return ((start, ((X, (Y, Z)), W), (X, ((Y, Z), W)), end),
            (start, ((X, Y), (Z, W)), end))


def _route_cells(B, m_trees, n_trees):
    """Two carrier routes ``m``, ``n`` with the same ends, and every
    ``g : m -> n`` whose whiskering with ``v`` is ``alpha`` followed by the
    inverse of ``beta``, for ``alpha : comp(m, v) -> u`` and
    ``beta : comp(n, v) -> u`` where ``u``, ``v`` mediate from the ends
    into the flat product."""
    L = maps(B)
    m, n = route(L, *m_trees), route(L, *n_trees)
    src, tgt = bracket_cone(L, m_trees[0]), bracket_cone(L, m_trees[-1])
    flat = functools.reduce(lambda t, leaf: (t, leaf), src.factors)
    u, v = (mediate_into(L, cone.legs, flat) for cone in (src, tgt))
    alpha = map_iso(B, B.comp(m, v), u)
    beta = map_iso(B, B.comp(n, v), u)
    pin = (v, B.vcomp(alpha, B.invert(beta)))
    return m, n, list(pinned_cells(B, m, n, (pin,)))


def quad_assoc_filler(B, X, Y, Z, W) -> QuadFiller:
    """The unique compatible cell between the three-step and two-step
    routes ``((X x Y) x Z) x W -> X x (Y x (Z x W))``; raises
    :class:`~bicat.mapprod.FillError` when there is none or several."""
    m, n, cells = _route_cells(B, *_quad_routes(X, Y, Z, W))
    if len(cells) != 1:
        raise FillError("non-unique" if cells else "no-solution",
                        "%d rebracketing fillers" % len(cells))
    return QuadFiller(m, n, cells[0])


def check_quad_assoc(B, X, Y, Z, W) -> bool:
    """Whether the unique rebracketing filler is invertible."""
    return B.is_invertible(quad_assoc_filler(B, X, Y, Z, W).cell)


def pentagon_unique(B, X, Y, Z, U, V):
    """The count of cells between the six-step and three-step routes
    through five factors that are compatible with the mediators into the
    flat product.  Both classical pastings are such cells, so a count of
    one settles their equality; ``hom_cells`` yields nothing between
    non-parallel routes, so it also says the routes are parallel."""
    start, end = ((((X, Y), Z), U), V), (X, (Y, (Z, (U, V))))
    six = (start, (((X, (Y, Z)), U), V), ((X, ((Y, Z), U)), V),
           ((X, (Y, (Z, U))), V), (X, ((Y, (Z, U)), V)),
           (X, (Y, ((Z, U), V))), end)
    three = (start, (((X, Y), Z), (U, V)), ((X, Y), (Z, (U, V))), end)
    return len(_route_cells(B, six, three)[2])


# --- naturality, at either level ----------------------------------------------

def braid_natural(L, f, g) -> bool:
    """The braid commutes with the product of two arrows."""
    (fs, ft), (gs, gt) = L.ends(f), L.ends(g)
    return (L.comp(L.times(f, g), braid(L, ft, gt)[0])
            == L.comp(braid(L, fs, gs)[0], L.times(g, f)))


def assoc_natural(L, f, g, h) -> bool:
    """The associator commutes with the products of three arrows."""
    (fs, ft), (gs, gt), (hs, ht) = L.ends(f), L.ends(g), L.ends(h)
    lhs = L.comp(L.times(L.times(f, g), h), assoc_map(L, ft, gt, ht))
    rhs = L.comp(assoc_map(L, fs, gs, hs), L.times(f, L.times(g, h)))
    return lhs == rhs


def unit_natural(L, f) -> bool:
    """Both unitors commute with the product of an arrow and the unit."""
    (fs, ft), one = L.ends(f), L.identity(L.unit)
    left = (L.comp(L.times(one, f), left_unit_map(L, ft))
            == L.comp(left_unit_map(L, fs), f))
    right = (L.comp(f, right_unit_map(L, ft))
             == L.comp(right_unit_map(L, fs), L.times(f, one)))
    return left and right


# --- square-level constraints -------------------------------------------------

def g_constraints_invertible(B, R, S, T):
    """All four constraint squares at (R, S, T) are equivalences: ``None``,
    or the first failing square's :func:`~bicat.groth.g_is_equivalence`
    verdict with ``"constraint"`` naming the square."""
    L = squares(B)
    constraints = (("assoc", assoc_map(L, R, S, T)),
                   ("braid", braid(L, R, S)[0]),
                   ("left_unit", left_unit_map(L, R)),
                   ("right_unit", right_unit_map(L, R)))
    for name, arrow in constraints:
        verdict = groth.g_is_equivalence(B, arrow)
        if verdict is not None:
            return dict(verdict, constraint=name)
    return None


def modification_pair_check(B, R, S, T, U):
    """The two pasted square routes through four tensor factors differ by
    the pair of carrier fillers: that pair must satisfy the square 2-cell
    equation, giving an invertible 2-cell between the routes.  Returns
    ``None`` or a violation naming the first condition that fails."""
    L = squares(B)
    M, N = (route(L, *trees) for trees in _quad_routes(R, S, T, U))
    src = quad_assoc_filler(B, R.source, S.source, T.source, U.source)
    tgt = quad_assoc_filler(B, R.target, S.target, T.target, U.target)
    if not (M.f == src.m and N.f == src.n and M.u == tgt.m and N.u == tgt.n):
        return {"kind": "frames-mismatch"}
    try:
        cell = groth.g_cell(B, M, N, src.cell, tgt.cell)
    except ValueError as exc:
        return {"kind": "not-a-cell", "error": str(exc)}
    if not groth.g_cell_invertible(B, cell):
        return {"kind": "not-invertible"}
    return None
