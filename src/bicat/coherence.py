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
written down as raw label surgery.  Each naturality law is one function
for both levels.

The coherence side of the theorem is one question asked of pairs of
routes.  A route is a list of trees over leaf names, the carriers or
1-cells looked up by name, so a braid of two equal carriers is still a
step.  Each tree is one step from the next: an associator ``((a, b), c)
-> (a, (b, c))`` or a braid ``(a, b) -> (b, a)`` at one subtree, tensored
with identities on the rest; :func:`route` composes the steps, and a route
of one tree is the identity.  :data:`ROUTES` holds the pairs the report
checks: the syllepsis, the symmetry, a hexagon, the two four-factor
rebracketings and the pentagon.  :func:`route_cells` finds every cell
between the two routes of a pair that is compatible with the mediators
into the flat product of the leaves, the end's cone legs permuted back by
the route's leaf permutation; in the bicategory of maps of both instances
there is at most one.  On squares, the pair of carrier fillers at the
ends of the two pasted four-factor routes must be an invertible 2-cell
between them.  Verdicts are as in :mod:`bicat.kernel`.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .fin import UNIT
from .mapprod import (ProductCone, bang, map_iso, maps_isomorphic, pair_map,
                      pinned_cells, product_object, times_on_arrows)
from . import groth
from .groth import g_compose, g_identity, g_pair, g_tensor, g_terminal


# --- levels ------------------------------------------------------------------

class Level(namedtuple("Level",
                       "cone pair comp identity times unit bang ends")):
    """The operations the bracketing trees need from one level: a chosen
    product ``cone(X, Y) -> (vertex, (p, r))``, the arrow ``pair(f, g)``
    into the product of the targets that the legs take to ``f`` and ``g``,
    the product ``times(f, g)`` of two arrows, the terminal object ``unit``
    with ``bang(X)`` into it, and ``ends(f) -> (source, target)``."""
    __slots__ = ()


def maps(B) -> Level:
    """Carriers and the maps between them."""
    def cone(X, Y):
        c = product_object(B, X, Y)
        return c.vertex, c.legs

    return Level(cone, functools.partial(pair_map, B), B.comp, B.identity,
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
        return pair(g_compose(B, t.proj1, a1), g_compose(B, t.proj2, a2))

    return Level(cone, pair, functools.partial(g_compose, B),
                 functools.partial(g_identity, B), times, g_terminal(B),
                 functools.partial(groth.g_bang, B), lambda a: (a.dom, a.cod))


# --- bracketing trees --------------------------------------------------------

def leaves(tree) -> tuple:
    """The leaves of ``tree``, left to right."""
    if not isinstance(tree, tuple):
        return (tree,)
    return leaves(tree[0]) + leaves(tree[1])


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
    return ProductCone(vertex, legs or (L.identity(vertex),), leaves(tree))


def mediate_into(L, legs, tree):
    """The arrow classified by a flattened cone: sends the legs' common
    source into ``tree`` so that its cone's legs recover them."""
    legs = tuple(legs)
    if len(legs) != len(leaves(tree)):
        raise ValueError("cone arity does not match the bracketing")
    return _mediate(L, iter(legs), tree)


def _mediate(L, legs, tree):
    # ``legs`` is an iterator: the left subtree takes its legs first.
    if not isinstance(tree, tuple):
        return next(legs)
    return L.pair(_mediate(L, legs, tree[0]), _mediate(L, legs, tree[1]))


def rebracket(L, src, tgt):
    """The equivalence between two bracketings of the same leaves."""
    return mediate_into(L, bracket_cone(L, src).legs, tgt)


# --- associativity, units and the braid -------------------------------------

def assoc_map(L, X, Y, Z):
    """The rebracketing equivalence ``(X x Y) x Z -> X x (Y x Z)``."""
    return rebracket(L, ((X, Y), Z), (X, (Y, Z)))


def left_unit_map(L, X):
    """``I x X -> X``: the second projection, an equivalence."""
    return L.cone(L.unit, X)[1][1]


def right_unit_map(L, X):
    """``X -> X x I``: the pairing of the identity with the terminal arrow."""
    return L.pair(L.identity(X), L.bang(X))


def braid(L, X, Y):
    """The swap ``s : X x Y -> Y x X`` mediated through the swapped cone."""
    p, r = L.cone(X, Y)[1]
    return L.pair(r, p)


# --- routes ------------------------------------------------------------------

#: Pairs of routes with the same ends, over the leaf names of their first
#: tree; each must have exactly one compatible cell, an invertible one.
#: Read with its arrows reversed, the second hexagon is the first one on
#: relabelled leaves.
ROUTES = {
    "syllepsis": ((("x", "y"),),
                  (("x", "y"), ("y", "x"), ("x", "y"))),
    "symmetry": ((("x", "y"), ("y", "x")),
                 (("x", "y"), ("y", "x"), ("x", "y"), ("y", "x"))),
    "hexagon": (((("x", "y"), "z"), ("x", ("y", "z")), (("y", "z"), "x"),
                 ("y", ("z", "x"))),
                ((("x", "y"), "z"), (("y", "x"), "z"), ("y", ("x", "z")),
                 ("y", ("z", "x")))),
    "rebracket": (((((("x", "y"), "z"), "w"), (("x", ("y", "z")), "w"),
                   ("x", (("y", "z"), "w")), ("x", ("y", ("z", "w"))))),
                  (((("x", "y"), "z"), "w"), (("x", "y"), ("z", "w")),
                   ("x", ("y", ("z", "w"))))),
    "pentagon": ((((((("x", "y"), "z"), "u"), "v"),
                   ((("x", ("y", "z")), "u"), "v"),
                   (("x", (("y", "z"), "u")), "v"),
                   (("x", ("y", ("z", "u"))), "v"),
                   ("x", (("y", ("z", "u")), "v")),
                   ("x", ("y", (("z", "u"), "v"))),
                   ("x", ("y", ("z", ("u", "v")))))),
                 ((((("x", "y"), "z"), "u"), "v"),
                  ((("x", "y"), "z"), ("u", "v")),
                  (("x", "y"), ("z", ("u", "v"))),
                  ("x", ("y", ("z", ("u", "v")))))),
}


def _at(env, tree):
    """``tree`` with each leaf name replaced by its value in ``env``."""
    if not isinstance(tree, tuple):
        return env[tree]
    return _at(env, tree[0]), _at(env, tree[1])


def _vertex(L, env, tree):
    """The product of the values of ``tree``'s leaves, bracketed as it is."""
    if not isinstance(tree, tuple):
        return env[tree]
    return L.cone(_vertex(L, env, tree[0]), _vertex(L, env, tree[1]))[0]


def _step(L, env, t1, t2):
    """The one step from ``t1`` to ``t2``, trees over the names of ``env``,
    tensored with identities on the subtrees it leaves alone; ``ValueError``
    unless ``t2`` is ``t1`` with one subtree ``((a, b), c)`` rebracketed to
    ``(a, (b, c))`` or one subtree ``(a, b)`` braided to ``(b, a)``."""
    if isinstance(t1, tuple) and isinstance(t2, tuple):
        if isinstance(t1[0], tuple) and t2 == (t1[0][0], (t1[0][1], t1[1])):
            a, (b, c) = t2
            return assoc_map(L, *(_vertex(L, env, t) for t in (a, b, c)))
        if t2 == (t1[1], t1[0]):
            return braid(L, *(_vertex(L, env, t) for t in t1))
        if t1[0] == t2[0]:
            return L.times(L.identity(_vertex(L, env, t1[0])),
                           _step(L, env, t1[1], t2[1]))
        if t1[1] == t2[1]:
            return L.times(_step(L, env, t1[0], t2[0]),
                           L.identity(_vertex(L, env, t1[1])))
    raise ValueError("trees are not one step apart")


def route(L, trees, values):
    """The composite of the steps along ``trees``, at ``values``: one per
    leaf of the first tree, in order.  A route of one tree is its identity."""
    env = dict(zip(leaves(trees[0]), values))
    steps = [_step(L, env, t1, t2) for t1, t2 in zip(trees, trees[1:])]
    if not steps:
        return L.identity(_vertex(L, env, trees[0]))
    return functools.reduce(L.comp, steps)


def route_cells(B, L, routes, values):
    """The two routes ``m``, ``n`` of the pair ``routes`` at ``values``
    (see :func:`route`) on ``L``, the level of ``B``'s maps, and every
    ``g : m -> n`` whose whiskering with ``v`` is ``alpha`` followed by the
    inverse of ``beta``: ``(m, n, cells)`` in ``hom_cells`` order.  Here
    ``u`` mediates from the start's cone into the flat product of the
    leaves, ``v`` from the end's cone with its legs in the start's leaf
    order, and ``alpha : comp(m, v) -> u``, ``beta : comp(n, v) -> u``.
    When a route's composite is not isomorphic to ``u``, returns
    ``{"kind": "not-mediated", "route": "m" | "n"}`` instead."""
    start, end = routes[0][0], routes[0][-1]
    env = dict(zip(leaves(start), values))
    src, tgt = (bracket_cone(L, _at(env, t)) for t in (start, end))
    legs = dict(zip(leaves(end), tgt.legs))
    flat = functools.reduce(lambda t, leaf: (t, leaf), src.factors)
    u = mediate_into(L, src.legs, flat)
    v = mediate_into(L, (legs[name] for name in leaves(start)), flat)
    m, n = (route(L, trees, values) for trees in routes)
    composites = B.comp(m, v), B.comp(n, v)
    for name, composite in zip("mn", composites):
        if not maps_isomorphic(composite, u):
            return {"kind": "not-mediated", "route": name}
    alpha, beta = (map_iso(B, composite, u) for composite in composites)
    pin = (v, B.vcomp(alpha, B.invert(beta)))
    return m, n, list(pinned_cells(B, m, n, (pin,)))


# --- naturality, at either level ----------------------------------------------

def braid_natural(L, f, g) -> bool:
    """The braid commutes with the product of two arrows."""
    (fs, ft), (gs, gt) = L.ends(f), L.ends(g)
    return (L.comp(L.times(f, g), braid(L, ft, gt))
            == L.comp(braid(L, fs, gs), L.times(g, f)))


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
                   ("braid", braid(L, R, S)),
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
    routes, arrows = ROUTES["rebracket"], (R, S, T, U)
    fillers = []
    for ends in ([a.source for a in arrows], [a.target for a in arrows]):
        found = route_cells(B, maps(B), routes, ends)
        if isinstance(found, dict):
            return found
        if len(found[2]) != 1:
            return {"kind": "non-unique" if found[2] else "no-solution"}
        fillers.append(found)
    (sm, sn, (src,)), (tm, tn, (tgt,)) = fillers
    M, N = (route(squares(B), trees, arrows) for trees in routes)
    if not (M.f == sm and N.f == sn and M.u == tm and N.u == tn):
        return {"kind": "frames-mismatch"}
    try:
        cell = groth.g_cell(B, M, N, src, tgt)
    except ValueError as exc:
        return {"kind": "not-a-cell", "error": str(exc)}
    if not groth.g_cell_invertible(B, cell):
        return {"kind": "not-invertible"}
    return None
