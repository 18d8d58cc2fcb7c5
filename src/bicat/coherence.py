"""Symmetric-monoidal constraint data, built componentwise and verified.

Carrier level: a nested product is a bracketing tree, a carrier (a leaf)
or a pair of trees.  :func:`bracket_cone` is its product cone, one leg per
leaf, and :func:`mediate_into` sends a flat cone into any tree, so every
rebracketing, unit and swap map is mediated through product cones, never
written down as raw label surgery.  A route is a list of bracketings, each
one associator from the next; :func:`route` composes those associators.
The syllepsis is the unique fill of the two braid-triangle pastings
against the binary cone.  The quadruple rebracketing filler is the unique
cell between two routes that is compatible with the mediators into the
left-nested flat product of the leaves; the pentagon check counts those
cells between the six-step and three-step routes through five factors and
confirms there is exactly one, which forces the two pastings to agree.

Arrow level: the same cells lifted to squares.  Associativity, unitors and
the braiding become squares built by pairing projection cones through the
tensor, so their carrier frames are exactly the maps above; the pair of
quadruple fillers at sources and targets is then checked to be a genuine
2-cell between the two pasted square routes.  The checkers answer with the
verdicts set out in :mod:`bicat.kernel`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

from .fin import UNIT, FinSet
from .mapprod import (FillError, ProductCone, bang, fill2, map_iso, pairing,
                      pinned_cells, product_object, times_on_arrows)
from . import groth
from .groth import g_compose, g_identity, g_pair, g_tensor, g_terminal


# --- bracketing trees --------------------------------------------------------

def _leaves(tree) -> tuple:
    if isinstance(tree, FinSet):
        return (tree,)
    return _leaves(tree[0]) + _leaves(tree[1])


def _carrier(tree) -> FinSet:
    if isinstance(tree, FinSet):
        return tree
    return _carrier(tree[0]).product(_carrier(tree[1]))


def bracket_cone(B, tree) -> ProductCone:
    """The nested product ``tree`` as a cone with one leg per leaf."""
    if isinstance(tree, FinSet):
        return ProductCone(tree, (B.identity(tree),), (tree,))
    left, right = (bracket_cone(B, t) for t in tree)
    cone = product_object(B, left.vertex, right.vertex)
    p, r = cone.legs
    legs = (tuple(B.comp(p, leg) for leg in left.legs)
            + tuple(B.comp(r, leg) for leg in right.legs))
    return ProductCone(cone.vertex, legs, left.factors + right.factors)


def mediate_into(B, legs, tree):
    """The map classified by a flattened cone: sends the legs' common
    source into ``tree`` so that its cone's legs recover them."""
    legs = tuple(legs)
    if len(legs) != len(_leaves(tree)):
        raise ValueError("cone arity does not match the bracketing")
    if isinstance(tree, FinSet):
        return legs[0]
    split = len(_leaves(tree[0]))
    h, _, _ = pairing(B, mediate_into(B, legs[:split], tree[0]),
                      mediate_into(B, legs[split:], tree[1]))
    return h


def rebracket(B, src, tgt):
    """The equivalence between two bracketings of the same leaves."""
    return mediate_into(B, bracket_cone(B, src).legs, tgt)


# --- associativity and units --------------------------------------------------

def assoc_map(B, X, Y, Z):
    """The rebracketing equivalence ``(X x Y) x Z -> X x (Y x Z)``."""
    return rebracket(B, ((X, Y), Z), (X, (Y, Z)))


def _step(B, t1, t2):
    """The one associator from ``t1`` to ``t2``, tensored with identities on
    the subtrees it leaves alone; ``ValueError`` unless ``t2`` is ``t1``
    with one subtree ``((a, b), c)`` rebracketed to ``(a, (b, c))``."""
    if isinstance(t1, tuple) and isinstance(t2, tuple):
        if isinstance(t1[0], tuple) and t2 == (t1[0][0], (t1[0][1], t1[1])):
            a, (b, c) = t2
            return assoc_map(B, _carrier(a), _carrier(b), _carrier(c))
        if t1[0] == t2[0]:
            return times_on_arrows(B, B.identity(_carrier(t1[0])),
                                   _step(B, t1[1], t2[1]))
        if t1[1] == t2[1]:
            return times_on_arrows(B, _step(B, t1[0], t2[0]),
                                   B.identity(_carrier(t1[1])))
    raise ValueError("bracketings are not one associator apart")


def route(B, *trees):
    """The composite of the associators along a route of bracketings."""
    return functools.reduce(B.comp, (_step(B, t1, t2)
                                     for t1, t2 in zip(trees, trees[1:])))


def left_unit_map(B, X):
    """``I x X -> X``: the second projection, an equivalence."""
    return product_object(B, UNIT, X).legs[1]


def right_unit_map(B, X):
    """``X -> X x I``: the pairing of the identity with the terminal map."""
    h, _, _ = pairing(B, B.identity(X), bang(B, X))
    return h


# --- braiding, syllepsis, symmetry -------------------------------------------

def braid(B, X, Y):
    """The swap ``s : X x Y -> Y x X`` mediated through the swapped cone,
    with the invertible comparisons ``mu : comp(s, r') -> p`` and
    ``nu : comp(s, p') -> r`` its universal property provides."""
    p, r = product_object(B, X, Y).legs
    s, c1, c2 = pairing(B, r, p)
    return s, c2, c1


def syllepsis_data(B, X, Y):
    """The unique cell ``sigma : 1 -> comp(s, s')`` filling the two pasted
    braid triangles against the binary cone.

    Returns ``(sigma, phi, psi)`` where ``phi`` and ``psi`` are the
    pastings it must project onto.
    """
    cone = product_object(B, X, Y)
    p, r = cone.legs
    s, mu, nu = braid(B, X, Y)
    ss, mus, nus = braid(B, Y, X)
    phi = B.vc(B.invert(mu),
               B.whisker_left(s, B.invert(nus)),
               B.assoc_inv(s, ss, p))
    psi = B.vc(B.invert(nu),
               B.whisker_left(s, B.invert(mus)),
               B.assoc_inv(s, ss, r))
    sigma = fill2(B, B.identity(cone.vertex), B.comp(s, ss), phi, psi, cone)
    return sigma, phi, psi


def symmetry_holds(B, X, Y) -> bool:
    """The self-inverse equation for the braid cell."""
    s, _, _ = braid(B, X, Y)
    sigma = syllepsis_data(B, X, Y)[0]
    sigma_s = syllepsis_data(B, Y, X)[0]
    return B.whisker_right(sigma, s) == B.whisker_left(s, sigma_s)


# --- the quadruple rebracketing filler ----------------------------------------

@dataclass(frozen=True)
class QuadFiller:
    """The two rebracketing routes through four factors with the unique
    compatible cell between them."""
    m: Any
    n: Any
    cell: Any


def _route_cells(B, m_trees, n_trees):
    """Two routes ``m``, ``n`` with the same ends, and every ``g : m -> n``
    whose whiskering with ``v`` is ``alpha`` followed by the inverse of
    ``beta``, for ``alpha : comp(m, v) -> u`` and ``beta : comp(n, v) -> u``
    where ``u``, ``v`` mediate from the ends into the flat product."""
    m, n = route(B, *m_trees), route(B, *n_trees)
    src, tgt = bracket_cone(B, m_trees[0]), bracket_cone(B, m_trees[-1])
    flat = functools.reduce(lambda t, leaf: (t, leaf), src.factors)
    u = mediate_into(B, src.legs, flat)
    v = mediate_into(B, tgt.legs, flat)
    alpha = map_iso(B, B.comp(m, v), u)
    beta = map_iso(B, B.comp(n, v), u)
    pin = (v, B.vcomp(alpha, B.invert(beta)))
    return m, n, list(pinned_cells(B, m, n, (pin,)))


def quad_assoc_filler(B, X, Y, Z, W) -> QuadFiller:
    """The unique compatible cell between the three-step and two-step
    routes ``((X x Y) x Z) x W -> X x (Y x (Z x W))``; raises
    :class:`~bicat.mapprod.FillError` when there is none or several."""
    m, n, cells = _route_cells(
        B, ((((X, Y), Z), W), ((X, (Y, Z)), W), (X, ((Y, Z), W)),
            (X, (Y, (Z, W)))),
        ((((X, Y), Z), W), ((X, Y), (Z, W)), (X, (Y, (Z, W)))))
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


# --- carrier-level naturality (sampled) ---------------------------------------

def braid_map_natural(B, f, g) -> bool:
    s_src, _, _ = braid(B, f.source, g.source)
    s_tgt, _, _ = braid(B, f.target, g.target)
    return (B.comp(times_on_arrows(B, f, g), s_tgt)
            == B.comp(s_src, times_on_arrows(B, g, f)))


def assoc_map_natural(B, f, g, h) -> bool:
    a_src = assoc_map(B, f.source, g.source, h.source)
    a_tgt = assoc_map(B, f.target, g.target, h.target)
    lhs = B.comp(times_on_arrows(B, times_on_arrows(B, f, g), h), a_tgt)
    rhs = B.comp(a_src, times_on_arrows(B, f, times_on_arrows(B, g, h)))
    return lhs == rhs


def unit_map_natural(B, f) -> bool:
    one = B.identity(UNIT)
    left = (B.comp(times_on_arrows(B, one, f), left_unit_map(B, f.target))
            == B.comp(left_unit_map(B, f.source), f))
    right = (B.comp(f, right_unit_map(B, f.target))
             == B.comp(right_unit_map(B, f.source), times_on_arrows(B, f, one)))
    return left and right


# --- arrow-level constraint squares -------------------------------------------

def g_tensor_arr(B, a1: groth.GArr, a2: groth.GArr) -> groth.GArr:
    """The tensor of two squares: pair the projected-and-composed cone."""
    t_dom = g_tensor(B, a1.dom, a2.dom)
    t_cod = g_tensor(B, a1.cod, a2.cod)
    leg1 = g_compose(B, t_dom.proj1, a1)
    leg2 = g_compose(B, t_dom.proj2, a2)
    arrow, _, _ = g_pair(B, t_cod, leg1, leg2)
    return arrow


def g_braid_arrow(B, R, S) -> groth.GArr:
    t = g_tensor(B, R, S)
    t_sw = g_tensor(B, S, R)
    arrow, _, _ = g_pair(B, t_sw, t.proj2, t.proj1)
    return arrow


def g_left_unit_arrow(B, R) -> groth.GArr:
    return g_tensor(B, g_terminal(B), R).proj2


def g_right_unit_arrow(B, R) -> groth.GArr:
    tens = g_tensor(B, R, g_terminal(B))
    arrow, _, _ = g_pair(B, tens, g_identity(B, R), groth.g_bang(B, R))
    return arrow


def g_assoc_arrow(B, R, S, T) -> groth.GArr:
    tRS = g_tensor(B, R, S)
    W = g_tensor(B, tRS.obj, T)
    legR = g_compose(B, W.proj1, tRS.proj1)
    legS = g_compose(B, W.proj1, tRS.proj2)
    legT = W.proj2
    tST = g_tensor(B, S, T)
    inner, _, _ = g_pair(B, tST, legS, legT)
    outer = g_tensor(B, R, tST.obj)
    arrow, _, _ = g_pair(B, outer, legR, inner)
    return arrow


def g_constraints_invertible(B, R, S, T):
    """All four constraint squares at (R, S, T) are equivalences: ``None``,
    or the first failing square's :func:`~bicat.groth.g_is_equivalence`
    verdict with ``"constraint"`` naming the square."""
    squares = (("assoc", g_assoc_arrow(B, R, S, T)),
               ("braid", g_braid_arrow(B, R, S)),
               ("left_unit", g_left_unit_arrow(B, R)),
               ("right_unit", g_right_unit_arrow(B, R)))
    for name, arrow in squares:
        verdict = groth.g_is_equivalence(B, arrow)
        if verdict is not None:
            return dict(verdict, constraint=name)
    return None


def g_braid_natural(B, a1: groth.GArr, a2: groth.GArr) -> bool:
    """Strict naturality of the braid square in both arguments."""
    lhs = g_compose(B, g_tensor_arr(B, a1, a2),
                    g_braid_arrow(B, a1.cod, a2.cod))
    rhs = g_compose(B, g_braid_arrow(B, a1.dom, a2.dom),
                    g_tensor_arr(B, a2, a1))
    return lhs == rhs


def modification_pair_check(B, R, S, T, U):
    """The two pasted square routes through four tensor factors differ by
    the pair of carrier fillers: that pair must satisfy the square 2-cell
    equation, giving an invertible 2-cell between the routes.  Returns
    ``None`` or a violation naming the first condition that fails."""
    tST = g_tensor(B, S, T)
    tTU = g_tensor(B, T, U)
    tRS = g_tensor(B, R, S)
    iR, iU = g_identity(B, R), g_identity(B, U)
    M = g_compose(B, g_compose(B,
                               g_tensor_arr(B, g_assoc_arrow(B, R, S, T), iU),
                               g_assoc_arrow(B, R, tST.obj, U)),
                  g_tensor_arr(B, iR, g_assoc_arrow(B, S, T, U)))
    N = g_compose(B, g_assoc_arrow(B, tRS.obj, T, U),
                  g_assoc_arrow(B, R, S, tTU.obj))
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
