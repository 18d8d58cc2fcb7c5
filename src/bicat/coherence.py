"""Symmetric-monoidal constraint data, built componentwise and verified.

Carrier level: the canonical rebracketing, unit, and swap maps between
product carriers are all mediated through product cones (never written
down as raw label surgery), each coming with the comparison cells its
universal property provides.  The syllepsis is the unique fill of the two
braid-triangle pastings against the binary cone; the quadruple
rebracketing filler is the unique cell compatible with the two mediators
into the flattened 4-ary product.  The pentagon check enumerates every
cone-compatible candidate between the six-step and three-step rebracketing
routes and confirms there is exactly one, which is the mechanism that
forces the two classical pastings to agree.

Arrow level: the same cells lifted to squares.  Associativity, unitors and
the braiding become squares built by pairing projection cones through the
tensor, so their carrier frames are exactly the maps above; the pair of
quadruple fillers at sources and targets is then checked to be a genuine
2-cell between the two pasted square routes.  The checkers answer with the
verdicts set out in :mod:`bicat.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .fin import UNIT
from .mapprod import (bang, fill2, map_iso, pairing, pinned_cells,
                      product_object, times_on_arrows)
from . import groth
from .groth import g_compose, g_identity, g_pair, g_tensor, g_terminal


# --- mediating maps between product shapes -----------------------------------

@dataclass(frozen=True)
class _Shape:
    """A nested binary product of carriers with its flattened legs."""
    carrier: Any
    legs: tuple
    left: Any = None
    right: Any = None


def shape_leaf(B, X) -> _Shape:
    return _Shape(X, (B.identity(X),))


def shape_prod(B, a: _Shape, b: _Shape) -> _Shape:
    cone = product_object(B, a.carrier, b.carrier)
    p, r = cone.legs
    legs = tuple(B.comp(p, leg) for leg in a.legs)
    legs += tuple(B.comp(r, leg) for leg in b.legs)
    return _Shape(cone.vertex, legs, a, b)


def shape_mediator(B, shape: _Shape):
    """The equivalence from a shape into the chosen flat (left-nested)
    product of its leaves, folded out of binary pairings."""
    m = shape.legs[0]
    for leg in shape.legs[1:]:
        m, _, _ = pairing(B, m, leg)
    return m


def mediate_into(B, legs, shape: _Shape):
    """The map classified by a flattened cone: sends the legs' common
    source into ``shape`` so that the shape's own legs recover them."""
    legs = tuple(legs)
    if len(legs) != len(shape.legs):
        raise ValueError("cone arity does not match the shape")
    if shape.left is None:
        return legs[0]
    split = len(shape.left.legs)
    lm = mediate_into(B, legs[:split], shape.left)
    rm = mediate_into(B, legs[split:], shape.right)
    h, _, _ = pairing(B, lm, rm)
    return h


# --- associativity and units --------------------------------------------------

def assoc_map(B, X, Y, Z):
    """The rebracketing equivalence ``(X x Y) x Z -> X x (Y x Z)`` with its
    comparison against the two mediators into the flat ternary product.

    Returns ``(a, mu, h, k)`` with ``mu : comp(a, k) -> h`` invertible.
    """
    lx, ly, lz = shape_leaf(B, X), shape_leaf(B, Y), shape_leaf(B, Z)
    t_l = shape_prod(B, shape_prod(B, lx, ly), lz)
    t_r = shape_prod(B, lx, shape_prod(B, ly, lz))
    h = shape_mediator(B, t_l)
    k = shape_mediator(B, t_r)
    a = mediate_into(B, t_l.legs, t_r)
    mu = map_iso(B, B.comp(a, k), h)
    return a, mu, h, k


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


def quad_assoc_routes(B, X, Y, Z, W):
    """The three-step and two-step rebracketing composites
    ``((X x Y) x Z) x W -> X x (Y x (Z x W))``."""
    aXYZ, _, _, _ = assoc_map(B, X, Y, Z)
    YZ = product_object(B, Y, Z).vertex
    aXYZW_mid, _, _, _ = assoc_map(B, X, YZ, W)
    aYZW, _, _, _ = assoc_map(B, Y, Z, W)
    m = B.comp(B.comp(times_on_arrows(B, aXYZ, B.identity(W)), aXYZW_mid),
               times_on_arrows(B, B.identity(X), aYZW))

    XY = product_object(B, X, Y).vertex
    ZW = product_object(B, Z, W).vertex
    aXY_ZW_1, _, _, _ = assoc_map(B, XY, Z, W)
    aX_Y_ZW, _, _, _ = assoc_map(B, X, Y, ZW)
    n = B.comp(aXY_ZW_1, aX_Y_ZW)
    return m, n


def _compatible_cells(B, m, n, u, v):
    """Every cell ``g : m -> n`` compatible with the comparisons
    ``alpha : comp(m, v) -> u`` and ``beta : comp(n, v) -> u`` of two
    routes against the mediators into a flat product: ``g`` whiskered
    with ``v`` is ``alpha`` followed by the inverse of ``beta``."""
    alpha = map_iso(B, B.comp(m, v), u)
    beta = map_iso(B, B.comp(n, v), u)
    return list(pinned_cells(B, m, n, ((v, B.vcomp(alpha, B.invert(beta))),)))


def quad_assoc_filler(B, X, Y, Z, W) -> QuadFiller:
    lx, ly, lz, lw = (shape_leaf(B, c) for c in (X, Y, Z, W))
    src = shape_prod(B, shape_prod(B, shape_prod(B, lx, ly), lz), lw)
    tgt = shape_prod(B, lx, shape_prod(B, ly, shape_prod(B, lz, lw)))
    u = shape_mediator(B, src)
    v = shape_mediator(B, tgt)
    m, n = quad_assoc_routes(B, X, Y, Z, W)
    matches = _compatible_cells(B, m, n, u, v)
    if len(matches) != 1:
        raise ValueError("rebracketing filler is not unique: %d candidates"
                         % len(matches))
    return QuadFiller(m, n, matches[0])


def check_quad_assoc(B, X, Y, Z, W) -> bool:
    """Whether the unique rebracketing filler is invertible."""
    return B.is_invertible(quad_assoc_filler(B, X, Y, Z, W).cell)


def pentagon_unique(B, X, Y, Z, U, V):
    """The five-factor coherence route comparison.

    Both classical pastings between the six-step and three-step
    rebracketing composites are cells compatible with the mediators into
    the flat 5-ary product; compatibility pins the cell uniquely, so
    verifying the count is one settles their equality.  Returns the count;
    ``hom_cells`` yields nothing between non-parallel routes, so a count of
    one also says the routes are parallel.
    """
    leaves = tuple(shape_leaf(B, c) for c in (X, Y, Z, U, V))
    lx, ly, lz, lu, lv = leaves
    src = shape_prod(B, shape_prod(B, shape_prod(B, shape_prod(B, lx, ly), lz), lu), lv)
    tgt = shape_prod(B, lx, shape_prod(B, ly, shape_prod(B, lz, shape_prod(B, lu, lv))))
    u5 = shape_mediator(B, src)
    v5 = shape_mediator(B, tgt)

    one = B.identity
    YZ = product_object(B, Y, Z).vertex
    ZU = product_object(B, Z, U).vertex
    UV = product_object(B, U, V).vertex
    XY = product_object(B, X, Y).vertex
    Y_ZU = product_object(B, Y, ZU).vertex
    XY_Z = product_object(B, XY, Z).vertex

    def asc(A1, A2, A3):
        return assoc_map(B, A1, A2, A3)[0]

    six = B.comp(B.comp(B.comp(B.comp(B.comp(
        times_on_arrows(B, times_on_arrows(B, asc(X, Y, Z), one(U)), one(V)),
        times_on_arrows(B, asc(X, YZ, U), one(V))),
        times_on_arrows(B, times_on_arrows(B, one(X), asc(Y, Z, U)), one(V))),
        asc(X, Y_ZU, V)),
        times_on_arrows(B, one(X), asc(Y, ZU, V))),
        times_on_arrows(B, one(X), times_on_arrows(B, one(Y), asc(Z, U, V))))
    three = B.comp(B.comp(asc(XY_Z, U, V), asc(XY, Z, UV)),
                   asc(X, Y, product_object(B, Z, UV).vertex))

    return len(_compatible_cells(B, six, three, u5, v5))


# --- carrier-level naturality (sampled) ---------------------------------------

def braid_map_natural(B, f, g) -> bool:
    s_src, _, _ = braid(B, f.source, g.source)
    s_tgt, _, _ = braid(B, f.target, g.target)
    return (B.comp(times_on_arrows(B, f, g), s_tgt)
            == B.comp(s_src, times_on_arrows(B, g, f)))


def assoc_map_natural(B, f, g, h) -> bool:
    a_src = assoc_map(B, f.source, g.source, h.source)[0]
    a_tgt = assoc_map(B, f.target, g.target, h.target)[0]
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
