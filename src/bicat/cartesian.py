"""The tensor as a lax structure on the base instance, and its comparisons.

Tensoring objects is :func:`bicat.groth.g_tensor`; this module derives the
rest: the action on 2-cells, the unit and composition constraint cells, the
lax functor axioms, the comparison between carrier products and tensors of
maps, and the invertibility results that make the structure cartesian
rather than merely lax: projection fillers on identity factors, Beck-style
conjugates, composites with map frames, and the degenerate tensor through
the unit.  Every comparison of the tensor here is the filler of one
:func:`~bicat.groth.g_pair` of a cone of squares, so existence and
uniqueness come from the universal property rather than ad hoc formulas,
and a map in any form, canonical graph or not, is a valid frame.

Constructions return plain 2-cells; the law checkers return verdicts as
set out in :mod:`bicat.kernel`.  Invertibility is always decided by the
instance (bijective apex function, or boundary equality for relations),
never by search.  The unit constraint is memoised.
"""

from __future__ import annotations

from .fin import UNIT, memoised
from .homprod import transport_cell
from .kernel import transpose
from .mapprod import map_iso, product_object, times_on_arrows
from . import groth
from .groth import (g_identity, g_map_arrow, g_pair, g_tensor,
                    garr_from_primary, paste_vertical)


# --- the tensor on 2-cells ---------------------------------------------------

def tensor_2cells(B, alpha, beta):
    """``alpha (x) beta``: the wedge-functorial action on a pair of 2-cells.

    Characterized by commuting with both tensor projections; here it is
    built as the unique wedge cell over the two transported arguments.
    """
    t_dom = g_tensor(B, alpha.dom, beta.dom)
    t_cod = g_tensor(B, alpha.cod, beta.cod)
    p_s, r_s = t_dom.src_cone.legs
    p_t, r_t = t_dom.tgt_cone.legs
    pa = transport_cell(B, p_s, alpha, B.map_adjunction(p_t).right)
    pb = transport_cell(B, r_s, beta, B.map_adjunction(r_t).right)
    return t_cod.wedge.pair(B.vcomp(t_dom.wedge.proj1, pa),
                            B.vcomp(t_dom.wedge.proj2, pb))


@memoised
def tensor_unit_cell(B, X, Y):
    """The nullary constraint ``1_{XxY} -> 1_X (x) 1_Y`` of the tensor."""
    tens = g_tensor(B, B.identity(X), B.identity(Y))
    aR = g_map_arrow(B, tens.src_cone.legs[0])
    aS = g_map_arrow(B, tens.src_cone.legs[1])
    return g_pair(B, tens, aR, aS).primary


def tensor_comp_cell(B, R, S, T, U):
    """The binary constraint ``comp(R (x) S, T (x) U) ->
    comp(R, T) (x) comp(S, U)``."""
    t1 = g_tensor(B, R, S)
    t2 = g_tensor(B, T, U)
    target = g_tensor(B, B.comp(R, T), B.comp(S, U))
    aR = paste_vertical(B, t1.proj1, t2.proj1)
    aS = paste_vertical(B, t1.proj2, t2.proj2)
    return g_pair(B, target, aR, aS).primary


def unit_functor_cells(B):
    """Constraint cells of the unit structure: both are the canonical cells
    into the chosen local terminal on the unit carrier, which is the
    identity 1-cell, so both are identity 2-cells."""
    top = B.local_terminal(UNIT, UNIT)
    comp_cell = B.tau(B.comp(top, top))
    unit_cell = B.tau(B.identity(UNIT))
    return unit_cell, comp_cell


# --- lax functor axioms ------------------------------------------------------

def lax_assoc_sides(B, R, S, T, U, V, W):
    """Both pastings of the associativity axiom for the tensor, as 2-cells
    ``comp(comp(R(x)S, T(x)U), V(x)W) -> comp(R,comp(T,V)) (x) comp(S,comp(U,W))``."""
    RS = g_tensor(B, R, S).obj
    TU = g_tensor(B, T, U).obj
    VW = g_tensor(B, V, W).obj
    RT, SU = B.comp(R, T), B.comp(S, U)
    TV, UW = B.comp(T, V), B.comp(U, W)

    lhs = B.vc(
        B.whisker_right(tensor_comp_cell(B, R, S, T, U), VW),
        tensor_comp_cell(B, RT, SU, V, W),
        tensor_2cells(B, B.assoc(R, T, V), B.assoc(S, U, W)),
    )
    rhs = B.vc(
        B.assoc(RS, TU, VW),
        B.whisker_left(RS, tensor_comp_cell(B, T, U, V, W)),
        tensor_comp_cell(B, R, S, TV, UW),
    )
    return lhs, rhs


def lax_unit_sides(B, R, S):
    """The two unit axioms; each returns ``(candidate, expected_identity)``."""
    tens = g_tensor(B, R, S)
    X, Y = R.source, S.source
    A, C = R.target, S.target
    left = B.vcomp(
        B.whisker_right(tensor_unit_cell(B, X, Y), tens.obj),
        tensor_comp_cell(B, B.identity(X), B.identity(Y), R, S),
    )
    right = B.vcomp(
        B.whisker_left(tens.obj, tensor_unit_cell(B, A, C)),
        tensor_comp_cell(B, R, S, B.identity(A), B.identity(C)),
    )
    return (left, B.id2(tens.obj)), (right, B.id2(tens.obj))


def tensor_naturality_holds(B, alpha, beta, gamma, delta) -> bool:
    """Naturality of the binary constraint in all four variables."""
    lhs = B.vcomp(
        tensor_comp_cell(B, alpha.dom, beta.dom, gamma.dom, delta.dom),
        tensor_2cells(B, B.hcomp(alpha, gamma), B.hcomp(beta, delta)),
    )
    rhs = B.vcomp(
        B.hcomp(tensor_2cells(B, alpha, beta), tensor_2cells(B, gamma, delta)),
        tensor_comp_cell(B, alpha.cod, beta.cod, gamma.cod, delta.cod),
    )
    return lhs == rhs


def tensor_functor_law_holds(B, a1, a2, b1, b2) -> bool:
    """``(a2.a1) (x) (b2.b1) == (a2 (x) b2) . (a1 (x) b1)`` plus identities."""
    lhs = tensor_2cells(B, B.vcomp(a1, a2), B.vcomp(b1, b2))
    rhs = B.vcomp(tensor_2cells(B, a1, b1), tensor_2cells(B, a2, b2))
    if lhs != rhs:
        return False
    ids = tensor_2cells(B, B.id2(a1.dom), B.id2(b1.dom))
    return ids == B.id2(g_tensor(B, a1.dom, b1.dom).obj)


# --- comparison between carrier products and tensors of maps ----------------

def _leg_squares(B, f, g):
    """The squares ``f x g => f`` and ``f x g => g`` of two maps, framed by
    the carrier projections and filled by :func:`~bicat.mapprod.map_iso`."""
    fg = times_on_arrows(B, f, g)
    src = product_object(B, f.source, g.source)
    tgt = product_object(B, f.target, g.target)
    return [garr_from_primary(B, fg, m, p_s, p_t,
                              map_iso(B, B.comp(fg, p_t), B.comp(p_s, m)))
            for m, p_s, p_t in zip((f, g), src.legs, tgt.legs)]


def m_cell(B, f, g):
    """``m'_{f,g} : f x g -> f (x) g`` comparing the product of maps with
    their tensor: the pairing of the two leg squares.  Invertible in both
    instances."""
    return g_pair(B, g_tensor(B, f, g), *_leg_squares(B, f, g)).primary


def check_m(B, f, g, u, v):
    """The two coherence equations tying m' to the tensor constraints.

    Nullary: ``m'`` of two identities is the unit constraint.  Binary:
    pasting two m' cells horizontally and then the composition constraint
    equals the m' of the composites (the product-of-maps side needs no
    constraint cell because maps compose strictly).  Returns ``None`` or
    ``{"kind": "nullary" | "binary"}``.
    """
    X, Y = f.source, g.source
    if m_cell(B, B.identity(X), B.identity(Y)) != tensor_unit_cell(B, X, Y):
        return {"kind": "nullary"}
    lhs = B.vcomp(B.hcomp(m_cell(B, f, g), m_cell(B, u, v)),
                  tensor_comp_cell(B, f, g, u, v))
    if lhs != m_cell(B, B.comp(f, u), B.comp(g, v)):
        return {"kind": "binary"}
    return None


# --- cartesianness -----------------------------------------------------------

def is_cartesian(B, objects, arrows):
    """Decide cartesianness at carriers ``objects = (X, Y)`` and 1-cells
    ``arrows = (R, S, T, U)``: the nullary, binary and unit-structure
    constraint cells must be invertible, as ``B.is_invertible`` decides.
    The precartesian preconditions (local products, local terminals) are
    the ``homprod`` suite's rows.
    """
    if not B.is_invertible(tensor_unit_cell(B, *objects)):
        return {"kind": "unit-constraint", "objects": objects}
    if not B.is_invertible(tensor_comp_cell(B, *arrows)):
        return {"kind": "comp-constraint", "cells": arrows}
    unit_cell, comp_cell = unit_functor_cells(B)
    if not (B.is_invertible(unit_cell) and B.is_invertible(comp_cell)):
        return {"kind": "unit-functor"}
    return None


# --- special invertible cells ------------------------------------------------

def conjugate_cell(B, arr: groth.GArr):
    """The Beck-style conjugate of a square: transpose the secondary form
    across the source frame's adjunction, giving
    ``comp(f*, dom) -> comp(cod, u*)``."""
    tail = B.comp(arr.cod, B.map_adjunction(arr.u).right)
    return transpose(B, B.map_adjunction(arr.f), groth.secondary(B, arr), tail)


def projection_fillers(B, R, Y):
    """The two degenerate-factor projection fillers: the first projection
    of ``R (x) 1_Y`` and the second of ``1_Y (x) R``; both invertible."""
    t1 = g_tensor(B, R, B.identity(Y))
    t2 = g_tensor(B, B.identity(Y), R)
    return t1.proj1.primary, t2.proj2.primary


def prebeck_cell(B, R, Y):
    """The conjugate of the first projection of ``R (x) 1_Y``; invertible."""
    tens = g_tensor(B, R, B.identity(Y))
    return conjugate_cell(B, tens.proj1)


def precompose_iso(B, f, g, R, S):
    """``comp(f x g, R (x) S)  ~  comp(f, R) (x) comp(g, S)`` for maps f, g.

    The pairing of the tensor projections pasted under the leg squares of
    ``f x g``.  That it is invertible is the law, and the caller decides it.
    """
    tens = g_tensor(B, R, S)
    sq_f, sq_g = _leg_squares(B, f, g)
    target = g_tensor(B, B.comp(f, R), B.comp(g, S))
    return g_pair(B, target, paste_vertical(B, sq_f, tens.proj1),
                  paste_vertical(B, sq_g, tens.proj2)).primary


def postcompose_star_iso(B, R, S, u, v):
    """``comp(R (x) S, (u x v)*)  ~  comp(R, u*) (x) comp(S, v*)`` for maps.

    The right-adjoint side of :func:`precompose_iso`: the pairing of the
    tensor projections pasted over squares ``(u x v)* => u*`` and ``=> v*``
    framed by the carrier projections, each the conjugate of the map iso
    between a projection after ``u`` (or ``v``) and ``u x v`` before one.
    """
    tens = g_tensor(B, R, S)
    uv = times_on_arrows(B, u, v)
    uv_star = B.map_adjunction(uv).right
    target = g_tensor(B, B.comp(R, B.map_adjunction(u).right),
                      B.comp(S, B.map_adjunction(v).right))
    legs = []
    for proj, m, p, q in zip((tens.proj1, tens.proj2), (u, v),
                             tens.tgt_cone.legs, target.tgt_cone.legs):
        iso = garr_from_primary(B, q, p, uv, m,
                                map_iso(B, B.comp(q, m), B.comp(uv, p)))
        star = garr_from_primary(B, uv_star, B.map_adjunction(m).right, p, q,
                                 conjugate_cell(B, iso))
        legs.append(paste_vertical(B, proj, star))
    return g_pair(B, target, *legs).primary


def strange_pair(B, R, S):
    """For ``R : X -> I`` and ``S : I -> A``, the composite ``comp(R, S)``
    carries two canonical projection squares (pad with the terminal square
    on the other side); pairing them through the tensor is an equivalence.
    Returns ``(arrow, verdict)`` with :func:`~bicat.groth.g_is_equivalence`'s
    verdict on the arrow."""
    tens = g_tensor(B, R, S)
    P1 = paste_vertical(B, g_identity(B, R), groth.g_bang(B, S))
    P2 = paste_vertical(B, groth.g_bang(B, R), g_identity(B, S))
    arrow = g_pair(B, tens, P1, P2)
    return arrow, groth.g_is_equivalence(B, arrow)
