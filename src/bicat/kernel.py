"""Instance-independent bicategory machinery.

The constructions here only need composition, whiskering and associativity
to state: adjunctions and their triangle equations, composite adjunctions,
transposes across an adjunction, mates in both directions, right adjoints
of 2-cells between maps, and adjoint equivalence witnesses.  Each pasting
is a vertical chain ``B.vc(...)`` of whiskerings, associators and
(co)units, first to last.  Identity 1-cells compose strictly in both
instances, so no unitors appear; rebracketing is always an explicit
``B.assoc`` or ``B.assoc_inv``.  Composite adjunctions and right mates of
map cells are memoised in the per-unit memo of ``fin``.

The identity adjunction, ``B.map_adjunction(B.identity(X))``, is skipped:
composing with it returns the other adjunction, and a mate across it
returns its cell once the cell's boundary is checked.  This is exact, not
a law assumed: both instances keep identities strict (spans by their
identity-leg and identity-associator rules, relations by set equality), so
every link of those pastings is an identity 2-cell and the chain is its
argument.

Verdicts, for every law checker of the package: one equation gives a
``bool``; several give ``None`` when the law holds, else one dict whose
``"kind"`` names the first condition that failed, next to the entities
that show it.
"""

from __future__ import annotations

from collections import namedtuple

from .fin import memoised


class AdjunctionMismatch(ValueError):
    """Input cells do not have the boundaries the adjunction calls for."""


class NotAMap(ValueError):
    """A 1-cell that is not a map where a map is required: the one refusal
    of both instances' ``map_adjunction`` and of every map construction."""


def require_map(*cells):
    for R in cells:
        if not R.is_map():
            raise NotAMap("non-map 1-cell where a map is required")


# --- adjunctions ----------------------------------------------------------

class Adjunction(namedtuple("Adjunction", "left right unit counit")):
    """``left -| right`` with chosen unit and counit.

    unit   : 1_X -> comp(left, right)
    counit : comp(right, left) -> 1_A

    Adjunctions compare and hash by these four parts.
    """
    __slots__ = ()


def check_adjunction(B, adj: Adjunction):
    """Verify both triangle identities by pasting them: ``None``, or
    ``{"kind": "left-triangle" | "right-triangle"}`` for the first that
    fails."""
    f, fs = adj.left, adj.right
    one_src = B.identity(f.source)
    one_tgt = B.identity(f.target)
    if adj.unit.dom != one_src or adj.unit.cod != B.comp(f, fs):
        raise AdjunctionMismatch("unit boundary does not match the adjunction")
    if adj.counit.dom != B.comp(fs, f) or adj.counit.cod != one_tgt:
        raise AdjunctionMismatch("counit boundary does not match the adjunction")

    t1 = B.vc(
        B.whisker_right(adj.unit, f),
        B.assoc(f, fs, f),
        B.whisker_left(f, adj.counit),
    )
    if t1 != B.id2(f):
        return {"kind": "left-triangle"}
    if transpose(B, adj, adj.unit, fs) != B.id2(fs):
        return {"kind": "right-triangle"}
    return None


def _is_identity_adjunction(B, adj: Adjunction) -> bool:
    """Whether ``adj`` is ``B.map_adjunction(B.identity(X))``: its left
    1-cell is its unit's domain, the identity on ``X``, and the rest is
    that 1-cell's map adjunction."""
    one = adj.left
    return (one == adj.unit.dom and one == B.identity(one.source)
            and adj == B.map_adjunction(one))


@memoised
def compose_adjunctions(B, first: Adjunction, second: Adjunction) -> Adjunction:
    """The composite adjunction ``comp(f, g) -| comp(g*, f*)``; the other
    adjunction when one is the identity's and the two compose."""
    if first.left.target == second.left.source:
        if _is_identity_adjunction(B, first):
            return second
        if _is_identity_adjunction(B, second):
            return first
    f, fs = first.left, first.right
    g, gs = second.left, second.right
    left = B.comp(f, g)
    right = B.comp(gs, fs)
    unit = B.vc(
        first.unit,
        B.whisker_left(f, B.whisker_right(second.unit, fs)),
        B.whisker_left(f, B.assoc(g, gs, fs)),
        B.assoc_inv(f, g, right),
    )
    counit = B.vc(
        B.assoc(gs, fs, left),
        B.whisker_left(gs, B.assoc_inv(fs, f, g)),
        B.whisker_left(gs, B.whisker_right(first.counit, g)),
        second.counit,
    )
    return Adjunction(left, right, unit, counit)


def has_map_adjunction(B, R) -> bool:
    """``False`` when ``B.map_adjunction`` refuses ``R`` with
    :class:`NotAMap`; any other exception propagates."""
    try:
        B.map_adjunction(R)
    except NotAMap:
        return False
    return True


# --- mates ---------------------------------------------------------------

def transpose(B, adj: Adjunction, x, C):
    """Transpose ``x : A -> comp(left, C)`` across ``left -| right`` into
    ``comp(right, A) -> C``."""
    return B.vc(
        B.whisker_left(adj.right, x),
        B.assoc_inv(adj.right, adj.left, C),
        B.whisker_right(adj.counit, C),
    )


def mate_to_secondary(B, alpha, R, S, f, adj: Adjunction):
    """Transpose ``alpha : comp(R, u) -> comp(f, S)`` across ``u -| u*``
    into ``R -> comp(f, comp(S, u*))``."""
    u, us = adj.left, adj.right
    if alpha.dom != B.comp(R, u) or alpha.cod != B.comp(f, S):
        raise AdjunctionMismatch("primary cell boundary mismatch")
    if _is_identity_adjunction(B, adj):
        return alpha
    return B.vc(
        B.whisker_left(R, adj.unit),
        B.assoc_inv(R, u, us),
        B.whisker_right(alpha, us),
        B.assoc(f, S, us),
    )


def mate_to_primary(B, beta, R, S, f, adj: Adjunction):
    """Transpose ``beta : R -> comp(f, comp(S, u*))`` back into the primary
    form ``comp(R, u) -> comp(f, S)``."""
    u, us = adj.left, adj.right
    if beta.dom != R or beta.cod != B.comp(f, B.comp(S, us)):
        raise AdjunctionMismatch("secondary cell boundary mismatch")
    if _is_identity_adjunction(B, adj):
        return beta
    return B.vc(
        B.whisker_right(beta, u),
        B.assoc(f, B.comp(S, us), u),
        B.whisker_left(f, B.assoc(S, us, u)),
        B.whisker_left(f, B.whisker_left(S, adj.counit)),
    )


@memoised
def right_mate_of_map_cell(B, psi, adj_m: Adjunction, adj_m2: Adjunction):
    """The right adjoint of a 2-cell between maps.

    ``psi : m -> m'`` yields ``psi* : m'* -> m*``; direction reverses.
    """
    m, ms = adj_m.left, adj_m.right
    m2, m2s = adj_m2.left, adj_m2.right
    if psi.dom != m or psi.cod != m2:
        raise AdjunctionMismatch("cell boundary does not match the adjunctions")
    return B.vc(
        B.whisker_left(m2s, adj_m.unit),
        B.assoc_inv(m2s, m, ms),
        B.whisker_right(B.whisker_left(m2s, psi), ms),
        B.whisker_right(adj_m2.counit, ms),
    )


# --- equivalences ----------------------------------------------------------

def find_equivalence(B, R):
    """Return the adjoint-equivalence :class:`Adjunction` of the 1-cell, if
    one exists.

    The equivalences are the maps whose right adjoint is a map too (spans
    with two bijective legs, graphs of bijections), witnessed by the map
    adjunction.  The witness must really be an adjoint equivalence:
    invertible unit and counit, and both triangle identities.
    """
    if not R.is_map():
        return None
    adj = B.map_adjunction(R)
    if not adj.right.is_map():
        return None
    if not (B.is_invertible(adj.unit) and B.is_invertible(adj.counit)):
        raise ValueError("equivalence witness has non-invertible unit or counit")
    if check_adjunction(B, adj) is not None:
        raise ValueError("equivalence witness fails the triangle identities")
    return adj


# --- small law helpers used by suites and tests -----------------------------

def interchange_holds(B, a1, a2, b1, b2) -> bool:
    """Both evaluation orders of a 2x2 pasting grid agree."""
    lhs = B.hcomp(B.vcomp(a1, a2), B.vcomp(b1, b2))
    rhs = B.vcomp(B.hcomp(a1, b1), B.hcomp(a2, b2))
    return lhs == rhs
