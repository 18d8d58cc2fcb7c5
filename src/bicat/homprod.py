"""Finite products inside each hom-category.

Parallel 1-cells R, S have a chosen binary product ("wedge") R /\\ S and a
chosen terminal 1-cell, both supplied by the instance; this module wraps the
chosen data in a witness carrying the two projections and the mediating-cell
constructor, provides transport along maps, and checks universal properties
by brute force: enumerate every candidate mediating 2-cell and count the
ones that commute.  At the carrier sizes used in tests the enumeration is
exact, so "unique" in the reports means literally one candidate out of all
of them.  Both transports are memoised in the per-unit memo of
:mod:`bicat.fin`.
"""

from __future__ import annotations

from collections.abc import Callable

from .fin import memoised


class LocalProductWitness:
    """A chosen binary product in a hom-category.

    ``pair(phi, psi)`` checks that the two legs form a cone over the
    factors and builds its mediating 2-cell with the instance's
    ``mediate``; the witness is only as trustworthy as the checks run
    against it, which is the point.
    """

    __slots__ = ("product", "proj1", "proj2", "_mediate")

    def __init__(self, product, proj1, proj2, mediate: Callable):
        self.product = product
        self.proj1 = proj1
        self.proj2 = proj2
        self._mediate = mediate

    def pair(self, phi, psi):
        if phi.dom != psi.dom:
            raise ValueError("cone legs have different domains")
        if phi.cod != self.proj1.cod or psi.cod != self.proj2.cod:
            raise ValueError("cone legs do not land in the two factors")
        return self._mediate(phi, psi)


@memoised
def transport_hom(B, f, S, u_star):
    """The hom-functor induced by a map on each side: ``S |-> u* . S . f``
    written diagrammatically as ``comp(f, comp(S, u*))``."""
    return B.comp(f, B.comp(S, u_star))


@memoised
def transport_cell(B, f, alpha, u_star):
    return B.whisker_left(f, B.whisker_right(alpha, u_star))


def is_product_diagram(B, W, proj1, proj2, R, S, tests):
    """Check the universal property of a candidate product diagram exactly.

    For every test 1-cell T and every cone ``(phi : T -> R, psi : T -> S)``,
    enumerate all 2-cells ``T -> W`` and count those whose composites with
    the projections recover the cone.  Returns ``None`` on success, or a
    violation naming the first failing cone, of kind ``no-mediator`` or
    ``many-mediators`` (verdicts as in :mod:`bicat.kernel`).
    """
    for T in tests:
        for phi in B.hom_cells(T, R):
            for psi in B.hom_cells(T, S):
                mediating = [
                    g for g in B.hom_cells(T, W)
                    if B.vcomp(g, proj1) == phi and B.vcomp(g, proj2) == psi
                ]
                if len(mediating) != 1:
                    kind = "many-mediators" if mediating else "no-mediator"
                    return {"kind": kind, "test": T, "cone": (phi, psi),
                            "count": len(mediating)}
    return None

