"""The arrow layer: squares over map frames and their product structure.

An object here is exactly a 1-cell of the base instance (no wrapper type).
An arrow ``R => S`` is a square: two map frames ``f`` (between the sources)
and ``u`` (between the targets) plus a 2-cell filling it.  The filler has
two interchangeable forms:

* primary   ``comp(R, u) -> comp(f, S)``
* secondary ``R -> comp(f, comp(S, u*))``

where ``u*`` is the right adjoint of ``u``; passing between the two is the
mate construction, a bijection, so each form is derived at most once.  A
square keeps only its primary filler.  :func:`garr_from_secondary` builds
one from the other form and records that cell as the square's entry in the
memo of :func:`secondary`, which derives the form for squares built from
their primary.

Squares compose two ways.  :func:`g_compose` composes along the frames
(source objects stay 1-cells, frames compose as maps); :func:`paste_vertical`
composes along the objects (frames in the middle must agree, the objects
compose in the base).  2-cells between parallel squares are frame-cell pairs
subject to one pasting equation, checked at construction.  Squares and
their 2-cells are named tuples, compared and hashed by their parts, so a
square built twice finds its twin's memo entries; a tensor witness
compares by identity.

The product structure: :func:`g_tensor` builds ``R (x) S`` as the local
wedge of the two frame-transported factors, with projection squares framed
by the carrier projections, each built when first read; :func:`g_pair`
mediates an arbitrary cone through it and returns the mediating square
alone.  Every comparison of the tensor downstream is the filler of one
such square.  Tensors, mediating squares, composites along the frames and
both filler forms are memoised in the per-unit memo of :mod:`bicat.fin`.
"""

from __future__ import annotations

from collections import namedtuple

from . import kernel
from .fin import UNIT, memoised
from .kernel import (compose_adjunctions, mate_to_primary, mate_to_secondary,
                     require_map, right_mate_of_map_cell)
from .homprod import transport_cell, transport_hom
from .mapprod import bang, diag, pairing, product_object


class GArr(namedtuple("GArr", "dom cod f u primary")):
    """A square between 1-cells ``dom`` and ``cod`` of the base instance."""
    __slots__ = ()

    def __init__(self, dom, cod, f, u, primary):
        """Nothing to do once the tuple is built; kept so that wrapping
        ``__init__`` sees every construction."""


class GCell(namedtuple("GCell", "dom cod phi psi")):
    """A 2-cell between parallel squares: a pair of frame cells."""
    __slots__ = ()


def garr_from_primary(B, dom, cod, f, u, primary) -> GArr:
    require_map(f, u)
    if primary.dom != B.comp(dom, u) or primary.cod != B.comp(f, cod):
        raise ValueError("primary cell boundary does not match the square")
    return GArr(dom, cod, f, u, primary)


@memoised
def garr_from_secondary(B, dom, cod, f, u, secondary_cell) -> GArr:
    require_map(f, u)
    adj = B.map_adjunction(u)
    arr = GArr(dom, cod, f, u, mate_to_primary(B, secondary_cell, dom, cod,
                                               f, adj))
    # The mates are a bijection, so the square's secondary form is the
    # cell it was built from.
    secondary.table.setdefault((B, arr), secondary_cell)
    return arr


@memoised
def secondary(B, a: GArr):
    """The filler's secondary form ``dom -> comp(f, comp(cod, u*))``: the
    mate of the primary one across ``u -| u*``."""
    return mate_to_secondary(B, a.primary, a.dom, a.cod, a.f,
                             B.map_adjunction(a.u))


def g_identity(B, R) -> GArr:
    one_s = B.identity(R.source)
    one_t = B.identity(R.target)
    return garr_from_primary(B, R, R, one_s, one_t, B.id2(R))


def g_map_arrow(B, f) -> GArr:
    """The canonical square of a map: identity objects, both frames ``f``,
    identity filler."""
    one_s = B.identity(f.source)
    one_t = B.identity(f.target)
    return garr_from_primary(B, one_s, one_t, f, f, B.id2(f))


@memoised
def g_compose(B, a1: GArr, a2: GArr) -> GArr:
    """Compose squares along the frames: ``R => S => T`` becomes ``R => T``
    over ``comp(f1, f2)`` and ``comp(u1, u2)``."""
    if a1.cod != a2.dom:
        raise ValueError("squares are not composable along the frames")
    R, S, T = a1.dom, a1.cod, a2.cod
    f = B.comp(a1.f, a2.f)
    u = B.comp(a1.u, a2.u)
    primary = B.vc(
        B.assoc_inv(R, a1.u, a2.u),
        B.whisker_right(a1.primary, a2.u),
        B.assoc(a1.f, S, a2.u),
        B.whisker_left(a1.f, a2.primary),
        B.assoc_inv(a1.f, a2.f, T),
    )
    return garr_from_primary(B, R, T, f, u, primary)


def paste_vertical(B, a1: GArr, a2: GArr) -> GArr:
    """Compose squares along the objects: ``R => R'`` above ``S => S'``
    (matching middle frame) becomes ``comp(R, S) => comp(R', S')``."""
    if a1.u != a2.f:
        raise ValueError("squares do not share the middle frame")
    R, R2 = a1.dom, a1.cod
    S, S2 = a2.dom, a2.cod
    mid = a1.u
    primary = B.vc(
        B.assoc(R, S, a2.u),
        B.whisker_left(R, a2.primary),
        B.assoc_inv(R, mid, S2),
        B.whisker_right(a1.primary, S2),
        B.assoc(a1.f, R2, S2),
    )
    return garr_from_primary(B, B.comp(R, S), B.comp(R2, S2),
                             a1.f, a2.u, primary)


def g_cell(B, dom: GArr, cod: GArr, phi, psi) -> GCell:
    """Validate and build a 2-cell between parallel squares.

    The defining equation: pasting ``psi`` into the domain square's filler
    agrees with pasting ``phi`` into the codomain square's filler.
    """
    if dom.dom != cod.dom or dom.cod != cod.cod:
        raise ValueError("squares are not parallel")
    if phi.dom != dom.f or phi.cod != cod.f:
        raise ValueError("first frame cell has the wrong boundary")
    if psi.dom != dom.u or psi.cod != cod.u:
        raise ValueError("second frame cell has the wrong boundary")
    lhs = B.vcomp(B.whisker_left(dom.dom, psi), cod.primary)
    rhs = B.vcomp(dom.primary, B.whisker_right(phi, dom.cod))
    if lhs != rhs:
        raise ValueError("frame cells do not satisfy the square equation")
    return GCell(dom, cod, phi, psi)


def g_cell_invertible(B, c: GCell) -> bool:
    return B.is_invertible(c.phi) and B.is_invertible(c.psi)


def g_is_equivalence(B, a: GArr):
    """A square is an equivalence precisely when both frames are
    equivalences and its filler is invertible.  Returns ``None``, or the
    kind ``frame-not-equivalence`` (with ``"frame"``) or
    ``filler-not-invertible`` (verdicts as in :mod:`bicat.kernel`)."""
    for frame in ("f", "u"):
        if kernel.find_equivalence(B, getattr(a, frame)) is None:
            return {"kind": "frame-not-equivalence", "frame": frame}
    if not B.is_invertible(a.primary):
        return {"kind": "filler-not-invertible"}
    return None


# --- tensor ----------------------------------------------------------------

class TensorWitness:
    """The chosen tensor of two objects with its projection squares; it
    compares by identity.  A projection square, ``proj1`` or ``proj2``, is
    built from its secondary cell, the wedge projection, when first read."""

    __slots__ = ("obj", "proj1", "proj2", "wedge", "src_cone", "tgt_cone",
                 "_B", "_factors")

    def __init__(self, B, obj, factors, wedge, src_cone, tgt_cone):
        self.obj = obj
        self.wedge = wedge          # LocalProductWitness of the factors
        self.src_cone = src_cone    # product cone of the source carriers
        self.tgt_cone = tgt_cone    # product cone of the target carriers
        self._B = B
        self._factors = factors

    def __getattr__(self, name):
        """Called only for an unset slot: build that projection square."""
        if name not in ("proj1", "proj2"):
            raise AttributeError(name)
        side = 1 if name == "proj2" else 0
        square = garr_from_secondary(
            self._B, self.obj, self._factors[side], self.src_cone.legs[side],
            self.tgt_cone.legs[side], getattr(self.wedge, name))
        setattr(self, name, square)
        return square


@memoised
def g_tensor(B, R, S) -> TensorWitness:
    """``R (x) S``: the local product of the two projection-transported
    factors, with its projection squares framed by the carrier projections."""
    src = product_object(B, R.source, S.source)
    tgt = product_object(B, R.target, S.target)
    p_s, r_s = src.legs
    p_t, r_t = tgt.legs
    adj_pt = B.map_adjunction(p_t)
    adj_rt = B.map_adjunction(r_t)
    C1 = transport_hom(B, p_s, R, adj_pt.right)
    C2 = transport_hom(B, r_s, S, adj_rt.right)
    wedge = B.local_product(C1, C2)
    return TensorWitness(B, wedge.product, (R, S), wedge, src, tgt)


@memoised
def g_pair(B, tens: TensorWitness, aR: GArr, aS: GArr) -> GArr:
    """Mediate a cone through the tensor: the square ``T => R (x) S``.

    ``aR : T => R`` and ``aS : T => S`` share their domain object.  The
    square's frames ``h`` and ``w`` pair the cone's frames by
    :func:`~bicat.mapprod.pairing`, whose invertible cells ``mu0, mu1, nu0,
    nu1`` compare the projected frames with the cone's (identities for
    canonical graph frames).  Those cells, as :func:`g_cell` pairs, exhibit
    the two projection composites of the square as the given cone legs; a
    caller that needs them builds them.

    A failed construction raises the ``ValueError`` of the step that
    refuses it: ``B.invert`` or the mate.
    """
    if aR.dom != aS.dom:
        raise ValueError("cone legs have different domain objects")
    if aR.cod != tens.proj1.cod or aS.cod != tens.proj2.cod:
        raise ValueError("cone legs do not land in the tensor factors")
    p_s, r_s = tens.src_cone.legs
    p_t, r_t = tens.tgt_cone.legs

    h, mu0, nu0 = pairing(B, aR.f, aS.f)
    w, mu1, nu1 = pairing(B, aR.u, aS.u)
    adj_w = B.map_adjunction(w)

    c1 = _transport_cone_leg(B, aR, h, w, adj_w, mu0, mu1, p_s, p_t, aR.cod)
    c2 = _transport_cone_leg(B, aS, h, w, adj_w, nu0, nu1, r_s, r_t, aS.cod)

    # The wedge transported along ``comp(h, comp(-, w*))`` must still be a
    # wedge of the transported factors; the comparison ``e`` into their
    # canonical wedge witnesses that.
    projs = (tens.wedge.proj1, tens.wedge.proj2)
    W0 = B.local_product(*(transport_hom(B, h, p.cod, adj_w.right)
                           for p in projs))
    e = W0.pair(*(transport_cell(B, h, p, adj_w.right) for p in projs))
    gamma_sec = B.vcomp(W0.pair(c1, c2), B.invert(e))
    return garr_from_secondary(B, aR.dom, tens.obj, h, w, gamma_sec)


def _transport_cone_leg(B, a: GArr, h, w, adj_w, iso0, iso1, p_src, p_tgt, factor):
    """Rewrite a cone leg's secondary cell as a cell into the transported
    factor ``comp(h, comp(comp(p_src, comp(factor, p_tgt*)), w*))``."""
    adj_pt = B.map_adjunction(p_tgt)
    adj_u = B.map_adjunction(a.u)
    adj_wp = compose_adjunctions(B, adj_w, adj_pt)
    pts, ws = adj_pt.right, adj_w.right
    # iso1* : u* -> comp(p_tgt*, w*)
    iso1_star = right_mate_of_map_cell(B, iso1, adj_wp, adj_u)
    rest = B.comp(B.comp(factor, pts), ws)
    return B.vc(
        secondary(B, a),
        B.whisker_left(a.f, B.whisker_left(factor, iso1_star)),
        B.whisker_left(a.f, B.assoc_inv(factor, pts, ws)),
        B.whisker_right(B.invert(iso0), rest),
        B.assoc(h, p_src, rest),
        B.whisker_left(h, B.assoc_inv(p_src, B.comp(factor, pts), ws)),
    )


# --- terminal object, diagonal, local/global comparison ---------------------

def g_terminal(B):
    """The chosen terminal object: the identity on the unit carrier, which
    is also the chosen local terminal there."""
    return B.identity(UNIT)


def g_bang(B, R) -> GArr:
    """The canonical square ``R => terminal`` framed by the terminal maps.

    Its secondary cell is exactly the local terminal cell, because the
    composite of the two terminal frames around the unit identity is the
    chosen local terminal on the nose.
    """
    t_src = bang(B, R.source)
    t_tgt = bang(B, R.target)
    return garr_from_secondary(B, R, g_terminal(B), t_src, t_tgt, B.tau(R))


def g_diag(B, R) -> GArr:
    """The diagonal square ``R => R (x) R`` via the canonical pairing of two
    identity squares."""
    tens = g_tensor(B, R, R)
    one = g_identity(B, R)
    return g_pair(B, tens, one, one)


def dunit_iso(B, R, S):
    """The canonical comparison between the local wedge and the
    diagonal-conjugated tensor: ``d_A* . (R (x) S) . d_X  ~  R /\\ S``.
    That it is invertible is the law, and the caller decides it."""
    tens = g_tensor(B, R, S)
    d_src = diag(B, R.source)
    d_tgt = diag(B, R.target)
    adj_d = B.map_adjunction(d_tgt)
    w = B.local_product(R, S)
    c1 = _collapse_diag_leg(B, tens, 0, d_src, d_tgt, adj_d, R)
    c2 = _collapse_diag_leg(B, tens, 1, d_src, d_tgt, adj_d, S)
    return w.pair(c1, c2)


def _collapse_diag_leg(B, tens: TensorWitness, side: int, d_src, d_tgt, adj_d, factor):
    """``comp(d, comp(tensor, d*)) -> factor`` through one projection."""
    proj = (tens.wedge.proj1, tens.wedge.proj2)[side]
    p_s = tens.src_cone.legs[side]
    p_t = tens.tgt_cone.legs[side]
    adj_pt = B.map_adjunction(p_t)
    pts, ds = adj_pt.right, adj_d.right
    # comp(d, p) is an identity map, so the composite adjunction's counit
    # contracts comp(p*, d*) onto the identity.
    zeta = compose_adjunctions(B, adj_d, adj_pt).counit
    inner = B.comp(factor, pts)
    return B.vc(
        B.whisker_left(d_src, B.whisker_right(proj, ds)),
        B.whisker_left(d_src, B.assoc(p_s, inner, ds)),
        B.assoc_inv(d_src, p_s, B.comp(inner, ds)),
        B.assoc(factor, pts, ds),
        B.whisker_left(factor, zeta),
    )
