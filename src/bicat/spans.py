"""Spans of finite sets as a locally finite bicategory.

A 1-cell ``X -> A`` is a span: an apex carrier with a left leg into ``X`` and
a right leg into ``A``.  A 2-cell is a function between apexes commuting with
both legs.  Composition is written diagrammatically throughout: ``comp(R, T)``
is "R then T", defined on the canonical pullback apex whose elements are the
pairs ``(r, t)`` with ``R.right(r) == T.left(t)``, listed row-major.

Two special cases keep composition strict where strictness is both sound and
load-bearing for everything built on top:

* composing with an identity span returns the other span unchanged, and
* composing two canonical graph spans returns the graph of the composed
  function.

Both choices are pullbacks, just not the pair-set one.  The helpers
:meth:`SpanBicat.comp_pair` and :meth:`SpanBicat.comp_split` translate
between factor elements and composite elements uniformly across all three
representations, and every whiskering and associativity cell is defined
through them, so the special cases never leak.

Whether a span is in graph or identity form is decided once, when it is
built.  :meth:`SpanBicat.comp` memoises composites within one unit of
work (a trial, shrink attempt, negative control or fixture record): the
harness empties the memo with :meth:`SpanBicat.forget_composites` when a
unit starts, so memory stays flat over a run.  Failures are not stored.
"""

from __future__ import annotations

import itertools

from .fin import FinSet, SetFn, UNIT, render_label


class Span:
    """A span between two finite carriers.

    >>> from bicat.fin import FinSet, SetFn
    >>> X = FinSet("xy"); A = FinSet("ab")
    >>> S = FinSet(["s0", "s1", "s2"])
    >>> R = Span(X, A, S, SetFn(S, X, "xxy"), SetFn(S, A, "aba"))
    >>> R.is_graph()
    False
    """

    __slots__ = ("source", "target", "apex", "left", "right", "_hash",
                 "_graph", "_identity")

    def __init__(self, source: FinSet, target: FinSet, apex: FinSet,
                 left: SetFn, right: SetFn):
        if left.domain != apex or left.codomain != source:
            raise ValueError("left leg does not match the span boundary")
        if right.domain != apex or right.codomain != target:
            raise ValueError("right leg does not match the span boundary")
        self.source = source
        self.target = target
        self.apex = apex
        self.left = left
        self.right = right
        self._hash = hash((source, target, apex, left, right))
        self._graph = apex == source and left.is_identity()
        self._identity = self._graph and right.is_identity()

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Span)
            and self.source == other.source
            and self.target == other.target
            and self.apex == other.apex
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        entries = ", ".join(
            "%s<-%s->%s" % (render_label(self.left(s)), render_label(s),
                            render_label(self.right(s)))
            for s in self.apex
        )
        return "Span[%s]" % entries

    def is_graph(self) -> bool:
        """True for the canonical graph form: apex is the source, left leg
        the identity."""
        return self._graph

    def is_identity(self) -> bool:
        return self._identity

    def is_map(self) -> bool:
        """Maps are the spans whose left leg is a bijection."""
        return self.left.is_bijective()

    def fn(self):
        """The underlying function of a map-span (left leg inverted)."""
        if not self.is_map():
            raise ValueError("not a map-span")
        return self.left.inverse().then(self.right)


def graph(fn: SetFn) -> Span:
    """The canonical graph span of a function."""
    return Span(fn.domain, fn.codomain, fn.domain,
                SetFn.identity(fn.domain), fn)


def identity_span(carrier: FinSet) -> Span:
    return graph(SetFn.identity(carrier))


def reverse(span: Span) -> Span:
    """Swap the legs.  For a map this is its right adjoint."""
    return Span(span.target, span.source, span.apex, span.right, span.left)


def relabel_apex(span: Span, names: SetFn) -> Span:
    """Transport a span along a bijective renaming of its apex.

    Used by generators to produce maps that are not in canonical graph form.
    """
    if names.domain != span.apex or not names.is_bijective():
        raise ValueError("apex relabeling must be a bijection from the apex")
    back = names.inverse()
    return Span(span.source, span.target, names.codomain,
                back.then(span.left), back.then(span.right))


class SpanCell:
    """A 2-cell between parallel spans: an apex function commuting with legs."""

    __slots__ = ("dom", "cod", "fn", "_hash")

    def __init__(self, dom: Span, cod: Span, fn: SetFn):
        if dom.source != cod.source or dom.target != cod.target:
            raise ValueError("2-cell between non-parallel spans")
        if fn.domain != dom.apex or fn.codomain != cod.apex:
            raise ValueError("2-cell function does not match the apexes")
        for s in dom.apex:
            t = fn(s)
            if cod.left(t) != dom.left(s) or cod.right(t) != dom.right(s):
                raise ValueError(
                    "2-cell does not commute with the legs at %s" % render_label(s))
        self.dom = dom
        self.cod = cod
        self.fn = fn
        self._hash = hash((dom, cod, fn))

    def __call__(self, label):
        return self.fn(label)

    def __eq__(self, other):
        return (isinstance(other, SpanCell) and self.dom == other.dom
                and self.cod == other.cod and self.fn == other.fn)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        entries = ", ".join(
            "%s:%s" % (render_label(s), render_label(self.fn(s)))
            for s in self.dom.apex
        )
        return "SpanCell{%s}" % entries


class SpanBicat:
    """The bicategory operations of spans over finite sets."""

    name = "span"

    def __init__(self):
        self._composites = {}

    def forget_composites(self) -> None:
        """Empty the memo of composites.  The harness calls this when a unit
        of work starts; other callers of ``comp`` call it to bound memory."""
        self._composites.clear()

    # -- 1-cell structure ------------------------------------------------

    def identity(self, carrier: FinSet) -> Span:
        return identity_span(carrier)

    def comp(self, R: Span, T: Span) -> Span:
        """Diagrammatic composite ``R then T`` on the canonical pullback,
        memoised within the current unit of work."""
        key = (R, T)
        got = self._composites.get(key)
        if got is None:
            got = self._composites[key] = self._compose(R, T)
        return got

    def _compose(self, R: Span, T: Span) -> Span:
        if R.target != T.source:
            raise ValueError("composite of non-composable spans")
        if R.is_identity():
            return T
        if T.is_identity():
            return R
        if R.is_graph() and T.is_graph():
            return graph(R.right.then(T.right))
        apex = FinSet(
            (r, t)
            for r in R.apex for t in T.apex
            if R.right(r) == T.left(t)
        )
        left = SetFn(apex, R.source, (R.left(r) for (r, t) in apex))
        right = SetFn(apex, T.target, (T.right(t) for (r, t) in apex))
        return Span(R.source, T.target, apex, left, right)

    def comp_pair(self, R: Span, T: Span, r_elt, t_elt):
        """The element of ``comp(R, T)`` determined by composable factor
        elements ``r_elt`` of R's apex and ``t_elt`` of T's apex."""
        if R.is_identity():
            return t_elt
        if T.is_identity():
            return r_elt
        if R.is_graph() and T.is_graph():
            return r_elt
        return (r_elt, t_elt)

    def comp_split(self, R: Span, T: Span, c_elt):
        """Inverse direction of :meth:`comp_pair`: recover the factor pair."""
        if R.is_identity():
            return T.left(c_elt), c_elt
        if T.is_identity():
            return c_elt, R.right(c_elt)
        if R.is_graph() and T.is_graph():
            return c_elt, R.right(c_elt)
        return c_elt

    # -- 2-cell structure ------------------------------------------------

    def cell(self, dom: Span, cod: Span, fn: SetFn) -> SpanCell:
        return SpanCell(dom, cod, fn)

    def cell_from_callable(self, dom: Span, cod: Span, fn) -> SpanCell:
        return SpanCell(dom, cod, SetFn.from_callable(dom.apex, cod.apex, fn))

    def id2(self, R: Span) -> SpanCell:
        return SpanCell(R, R, SetFn.identity(R.apex))

    def vcomp(self, a: SpanCell, b: SpanCell) -> SpanCell:
        if a.cod != b.dom:
            raise ValueError("vertical composite of non-composable 2-cells")
        return SpanCell(a.dom, b.cod, a.fn.then(b.fn))

    def vc(self, *cells: SpanCell) -> SpanCell:
        out = cells[0]
        for c in cells[1:]:
            out = self.vcomp(out, c)
        return out

    def whisker_left(self, T: Span, a: SpanCell) -> SpanCell:
        """``comp(T, dom a) -> comp(T, cod a)``: act on the second factor."""
        dom = self.comp(T, a.dom)
        cod = self.comp(T, a.cod)

        def fn(c):
            t, d = self.comp_split(T, a.dom, c)
            return self.comp_pair(T, a.cod, t, a(d))

        return self.cell_from_callable(dom, cod, fn)

    def whisker_right(self, a: SpanCell, T: Span) -> SpanCell:
        """``comp(dom a, T) -> comp(cod a, T)``: act on the first factor."""
        dom = self.comp(a.dom, T)
        cod = self.comp(a.cod, T)

        def fn(c):
            d, t = self.comp_split(a.dom, T, c)
            return self.comp_pair(a.cod, T, a(d), t)

        return self.cell_from_callable(dom, cod, fn)

    def hcomp(self, a: SpanCell, b: SpanCell) -> SpanCell:
        """Horizontal composite ``comp(dom a, dom b) -> comp(cod a, cod b)``."""
        dom = self.comp(a.dom, b.dom)
        cod = self.comp(a.cod, b.cod)

        def fn(c):
            r, t = self.comp_split(a.dom, b.dom, c)
            return self.comp_pair(a.cod, b.cod, a(r), b(t))

        return self.cell_from_callable(dom, cod, fn)

    def assoc(self, A: Span, B: Span, C: Span) -> SpanCell:
        """The canonical rebracketing ``comp(comp(A,B),C) -> comp(A,comp(B,C))``.

        Degenerates to an identity cell whenever the special-cased composites
        make both sides literally equal.
        """
        dom = self.comp(self.comp(A, B), C)
        cod = self.comp(A, self.comp(B, C))

        def fn(elt):
            ab, c = self.comp_split(self.comp(A, B), C, elt)
            a, b = self.comp_split(A, B, ab)
            return self.comp_pair(A, self.comp(B, C), a,
                                  self.comp_pair(B, C, b, c))

        return self.cell_from_callable(dom, cod, fn)

    def assoc_inv(self, A: Span, B: Span, C: Span) -> SpanCell:
        return self.invert(self.assoc(A, B, C))

    def is_invertible(self, a: SpanCell) -> bool:
        return a.fn.is_bijective()

    def invert(self, a: SpanCell) -> SpanCell:
        if not a.fn.is_bijective():
            raise ValueError("2-cell is not invertible")
        return SpanCell(a.cod, a.dom, a.fn.inverse())

    def hom_cells(self, R: Span, S: Span, budget: int = 1_000_000):
        """All 2-cells ``R -> S``, enumerated deterministically.

        The count is the product over R's apex of the matching fibre sizes
        in S; ``budget`` guards against accidental blow-ups in tests.
        """
        slots = []
        for s in R.apex:
            matches = [t for t in S.apex
                       if S.left(t) == R.left(s) and S.right(t) == R.right(s)]
            if not matches:
                return
            slots.append(matches)
        total = 1
        for m in slots:
            total *= len(m)
            if total > budget:
                raise RuntimeError("2-cell enumeration exceeds budget")
        for values in itertools.product(*slots):
            yield SpanCell(R, S, SetFn(R.apex, S.apex, values))

    # -- local (hom-category) products ------------------------------------

    def wedge_apex(self, R: Span, S: Span) -> FinSet:
        return FinSet(
            (r, s)
            for r in R.apex for s in S.apex
            if R.left(r) == S.left(s) and R.right(r) == S.right(s)
        )

    def local_product(self, R: Span, S: Span):
        if R.source != S.source or R.target != S.target:
            raise ValueError("local product of non-parallel spans")
        apex = self.wedge_apex(R, S)
        W = Span(R.source, R.target, apex,
                 SetFn(apex, R.source, (R.left(r) for (r, s) in apex)),
                 SetFn(apex, R.target, (R.right(r) for (r, s) in apex)))
        proj1 = self.cell_from_callable(W, R, lambda rs: rs[0])
        proj2 = self.cell_from_callable(W, S, lambda rs: rs[1])

        def pair(phi: SpanCell, psi: SpanCell) -> SpanCell:
            if phi.dom != psi.dom:
                raise ValueError("cone legs have different domains")
            if phi.cod != R or psi.cod != S:
                raise ValueError("cone legs do not land in the two factors")
            return self.cell_from_callable(
                phi.dom, W, lambda t: (phi(t), psi(t)))

        from .homprod import LocalProductWitness
        return LocalProductWitness(W, proj1, proj2, pair)

    def local_terminal(self, source: FinSet, target: FinSet) -> Span:
        """The chosen terminal object of the hom-category.

        Chosen so that composing the terminal frames around the unit
        carrier reproduces it on the nose: the identity on the unit itself,
        a (reversed) terminal graph when exactly one side is the unit, and
        the full pair apex otherwise.
        """
        if source == UNIT and target == UNIT:
            return identity_span(UNIT)
        if source == UNIT:
            return reverse(graph(SetFn.constant(target, UNIT, "*")))
        if target == UNIT:
            return graph(SetFn.constant(source, UNIT, "*"))
        apex = source.product(target)
        return Span(source, target, apex,
                    SetFn(apex, source, (x for (x, a) in apex)),
                    SetFn(apex, target, (a for (x, a) in apex)))

    def tau(self, R: Span) -> SpanCell:
        """The unique 2-cell into the chosen local terminal."""
        top = self.local_terminal(R.source, R.target)
        if top.is_identity() or R.target == UNIT:
            return self.cell_from_callable(R, top, lambda s: R.left(s))
        if R.source == UNIT:
            return self.cell_from_callable(R, top, lambda s: R.right(s))
        return self.cell_from_callable(
            R, top, lambda s: (R.left(s), R.right(s)))

    def fill_pair_cone(self, T: Span, U: Span, alpha: SpanCell,
                       beta: SpanCell, p: Span, r: Span) -> SpanCell:
        """The candidate fill ``T -> U`` for a cone over two projection legs.

        Whiskering with either leg pins each apex element's image, so the
        fill is computed pointwise; the two pins must agree and assemble
        into a leg-respecting function, otherwise no fill exists.
        """
        from .mapprod import FillError
        pinv = p.left.inverse()
        rinv = r.left.inverse()
        values = []
        for t in T.apex:
            v = T.right(t)
            u1, _ = self.comp_split(U, p, alpha(self.comp_pair(T, p, t, pinv(v))))
            u2, _ = self.comp_split(U, r, beta(self.comp_pair(T, r, t, rinv(v))))
            if u1 != u2:
                raise FillError("no-solution",
                                "projection pins disagree at %r" % (t,))
            values.append(u1)
        try:
            return SpanCell(T, U, SetFn(T.apex, U.apex, values))
        except ValueError as exc:
            raise FillError("no-solution", str(exc)) from None

    # -- maps, adjunctions, equivalences -----------------------------------

    def graph(self, fn: SetFn) -> Span:
        return graph(fn)

    def normalize_map(self, R: Span) -> Span:
        """Canonical graph form of a map-span."""
        return graph(R.fn())

    def map_adjunction(self, R: Span):
        """The adjunction ``R -| reverse(R)`` for any map-span, canonical
        form or not.

        The unit is the diagonal into the kernel-pair apex and the counit
        collapses each fibre pair to its common image.
        """
        if not R.is_map():
            raise ValueError("adjunction requested for a non-map span")
        from .kernel import Adjunction
        rstar = reverse(R)
        linv = R.left.inverse()
        unit_cod = self.comp(R, rstar)
        unit = self.cell_from_callable(
            self.identity(R.source), unit_cod,
            lambda x: self.comp_pair(R, rstar, linv(x), linv(x)))
        counit_dom = self.comp(rstar, R)

        def collapse(c):
            _, t = self.comp_split(rstar, R, c)
            return R.right(t)

        counit = self.cell_from_callable(
            counit_dom, self.identity(R.target), collapse)
        return Adjunction(R, rstar, unit, counit)

    def is_map(self, R: Span):
        """None for non-maps, otherwise the adjunction of the normalized
        graph form."""
        if not R.is_map():
            return None
        return self.map_adjunction(self.normalize_map(R))

    def equivalence_witness(self, R: Span):
        """Equivalences of spans are exactly the spans with two bijective
        legs; the witness is the adjunction against the reversed span."""
        if not (R.left.is_bijective() and R.right.is_bijective()):
            return None
        from .kernel import EquivWitness
        adj = self.map_adjunction(R)
        return EquivWitness(adj.left, adj.right, adj.unit, adj.counit)

    def one_cells(self, source: FinSet, target: FinSet, max_apex: int):
        """Every span ``source -> target`` with apex a canonical carrier of
        size at most ``max_apex``.  Exhaustive-test helper."""
        from .fin import all_functions
        for n in range(max_apex + 1):
            apex = FinSet("s%d" % i for i in range(n))
            for left in all_functions(apex, source):
                for right in all_functions(apex, target):
                    yield Span(source, target, apex, left, right)


