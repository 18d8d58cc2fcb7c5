"""Spans of finite sets as a locally finite bicategory.

A 1-cell ``X -> A`` is a span: an apex carrier with a left leg into ``X`` and
a right leg into ``A``.  A 2-cell is a function between apexes commuting with
both legs.  Composition is written diagrammatically throughout: ``comp(R, T)``
is "R then T", a pullback of R's right leg against T's left leg, chosen up to
isomorphism.  A pullback along an identity leg is the other span, so two
rules, checked in this order, keep that span's apex:

* T is a graph (left leg the identity): R's apex, with legs ``R.left`` and
  ``R.right.then(T.right)``;
* R is a cograph (right leg the identity: identities and reversed graphs):
  T's apex, with legs ``T.left.then(R.left)`` and ``T.right``.

Otherwise the apex is the pairs ``(r, t)`` with ``R.right(r) == T.left(t)``,
listed row-major.  As spans are hash-consed, composing with an identity
returns the other span, and two graphs compose to the graph of the composite.

Two helpers, :meth:`SpanBicat._split` and :meth:`SpanBicat._pair`, translate
between factor elements and composite elements by the same two rules.  They
pick the representation once per composite and then walk aligned element
tuples: a list of composite elements against the two lists of factor
elements it splits into.  Every whiskering, horizontal composite,
associativity cell and adjunction unit and counit is defined through them,
so no other code knows a composite's apex, and a cell's apex function is
read through the aligned ``values`` tuples and the apex index, never
element by element through :meth:`SetFn.__call__`.

Whether a span is in graph or cograph form is decided once, when it is
built.  Spans and their cells are hash-consed in the value table of
:mod:`bicat.fin`, so they compare by identity.  :class:`SpanBicat` memoises
its structure operations (``comp``, ``identity``, ``id2``, ``vcomp``, the
whiskerings, ``hcomp``, ``assoc``, ``invert``, ``map_adjunction`` and
``local_product``), and :meth:`Span.fn`, :meth:`Span.is_map` and
``_fibres`` their results, in the per-unit memo, so an operation repeated
within a unit returns the object it returned before.

Identity 2-cells are recognised once, when they are built, and the structure
operations return them without building a cell: a composite with, or a
whiskering or an inverse of, an identity, and the associator in the three
cases :meth:`SpanBicat.assoc` lists.

Random spans, thickenings, thinnings and apex relabellings are drawn here,
from a given ``rng``, next to the exhaustive :meth:`SpanBicat.one_cells`.
"""

from __future__ import annotations

import itertools

from .fin import (_VALUES, FinSet, SetFn, UNIT, _Ref, all_functions,
                  canonical_carrier, memoised, render_label, set_fn)
from .homprod import LocalProductWitness
from .kernel import Adjunction, require_map

#: Guards against a blow-up: one :meth:`SpanBicat.hom_cells` enumeration
#: raises past this many cells, so an existence query never trips it.
HOM_CELLS_LIMIT = 1_000_000


@memoised
def _fibres(S: "Span") -> dict:
    """S's apex elements keyed by their pair of leg values, each list in
    apex order: the build side of the hash joins over two parallel spans,
    shared within a unit, so callers only read it."""
    fibres = {}
    for s, legs in zip(S.apex.elements, zip(S.left.values, S.right.values)):
        fibres.setdefault(legs, []).append(s)
    return fibres


class Span:
    """A span between two finite carriers.

    >>> from bicat.fin import FinSet, SetFn
    >>> X = FinSet("xy"); A = FinSet("ab")
    >>> S = FinSet(["s0", "s1", "s2"])
    >>> R = Span(X, A, S, SetFn(S, X, "xxy"), SetFn(S, A, "aba"))
    >>> R.is_map()
    False
    """

    __slots__ = ("source", "target", "apex", "left", "right", "_graph",
                 "_cograph", "__weakref__")

    def __new__(cls, source: FinSet, target: FinSet, apex: FinSet,
                left: SetFn, right: SetFn):
        key = (cls, source, target, apex, left, right)
        self = _VALUES.get(key)
        if self is None or (type(self) is _Ref and (self := self()) is None):
            if left.domain != apex or left.codomain != source:
                raise ValueError("left leg does not match the span boundary")
            if right.domain != apex or right.codomain != target:
                raise ValueError("right leg does not match the span boundary")
            self = _VALUES[key] = object.__new__(cls)
            self.source = source
            self.target = target
            self.apex = apex
            self.left = left
            self.right = right
            self._graph = apex == source and left.is_identity()
            self._cograph = apex == target and right.is_identity()
        return self

    def __repr__(self):
        entries = ", ".join(
            "%s<-%s->%s" % (render_label(self.left(s)), render_label(s),
                            render_label(self.right(s)))
            for s in self.apex
        )
        return "Span[%s]" % entries

    def is_identity(self) -> bool:
        return self._graph and self._cograph

    @memoised
    def is_map(self) -> bool:
        """Maps are the spans whose left leg is a bijection."""
        return self.left.is_bijective()

    @memoised
    def fn(self):
        """The underlying function of a map-span (left leg inverted)."""
        try:
            back = self.left.inverse()
        except ValueError:
            raise ValueError("not a map-span") from None
        return back.then(self.right)


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

    :meth:`SpanBicat.scramble` produces maps out of graph form with it.
    """
    refused = "apex relabeling must be a bijection from the apex"
    if names.domain != span.apex:
        raise ValueError(refused)
    try:
        back = names.inverse()
    except ValueError:
        raise ValueError(refused) from None
    return Span(span.source, span.target, names.codomain,
                back.then(span.left), back.then(span.right))


class SpanCell:
    """A 2-cell between parallel spans: an apex function commuting with legs."""

    __slots__ = ("dom", "cod", "fn", "_identity", "__weakref__")

    def __new__(cls, dom: Span, cod: Span, fn: SetFn):
        key = (cls, dom, cod, fn)
        self = _VALUES.get(key)
        if self is None or (type(self) is _Ref and (self := self()) is None):
            if dom.source != cod.source or dom.target != cod.target:
                raise ValueError("2-cell between non-parallel spans")
            if fn.domain != dom.apex or fn.codomain != cod.apex:
                raise ValueError("2-cell function does not match the apexes")
            index, lefts, rights = (cod.apex._index, cod.left.values,
                                    cod.right.values)
            for s, t, x, a in zip(dom.apex.elements, fn.values,
                                  dom.left.values, dom.right.values):
                i = index[t]
                if lefts[i] != x or rights[i] != a:
                    raise ValueError("2-cell does not commute with the legs "
                                     "at %s" % render_label(s))
            self = _VALUES[key] = object.__new__(cls)
            self.dom = dom
            self.cod = cod
            self.fn = fn
            self._identity = dom is cod and fn.values == dom.apex.elements
        return self

    def __repr__(self):
        entries = ", ".join(
            "%s:%s" % (render_label(s), render_label(self.fn(s)))
            for s in self.dom.apex
        )
        return "SpanCell{%s}" % entries


class SpanBicat:
    """The bicategory operations of spans over finite sets."""

    name = "span"

    # -- 1-cell structure ------------------------------------------------

    @memoised
    def identity(self, carrier: FinSet) -> Span:
        return identity_span(carrier)

    @memoised
    def comp(self, R: Span, T: Span) -> Span:
        """Diagrammatic composite ``R then T``: along an identity leg, the
        other factor's apex, else the canonical pullback."""
        if R.target != T.source:
            raise ValueError("composite of non-composable spans")
        if T._graph:
            return Span(R.source, T.target, R.apex, R.left,
                        R.right.then(T.right))
        if R._cograph:
            return Span(R.source, T.target, T.apex, T.left.then(R.left),
                        T.right)
        # Hash join on the middle carrier: each fibre of T's left leg keeps
        # T's apex order, so the pairs come out row-major.
        fibres = {}
        for t, y, z in zip(T.apex.elements, T.left.values, T.right.values):
            fibres.setdefault(y, []).append((t, z))
        pairs, lefts, rights = [], [], []
        for r, x, y in zip(R.apex.elements, R.left.values, R.right.values):
            for t, z in fibres.get(y, ()):
                pairs.append((r, t))
                lefts.append(x)
                rights.append(z)
        apex = FinSet(pairs)
        return Span(R.source, T.target, apex, SetFn(apex, R.source, lefts),
                    SetFn(apex, T.target, rights))

    @staticmethod
    def _pair(R: Span, T: Span, rs, ts):
        """The elements of ``comp(R, T)`` determined by composable factor
        elements: ``rs`` of R's apex aligned with ``ts`` of T's apex."""
        if T._graph:
            return rs
        if R._cograph:
            return ts
        return list(zip(rs, ts))

    @staticmethod
    def _split(R: Span, T: Span, cs):
        """Inverse direction of :meth:`_pair`: the factor elements of R's
        apex and of T's apex, each aligned with the elements ``cs`` of
        ``comp(R, T)``."""
        if T._graph:
            return cs, R.right.values_at(cs)
        if R._cograph:
            return T.left.values_at(cs), cs
        return [r for r, _ in cs], [t for _, t in cs]

    @staticmethod
    def _cell(dom: Span, cod: Span, values) -> SpanCell:
        """The 2-cell whose apex function takes the values ``values``,
        aligned with ``dom``'s apex."""
        return SpanCell(dom, cod, SetFn(dom.apex, cod.apex, values))

    # -- 2-cell structure ------------------------------------------------

    @memoised
    def id2(self, R: Span) -> SpanCell:
        return SpanCell(R, R, SetFn.identity(R.apex))

    @memoised
    def vcomp(self, a: SpanCell, b: SpanCell) -> SpanCell:
        if a.cod != b.dom:
            raise ValueError("vertical composite of non-composable 2-cells")
        if a._identity or b._identity:
            return b if a._identity else a
        return SpanCell(a.dom, b.cod, a.fn.then(b.fn))

    def vc(self, *cells: SpanCell) -> SpanCell:
        out = cells[0]
        for c in cells[1:]:
            out = self.vcomp(out, c)
        return out

    @memoised
    def whisker_left(self, T: Span, a: SpanCell) -> SpanCell:
        """``comp(T, dom a) -> comp(T, cod a)``: act on the second factor."""
        dom = self.comp(T, a.dom)
        if a._identity:
            return self.id2(dom)
        ts, ds = self._split(T, a.dom, dom.apex.elements)
        return self._cell(dom, self.comp(T, a.cod),
                          self._pair(T, a.cod, ts, a.fn.values_at(ds)))

    @memoised
    def whisker_right(self, a: SpanCell, T: Span) -> SpanCell:
        """``comp(dom a, T) -> comp(cod a, T)``: act on the first factor."""
        dom = self.comp(a.dom, T)
        if a._identity:
            return self.id2(dom)
        ds, ts = self._split(a.dom, T, dom.apex.elements)
        return self._cell(dom, self.comp(a.cod, T),
                          self._pair(a.cod, T, a.fn.values_at(ds), ts))

    @memoised
    def hcomp(self, a: SpanCell, b: SpanCell) -> SpanCell:
        """Horizontal composite ``comp(dom a, dom b) -> comp(cod a, cod b)``."""
        dom = self.comp(a.dom, b.dom)
        if a._identity and b._identity:
            return self.id2(dom)
        rs, ts = self._split(a.dom, b.dom, dom.apex.elements)
        return self._cell(dom, self.comp(a.cod, b.cod),
                          self._pair(a.cod, b.cod, a.fn.values_at(rs),
                                     b.fn.values_at(ts)))

    @memoised
    def assoc(self, A: Span, B: Span, C: Span) -> SpanCell:
        """The canonical rebracketing ``comp(comp(A,B),C) -> comp(A,comp(B,C))``.

        It is the identity where the identity-leg rules build both
        bracketings the same way:

        * C is a graph: ``comp(comp(A, B), C)`` keeps the apex of
          ``comp(A, B)`` and ``comp(B, C)`` keeps B's, so
          ``comp(A, comp(B, C))`` is built by the rule that built
          ``comp(A, B)``;
        * A is a cograph: the mirror image;
        * B is an identity: both sides are ``comp(A, C)``.
        """
        AB, BC = self.comp(A, B), self.comp(B, C)
        dom = self.comp(AB, C)
        if C._graph or A._cograph or B.is_identity():
            return self.id2(dom)
        abs_, cs = self._split(AB, C, dom.apex.elements)
        as_, bs = self._split(A, B, abs_)
        return self._cell(dom, self.comp(A, BC),
                          self._pair(A, BC, as_, self._pair(B, C, bs, cs)))

    def assoc_inv(self, A: Span, B: Span, C: Span) -> SpanCell:
        return self.invert(self.assoc(A, B, C))

    def is_invertible(self, a: SpanCell) -> bool:
        return a.fn.is_bijective()

    @memoised
    def invert(self, a: SpanCell) -> SpanCell:
        if a._identity:
            return a
        try:
            back = a.fn.inverse()
        except ValueError:
            raise ValueError("2-cell is not invertible") from None
        return SpanCell(a.cod, a.dom, back)

    def hom_cells(self, R: Span, S: Span):
        """All 2-cells ``R -> S``, enumerated deterministically; none when
        the spans are not parallel.

        The count is the product over R's apex of the matching fibre sizes
        in S; at most :data:`HOM_CELLS_LIMIT` are yielded.
        """
        if R.source != S.source or R.target != S.target:
            return
        fibres = _fibres(S)
        slots = []
        for legs in zip(R.left.values, R.right.values):
            matches = fibres.get(legs)
            if matches is None:
                return
            slots.append(matches)
        for n, values in enumerate(itertools.product(*slots)):
            if n == HOM_CELLS_LIMIT:
                raise RuntimeError("2-cell enumeration exceeds %d cells"
                                   % HOM_CELLS_LIMIT)
            yield SpanCell(R, S, SetFn(R.apex, S.apex, values))

    # -- local (hom-category) products ------------------------------------

    def _wedge_apex(self, R: Span, S: Span) -> FinSet:
        """The pairs of R's and S's apex elements with equal legs, row-major."""
        fibres = _fibres(S)
        return FinSet(
            (r, s)
            for r, legs in zip(R.apex.elements,
                               zip(R.left.values, R.right.values))
            for s in fibres.get(legs, ())
        )

    @memoised
    def local_product(self, R: Span, S: Span):
        if R.source != S.source or R.target != S.target:
            raise ValueError("local product of non-parallel spans")
        apex = self._wedge_apex(R, S)
        firsts = [r for r, _ in apex]
        W = Span(R.source, R.target, apex,
                 SetFn(apex, R.source, R.left.values_at(firsts)),
                 SetFn(apex, R.target, R.right.values_at(firsts)))
        proj1 = self._cell(W, R, firsts)
        proj2 = self._cell(W, S, [s for _, s in apex])

        def mediate(phi: SpanCell, psi: SpanCell) -> SpanCell:
            return self._cell(phi.dom, W, zip(phi.fn.values, psi.fn.values))

        return LocalProductWitness(W, proj1, proj2, mediate)

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
            return self._cell(R, top, R.left.values)
        if R.source == UNIT:
            return self._cell(R, top, R.right.values)
        return self._cell(R, top, zip(R.left.values, R.right.values))

    # -- maps, adjunctions, equivalences -----------------------------------

    def graph(self, fn: SetFn) -> Span:
        return graph(fn)

    @memoised
    def map_adjunction(self, R: Span):
        """The adjunction ``R -| reverse(R)`` for any map-span, canonical
        form or not.

        The unit is the diagonal into the kernel-pair apex and the counit
        collapses each fibre pair to its common image.
        """
        require_map(R)
        rstar = reverse(R)
        diagonal = R.left.inverse().values
        unit = self._cell(self.identity(R.source), self.comp(R, rstar),
                          self._pair(R, rstar, diagonal, diagonal))
        counit_dom = self.comp(rstar, R)
        _, ts = self._split(rstar, R, counit_dom.apex.elements)
        counit = self._cell(counit_dom, self.identity(R.target),
                            R.right.values_at(ts))
        return Adjunction(R, rstar, unit, counit)

    def one_cells(self, source: FinSet, target: FinSet, max_apex: int):
        """Every span ``source -> target`` with apex a canonical carrier of
        size at most ``max_apex``.  Exhaustive-test helper."""
        for n in range(max_apex + 1):
            apex = FinSet("s%d" % i for i in range(n))
            for left in all_functions(apex, source):
                for right in all_functions(apex, target):
                    yield Span(source, target, apex, left, right)

    # -- random draws, each from the ``rng`` it is given --------------------

    def one_cell(self, rng, source: FinSet, target: FinSet, max_apex: int):
        """A random span: a canonical apex of size uniform on [0, max_apex]
        (empty when a carrier is), with uniform legs."""
        apex = canonical_carrier("s", rng.randint(0, max_apex))
        if len(apex) > 0 and (len(source) == 0 or len(target) == 0):
            apex = FinSet(())
        return Span(source, target, apex, set_fn(rng, apex, source),
                    set_fn(rng, apex, target))

    def thicken(self, rng, R: Span, extra: int):
        """A span containing ``R`` with the inclusion 2-cell into it: the
        first ``extra`` of ``e0, e1, ...`` not in R's apex join it, with
        uniform legs, unless a carrier is empty."""
        names = ("e%d" % i for i in range(len(R.apex) + extra))
        fresh = [e for e in names if e not in R.apex][:extra]
        if len(R.source) == 0 or len(R.target) == 0:
            fresh = []
        apex = FinSet(R.apex.elements + tuple(fresh))
        xs, ys = R.source.elements, R.target.elements
        lvals = R.left.values + tuple(rng.choice(xs) for _ in fresh)
        rvals = R.right.values + tuple(rng.choice(ys) for _ in fresh)
        bigger = Span(R.source, R.target, apex, SetFn(apex, R.source, lvals),
                      SetFn(apex, R.target, rvals))
        return bigger, self._cell(R, bigger, R.apex.elements)

    def thin(self, rng, R: Span):
        """A span contained in ``R`` with the inclusion 2-cell out of it:
        each apex element kept with probability 0.7."""
        keep = tuple(s for s in R.apex if rng.random() < 0.7)
        apex = FinSet(keep)
        smaller = Span(R.source, R.target, apex,
                       SetFn(apex, R.source, R.left.values_at(keep)),
                       SetFn(apex, R.target, R.right.values_at(keep)))
        return smaller, self._cell(smaller, R, keep)

    def scramble(self, rng, m: Span) -> Span:
        """``m``, or with probability 1/2 ``m`` with its apex relabelled by a
        uniform bijection onto ``q0, q1, ...``; an empty apex draws nothing."""
        if len(m.apex) > 0 and rng.random() < 0.5:
            names = canonical_carrier("q", len(m.apex))
            values = list(names)
            rng.shuffle(values)
            m = relabel_apex(m, SetFn(m.apex, names, values))
        return m
