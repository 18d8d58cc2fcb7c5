"""Relations between finite sets, as a locally posetal bicategory.

There is at most one 2-cell between parallel relations: the witness that the
first is contained in the second.  Composition of relations is strictly
associative and unital on the nose, so every structural cell here is an
identity witness and equation checking degenerates to boundary equality.
The real content sits in cell construction: building a pasting whose
underlying containment fails raises immediately.  Random relations and
their thickenings and thinnings are drawn here, from a given ``rng``, next
to the exhaustive :meth:`RelBicat.one_cells`.

A relation keeps its pairs once, as a ``frozenset``; composition,
containment and intersection read that set, and only the readers that need
an order (printing, the random draws) ask for the label-sorted
``pairs`` view, computed on each read.  Relations and their cells are
hash-consed in the value table of :mod:`bicat.fin`, so they compare by
identity, and :class:`RelBicat` memoises its structure operations
(``comp``, ``identity``, ``id2``, ``vcomp``, the whiskerings, ``hcomp``,
``assoc``, ``invert``, ``map_adjunction`` and ``local_product``), and
:meth:`Rel.fn` and :meth:`Rel.is_map` their results, in the per-unit memo.
"""

from __future__ import annotations

import itertools

from .fin import (_VALUES, FinSet, SetFn, _Ref, label_key, memoised,
                  render_label)
from .homprod import LocalProductWitness
from .kernel import Adjunction, require_map


def _pair_key(p):
    return label_key(p[0]), label_key(p[1])


class Rel:
    """A binary relation between two finite carriers."""

    __slots__ = ("source", "target", "pairset", "__weakref__")

    def __new__(cls, source: FinSet, target: FinSet, pairs):
        ps = frozenset(pairs)
        key = (cls, source, target, ps)
        self = _VALUES.get(key)
        if self is None or (type(self) is _Ref and (self := self()) is None):
            for x, a in ps:
                if x not in source or a not in target:
                    raise ValueError("relation pair out of bounds")
            self = _VALUES[key] = object.__new__(cls)
            self.source = source
            self.target = target
            self.pairset = ps
        return self

    @property
    def pairs(self) -> tuple:
        """The pairs in label order, for the readers that need an order."""
        return tuple(sorted(self.pairset, key=_pair_key))

    def __contains__(self, pair):
        return pair in self.pairset

    def __repr__(self):
        body = ", ".join("%s:%s" % (render_label(x), render_label(a))
                         for x, a in self.pairs)
        return "Rel{%s}" % body

    @memoised
    def is_map(self):
        """True when the relation is the graph of a total function."""
        seen = {}
        for x, a in self.pairset:
            if x in seen:
                return False
            seen[x] = a
        return len(seen) == len(self.source)

    @memoised
    def fn(self) -> SetFn:
        """The function whose graph this relation is."""
        table = dict(self.pairset)
        if not len(table) == len(self.pairset) == len(self.source):
            raise ValueError("not a map relation")
        return SetFn(self.source, self.target, (table[x] for x in self.source))


def rel_graph(fn: SetFn) -> Rel:
    return Rel(fn.domain, fn.codomain, ((x, fn(x)) for x in fn.domain))


def identity_rel(carrier: FinSet) -> Rel:
    return Rel(carrier, carrier, ((x, x) for x in carrier))


def converse(rel: Rel) -> Rel:
    return Rel(rel.target, rel.source, ((a, x) for x, a in rel.pairset))


class RelCell:
    """The containment witness between parallel relations, if it holds."""

    __slots__ = ("dom", "cod", "__weakref__")

    def __new__(cls, dom: Rel, cod: Rel):
        key = (cls, dom, cod)
        self = _VALUES.get(key)
        if self is None or (type(self) is _Ref and (self := self()) is None):
            if dom.source != cod.source or dom.target != cod.target:
                raise ValueError("2-cell between non-parallel relations")
            missing = dom.pairset - cod.pairset
            if missing:
                x, a = min(missing, key=_pair_key)
                raise ValueError("containment fails at %s:%s"
                                 % (render_label(x), render_label(a)))
            self = _VALUES[key] = object.__new__(cls)
            self.dom = dom
            self.cod = cod
        return self

    def __repr__(self):
        return "RelCell(%r <= %r)" % (self.dom, self.cod)


class RelBicat:
    """The bicategory operations of relations over finite sets."""

    name = "rel"

    @memoised
    def identity(self, carrier: FinSet) -> Rel:
        return identity_rel(carrier)

    @memoised
    def comp(self, R: Rel, T: Rel) -> Rel:
        """Relational composite ``R then T``."""
        if R.target != T.source:
            raise ValueError("composite of non-composable relations")
        out = set()
        by_left = {}
        for y, z in T.pairset:
            by_left.setdefault(y, []).append(z)
        for x, y in R.pairset:
            for z in by_left.get(y, ()):
                out.add((x, z))
        return Rel(R.source, T.target, out)

    @memoised
    def id2(self, R: Rel) -> RelCell:
        return RelCell(R, R)

    @memoised
    def vcomp(self, a: RelCell, b: RelCell) -> RelCell:
        if a.cod != b.dom:
            raise ValueError("vertical composite of non-composable 2-cells")
        return RelCell(a.dom, b.cod)

    def vc(self, *cells):
        out = cells[0]
        for c in cells[1:]:
            out = self.vcomp(out, c)
        return out

    @memoised
    def whisker_left(self, T: Rel, a: RelCell) -> RelCell:
        return RelCell(self.comp(T, a.dom), self.comp(T, a.cod))

    @memoised
    def whisker_right(self, a: RelCell, T: Rel) -> RelCell:
        return RelCell(self.comp(a.dom, T), self.comp(a.cod, T))

    @memoised
    def hcomp(self, a: RelCell, b: RelCell) -> RelCell:
        return RelCell(self.comp(a.dom, b.dom), self.comp(a.cod, b.cod))

    @memoised
    def assoc(self, A: Rel, B: Rel, C: Rel) -> RelCell:
        # Strict associativity: both bracketings are the same value.
        return RelCell(self.comp(self.comp(A, B), C),
                       self.comp(A, self.comp(B, C)))

    def assoc_inv(self, A: Rel, B: Rel, C: Rel) -> RelCell:
        return self.invert(self.assoc(A, B, C))

    def is_invertible(self, a: RelCell) -> bool:
        return a.dom == a.cod

    @memoised
    def invert(self, a: RelCell) -> RelCell:
        if a.dom != a.cod:
            raise ValueError("2-cell is not invertible")
        return RelCell(a.cod, a.dom)

    def hom_cells(self, R: Rel, S: Rel):
        """The containment ``R -> S`` when R and S are parallel and it holds."""
        if (R.source == S.source and R.target == S.target
                and R.pairset <= S.pairset):
            yield RelCell(R, S)

    @memoised
    def local_product(self, R: Rel, S: Rel):
        if R.source != S.source or R.target != S.target:
            raise ValueError("local product of non-parallel relations")
        W = Rel(R.source, R.target, R.pairset & S.pairset)
        return LocalProductWitness(W, RelCell(W, R), RelCell(W, S),
                                   lambda phi, psi: RelCell(phi.dom, W))

    def local_terminal(self, source: FinSet, target: FinSet) -> Rel:
        # The full relation; on the unit carrier it coincides with the
        # identity, so no special case is needed to keep units strict.
        return Rel(source, target,
                   ((x, a) for x in source for a in target))

    def tau(self, R: Rel) -> RelCell:
        return RelCell(R, self.local_terminal(R.source, R.target))

    def graph(self, fn: SetFn) -> Rel:
        return rel_graph(fn)

    @memoised
    def map_adjunction(self, R: Rel):
        """``R -| converse(R)`` when R is the graph of a function."""
        require_map(R)
        rstar = converse(R)
        unit = RelCell(self.identity(R.source), self.comp(R, rstar))
        counit = RelCell(self.comp(rstar, R), self.identity(R.target))
        return Adjunction(R, rstar, unit, counit)

    def one_cells(self, source: FinSet, target: FinSet, max_apex: int):
        """Every relation ``source -> target``.  The bound is ignored: the
        poset of relations is already finite."""
        universe = [(x, a) for x in source for a in target]
        for n in range(len(universe) + 1):
            for chosen in itertools.combinations(universe, n):
                yield Rel(source, target, chosen)

    def one_cell(self, rng, source: FinSet, target: FinSet, max_apex: int):
        """A random relation, each pair in it with probability 1/2; the
        bound is ignored, as in :meth:`one_cells`."""
        return Rel(source, target, [(x, a) for x in source for a in target
                                    if rng.random() < 0.5])

    def thicken(self, rng, R: Rel, extra: int):
        """A relation containing ``R`` with the inclusion 2-cell into it: each
        pair of the carriers joins with probability 0.3; ``extra`` is ignored."""
        bigger = Rel(R.source, R.target,
                     R.pairset.union((x, a) for x in R.source for a in R.target
                                     if rng.random() < 0.3))
        return bigger, RelCell(R, bigger)

    def thin(self, rng, R: Rel):
        """A relation contained in ``R`` with the inclusion 2-cell out of it:
        each pair, in label order, kept with probability 0.7."""
        smaller = Rel(R.source, R.target,
                      (p for p in R.pairs if rng.random() < 0.7))
        return smaller, RelCell(smaller, R)

    def scramble(self, rng, m: Rel) -> Rel:
        """``m``: a relation has no apex to relabel, so nothing is drawn."""
        return m


def span_image(span) -> Rel:
    """The relation traced out by a span's legs.

    This is the identity-on-objects quotient from spans to relations; tests
    use it as an independent oracle for composition.
    """
    return Rel(span.source, span.target,
               ((span.left(s), span.right(s)) for s in span.apex))
