"""Relations between finite sets, as a locally posetal bicategory.

There is at most one 2-cell between parallel relations: the witness that the
first is contained in the second.  Composition of relations is strictly
associative and unital on the nose, so every structural cell here is an
identity witness and equation checking degenerates to boundary equality.
The real content sits in cell construction: building a pasting whose
underlying containment fails raises immediately.

:meth:`RelBicat.comp` memoises composites within one unit of work (a
trial, shrink attempt, negative control or fixture record): the harness
empties the memo with :meth:`RelBicat.forget_composites` when a unit
starts, so memory stays flat over a run.  Failures are not stored.
"""

from __future__ import annotations

from .fin import FinSet, SetFn, UNIT, label_key, render_label


class Rel:
    """A binary relation between two finite carriers."""

    __slots__ = ("source", "target", "pairs", "_hash")

    def __init__(self, source: FinSet, target: FinSet, pairs):
        ps = set(pairs)
        for x, a in ps:
            if x not in source or a not in target:
                raise ValueError("relation pair out of bounds")
        self.source = source
        self.target = target
        self.pairs = tuple(sorted(ps, key=lambda p: (label_key(p[0]), label_key(p[1]))))
        self._hash = hash((source, target, self.pairs))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Rel) and self.source == other.source
            and self.target == other.target and self.pairs == other.pairs)

    def __hash__(self):
        return self._hash

    def __contains__(self, pair):
        return pair in set(self.pairs)

    def __repr__(self):
        body = ", ".join("%s:%s" % (render_label(x), render_label(a))
                         for x, a in self.pairs)
        return "Rel{%s}" % body

    def is_identity(self):
        return (self.source == self.target
                and set(self.pairs) == {(x, x) for x in self.source})

    def is_graph(self):
        """True when the relation is the graph of a total function."""
        seen = {}
        for x, a in self.pairs:
            if x in seen:
                return False
            seen[x] = a
        return len(seen) == len(self.source)

    def is_map(self):
        return self.is_graph()

    def fn(self) -> SetFn:
        table = dict(self.pairs)
        return SetFn(self.source, self.target, (table[x] for x in self.source))


def rel_graph(fn: SetFn) -> Rel:
    return Rel(fn.domain, fn.codomain, ((x, fn(x)) for x in fn.domain))


def identity_rel(carrier: FinSet) -> Rel:
    return Rel(carrier, carrier, ((x, x) for x in carrier))


def converse(rel: Rel) -> Rel:
    return Rel(rel.target, rel.source, ((a, x) for x, a in rel.pairs))


class RelCell:
    """The containment witness between parallel relations, if it holds."""

    __slots__ = ("dom", "cod", "_hash")

    def __init__(self, dom: Rel, cod: Rel):
        if dom.source != cod.source or dom.target != cod.target:
            raise ValueError("2-cell between non-parallel relations")
        missing = set(dom.pairs) - set(cod.pairs)
        if missing:
            x, a = min(missing, key=lambda p: (label_key(p[0]), label_key(p[1])))
            raise ValueError(
                "containment fails at %s:%s" % (render_label(x), render_label(a)))
        self.dom = dom
        self.cod = cod
        self._hash = hash((dom, cod))

    def __eq__(self, other):
        return (isinstance(other, RelCell)
                and self.dom == other.dom and self.cod == other.cod)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "RelCell(%r <= %r)" % (self.dom, self.cod)


class RelBicat:
    """The bicategory operations of relations over finite sets."""

    name = "rel"

    def __init__(self):
        self._composites = {}

    def forget_composites(self) -> None:
        """Empty the memo of composites.  The harness calls this when a unit
        of work starts; other callers of ``comp`` call it to bound memory."""
        self._composites.clear()

    def identity(self, carrier: FinSet) -> Rel:
        return identity_rel(carrier)

    def comp(self, R: Rel, T: Rel) -> Rel:
        """Relational composite ``R then T``, memoised within the current
        unit of work."""
        key = (R, T)
        got = self._composites.get(key)
        if got is None:
            got = self._composites[key] = self._compose(R, T)
        return got

    def _compose(self, R: Rel, T: Rel) -> Rel:
        if R.target != T.source:
            raise ValueError("composite of non-composable relations")
        out = set()
        by_left = {}
        for y, z in T.pairs:
            by_left.setdefault(y, []).append(z)
        for x, y in R.pairs:
            for z in by_left.get(y, ()):
                out.add((x, z))
        return Rel(R.source, T.target, out)

    def cell(self, dom: Rel, cod: Rel) -> RelCell:
        return RelCell(dom, cod)

    def id2(self, R: Rel) -> RelCell:
        return RelCell(R, R)

    def vcomp(self, a: RelCell, b: RelCell) -> RelCell:
        if a.cod != b.dom:
            raise ValueError("vertical composite of non-composable 2-cells")
        return RelCell(a.dom, b.cod)

    def vc(self, *cells):
        out = cells[0]
        for c in cells[1:]:
            out = self.vcomp(out, c)
        return out

    def whisker_left(self, T: Rel, a: RelCell) -> RelCell:
        return RelCell(self.comp(T, a.dom), self.comp(T, a.cod))

    def whisker_right(self, a: RelCell, T: Rel) -> RelCell:
        return RelCell(self.comp(a.dom, T), self.comp(a.cod, T))

    def hcomp(self, a: RelCell, b: RelCell) -> RelCell:
        return RelCell(self.comp(a.dom, b.dom), self.comp(a.cod, b.cod))

    def assoc(self, A: Rel, B: Rel, C: Rel) -> RelCell:
        # Strict associativity: both bracketings are the same value.
        return RelCell(self.comp(self.comp(A, B), C),
                       self.comp(A, self.comp(B, C)))

    def assoc_inv(self, A: Rel, B: Rel, C: Rel) -> RelCell:
        return self.invert(self.assoc(A, B, C))

    def is_invertible(self, a: RelCell) -> bool:
        return a.dom == a.cod

    def invert(self, a: RelCell) -> RelCell:
        if a.dom != a.cod:
            raise ValueError("2-cell is not invertible")
        return RelCell(a.cod, a.dom)

    def hom_cells(self, R: Rel, S: Rel, budget: int = 0):
        if set(R.pairs) <= set(S.pairs):
            yield RelCell(R, S)

    def local_product(self, R: Rel, S: Rel):
        if R.source != S.source or R.target != S.target:
            raise ValueError("local product of non-parallel relations")
        W = Rel(R.source, R.target, set(R.pairs) & set(S.pairs))

        def pair(phi: RelCell, psi: RelCell) -> RelCell:
            if phi.dom != psi.dom:
                raise ValueError("cone legs have different domains")
            if phi.cod != R or psi.cod != S:
                raise ValueError("cone legs do not land in the two factors")
            return RelCell(phi.dom, W)

        from .homprod import LocalProductWitness
        return LocalProductWitness(W, RelCell(W, R), RelCell(W, S), pair)

    def local_terminal(self, source: FinSet, target: FinSet) -> Rel:
        # The full relation; on the unit carrier it coincides with the
        # identity, so no special case is needed to keep units strict.
        return Rel(source, target,
                   ((x, a) for x in source for a in target))

    def tau(self, R: Rel) -> RelCell:
        return RelCell(R, self.local_terminal(R.source, R.target))

    def fill_pair_cone(self, T: Rel, U: Rel, alpha, beta, p, r) -> RelCell:
        """Containment is the only candidate fill; the cone cells already
        witness that it restricts along both projections."""
        from .mapprod import FillError
        try:
            return RelCell(T, U)
        except ValueError as exc:
            raise FillError("no-solution", str(exc)) from None

    def graph(self, fn: SetFn) -> Rel:
        return rel_graph(fn)

    def normalize_map(self, R: Rel) -> Rel:
        return R

    def map_adjunction(self, R: Rel):
        """``R -| converse(R)`` when R is the graph of a function."""
        if not R.is_map():
            raise ValueError("adjunction requested for a non-map relation")
        from .kernel import Adjunction
        rstar = converse(R)
        unit = RelCell(self.identity(R.source), self.comp(R, rstar))
        counit = RelCell(self.comp(rstar, R), self.identity(R.target))
        return Adjunction(R, rstar, unit, counit)

    def is_map(self, R: Rel):
        if not R.is_map():
            return None
        return self.map_adjunction(R)

    def equivalence_witness(self, R: Rel):
        """Equivalences of relations are the graphs of bijections."""
        if not (R.is_graph() and R.fn().is_bijective()):
            return None
        from .kernel import EquivWitness
        adj = self.map_adjunction(R)
        return EquivWitness(adj.left, adj.right, adj.unit, adj.counit)

    def one_cells(self, source: FinSet, target: FinSet, max_apex: int = 0):
        """Every relation ``source -> target``.  The bound is ignored: the
        poset of relations is already finite."""
        import itertools
        universe = [(x, a) for x in source for a in target]
        for n in range(len(universe) + 1):
            for chosen in itertools.combinations(universe, n):
                yield Rel(source, target, chosen)


def span_image(span) -> Rel:
    """The relation traced out by a span's legs.

    This is the identity-on-objects quotient from spans to relations; tests
    use it as an independent oracle for composition.
    """
    return Rel(span.source, span.target,
               ((span.left(s), span.right(s)) for s in span.apex))
