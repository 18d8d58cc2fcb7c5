"""Finite carriers, their elements, and functions between them.

Everything downstream (spans, relations, tensors) is built from two kinds of
value: labels and finite sets of labels.  A label is either an atom (a short
string drawn from a restricted alphabet) or a pair of labels.  Pairs are what
product carriers and pullback apexes are made of, so labels nest:
``(("x", "y"), "a")`` is a perfectly ordinary element of a composite apex.

Element order matters.  A :class:`FinSet` remembers the order its elements
were given in, equality compares that order, and every derived carrier
(products, pullbacks, wedges) lists its elements in the row-major order
induced by its factors.  That convention is what makes repeated runs produce
identical structures.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

Label = "str | tuple"

_ATOM = re.compile(r"[A-Za-z0-9_*'+.=|!?$-]+")


def is_atom(label) -> bool:
    return isinstance(label, str)


def pair(a, b):
    return (a, b)


def label_key(label):
    """Sort key putting atoms first, then pairs ordered componentwise."""
    if is_atom(label):
        return (0, label)
    a, b = label
    return (1, label_key(a), label_key(b))


def render_label(label) -> str:
    """Flat text form of a label: atoms verbatim, pairs as ``(a,b)``."""
    if is_atom(label):
        return label
    a, b = label
    return "(%s,%s)" % (render_label(a), render_label(b))


def parse_label(text: str):
    """Inverse of :func:`render_label`.

    >>> parse_label("(x,(y,z))")
    ('x', ('y', 'z'))
    """
    label, rest = _parse_label_prefix(text.strip())
    if rest:
        raise ValueError("trailing text %r after label" % rest)
    return label


def _parse_label_prefix(text: str):
    if text.startswith("("):
        left, rest = _parse_label_prefix(text[1:])
        if not rest.startswith(","):
            raise ValueError("expected ',' in pair label near %r" % rest)
        right, rest = _parse_label_prefix(rest[1:])
        if not rest.startswith(")"):
            raise ValueError("unclosed pair label near %r" % rest)
        return (left, right), rest[1:]
    m = _ATOM.match(text)
    if not m:
        raise ValueError("expected a label atom at %r" % text)
    return m.group(0), text[m.end():]


class FinSet:
    """An ordered finite set of distinct labels."""

    __slots__ = ("elements", "_index", "_hash")

    def __init__(self, elements: Iterable):
        elems = tuple(elements)
        index = {}
        for i, e in enumerate(elems):
            if e in index:
                raise ValueError("duplicate element %s" % render_label(e))
            index[e] = i
        self.elements = elems
        self._index = index
        self._hash = hash(elems)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._index

    def index(self, label) -> int:
        return self._index[label]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FinSet) and self.elements == other.elements)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "FinSet({%s})" % ", ".join(render_label(e) for e in self.elements)

    def product(self, other: "FinSet") -> "FinSet":
        """Row-major cartesian product carrier with pair labels."""
        return FinSet((a, b) for a in self.elements for b in other.elements)


#: The designated one-element carrier used as the monoidal unit.
UNIT = FinSet(("*",))


class SetFn:
    """A total function between two :class:`FinSet` carriers.

    Values are stored aligned with the domain's element order, so two
    functions are equal exactly when they agree pointwise on equal carriers.
    """

    __slots__ = ("domain", "codomain", "values", "_hash")

    def __init__(self, domain: FinSet, codomain: FinSet, values: Iterable):
        vals = tuple(values)
        if len(vals) != len(domain):
            raise ValueError("function values do not cover the domain")
        for v in vals:
            if v not in codomain:
                raise ValueError("value %s not in codomain" % render_label(v))
        self.domain = domain
        self.codomain = codomain
        self.values = vals
        self._hash = hash((domain, codomain, vals))

    @classmethod
    def from_callable(cls, domain: FinSet, codomain: FinSet, fn: Callable) -> "SetFn":
        return cls(domain, codomain, (fn(e) for e in domain))

    @classmethod
    def identity(cls, carrier: FinSet) -> "SetFn":
        return cls(carrier, carrier, carrier.elements)

    @classmethod
    def constant(cls, domain: FinSet, codomain: FinSet, value) -> "SetFn":
        return cls(domain, codomain, (value for _ in domain))

    def __call__(self, label):
        return self.values[self.domain.index(label)]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, SetFn)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        entries = ", ".join(
            "%s:%s" % (render_label(d), render_label(v))
            for d, v in zip(self.domain, self.values)
        )
        return "SetFn{%s}" % entries

    def then(self, other: "SetFn") -> "SetFn":
        """Diagrammatic composite: apply ``self`` first, then ``other``."""
        if self.codomain != other.domain:
            raise ValueError("composite of non-composable functions")
        return SetFn(self.domain, other.codomain, (other(v) for v in self.values))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and self.values == self.domain.elements

    def is_bijective(self) -> bool:
        return len(set(self.values)) == len(self.codomain) == len(self.values)

    def inverse(self) -> "SetFn":
        """The unique inverse of a bijection (canonical: no tie to break)."""
        if not self.is_bijective():
            raise ValueError("inverse of a non-bijective function")
        table = {v: d for d, v in zip(self.domain, self.values)}
        return SetFn(self.codomain, self.domain, (table[c] for c in self.codomain))

    def preimage(self, label) -> tuple:
        return tuple(d for d, v in zip(self.domain, self.values) if v == label)


def all_functions(domain: FinSet, codomain: FinSet) -> Iterator[SetFn]:
    """Every function ``domain -> codomain`` in deterministic order.

    The iteration order is lexicographic in the codomain's element order,
    which downstream exhaustive searches rely on for reproducibility.
    """
    if len(domain) == 0:
        yield SetFn(domain, codomain, ())
        return
    if len(codomain) == 0:
        return
    import itertools

    for values in itertools.product(codomain.elements, repeat=len(domain)):
        yield SetFn(domain, codomain, values)
