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

Values are hash-consed for as long as they live.  Two stores hold them:

* ``_VALUES`` maps each value's class and components to the value, held
  strongly if built since the last :func:`clear_table`, else weakly.
  Building an equal value while one is alive returns that object and
  skips validation, so two live equal values are always one object:
  equality and hashing are identity, and keys made of values hash in C.
* ``_TABLES`` is the current unit's memo (a seeded check with its trials
  and shrink attempts, a negative control or a fixture record): one table
  per :func:`memoised` operation, keyed on its arguments, the instance
  included.  It holds the pure operations a unit repeats: the instances'
  structure operations, local products, ``fn``, ``is_map`` and the
  span fibre index; the canonical carriers; ``mapprod``'s cones,
  pairings, ``map_iso``, cone checks and the hom-set counts a cone check
  reads; both ``homprod`` transports; ``compose_adjunctions`` and
  ``right_mate_of_map_cell``; ``g_tensor``, ``g_pair``, ``g_compose``,
  ``secondary``, ``garr_from_secondary`` and ``tensor_unit_cell``.  A
  ``None`` result is stored; a raised error never is.  An operation may
  store a result another one derived on the way, as ``garr_from_secondary``
  stores its square's ``secondary``.  :func:`clear_table` empties every
  table when a unit starts: peak memory follows the largest unit.

No value graph holds a reference cycle, so reference counting frees a
unit's values once the memo empties and the sweep below runs, and no
collector pass is needed; :func:`collector_paused` therefore pauses the
cyclic collector for a run (:func:`bicat.harness.run_config`), for a
parse (:func:`bicat.fmt.parse_document`) and for the whole
``bicat-check`` command (:func:`bicat.cli.main`), from the parse to the
written report: a parsed document stays live and acyclic throughout, so a
pass would only walk it again.  ``tests/test_harness.py::
test_a_run_makes_no_reference_cycles`` enforces this.

A value that outlives its unit (``UNIT``, parsed fixture documents) stays
the canonical copy, and a rebuild returns it: after the memo,
:func:`clear_table` sweeps the strongly held values newest first, freeing
each one nothing else holds and holding the rest weakly.  One pass is
exact, as a value is interned after its components.
"""

from __future__ import annotations

import functools
import gc
import itertools
import re
import sys
import weakref
from collections.abc import Iterable, Iterator

Label = "str | tuple"

_ATOM = re.compile(r"[A-Za-z0-9_*'+.=|!?$-]+")

#: Pairs nest at most this deep in label text: far deeper than any label
#: the checks build, and shallow enough for the recursive label code to
#: stay inside the interpreter's recursion limit.
MAX_LABEL_DEPTH = 100

#: Every live value, keyed on its class and components; see above.
_VALUES: dict = {}
#: How many strong entries the sweeps popped: the values units interned.
interned = 0

#: The current unit's memoised results, one table per memoised operation.
_TABLES: list = []
#: A table's answer for a call it has not seen; ``None`` is a result.
_MISSING = object()


class _Ref(weakref.ref):
    """A weak reference to a live value that carries its key in ``_VALUES``."""

    __slots__ = ("key",)


def _drop(ref, values=_VALUES):
    """Callback: forget a dead value, unless its key was reused meanwhile.
    ``values`` is bound here, as module globals may be gone at exit."""
    if values.get(ref.key) is ref:
        del values[ref.key]


def _sweep(dead, values=_VALUES):
    """Pop the strong entries, which follow the weak ones, newest first:
    free each value whose count reads ``dead`` and hold the rest weakly.
    Return how many there were, and the entries kept.

    A kept value dies in the sweep if what held it is freed later in it,
    by a collector pass or with an older value; its ``_drop`` then finds
    nothing, so its dead entry is dropped here."""
    found, kept = 0, []
    while values:
        key, value = values.popitem()
        if type(value) is _Ref:  # the newest weak entry goes back, unless
            if value() is not None:  # freeing the last one popped killed it
                values[key] = value
            break
        found += 1
        if sys.getrefcount(value) > dead:
            ref = _Ref(value, _drop)
            ref.key = key
            kept.append((key, ref))
    values.update(kept)
    for _, ref in kept:
        if ref() is None:
            _drop(ref, values)
    return found, kept


#: The sweep's count for a value only its table holds; CPython versions vary.
_DEAD = next(d for d in itertools.count() if not _sweep(d, {0: set()})[1])


def clear_table() -> None:
    """Forget every memoised result; a unit (a whole check) starts."""
    global interned
    for table in _TABLES:
        table.clear()
    interned += _sweep(_DEAD)[0]


def memoised(op):
    """Memoise a pure operation in a table of its own, ``run.table``, keyed
    on its arguments (``self`` included).  A raised error is never stored."""
    table = {}
    _TABLES.append(table)

    @functools.wraps(op)
    def run(*args):
        got = table.get(args, _MISSING)
        if got is _MISSING:
            got = table[args] = op(*args)
        return got

    run.table = table
    return run


def collector_paused(op):
    """``op`` with the cyclic garbage collector off while it runs; the
    caller's setting comes back on return or raise.  Reference counting
    alone frees what ``op`` drops, as no value graph holds a cycle."""

    @functools.wraps(op)
    def run(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return op(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return run


def is_atom(label) -> bool:
    return isinstance(label, str)


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
    text = text.strip()
    label, end = _parse_label_at(text, 0, 0)
    if end != len(text):
        raise ValueError("trailing text %r after label" % text[end:])
    return label


def _parse_label_at(text: str, pos: int, depth: int):
    """The label starting at ``text[pos]`` and the index just past it."""
    if text.startswith("(", pos):
        if depth == MAX_LABEL_DEPTH:
            raise ValueError("label nests pairs more than %d deep"
                             % MAX_LABEL_DEPTH)
        left, pos = _parse_label_at(text, pos + 1, depth + 1)
        if not text.startswith(",", pos):
            raise ValueError("expected ',' in pair label near %r" % text[pos:])
        right, pos = _parse_label_at(text, pos + 1, depth + 1)
        if not text.startswith(")", pos):
            raise ValueError("unclosed pair label near %r" % text[pos:])
        return (left, right), pos + 1
    m = _ATOM.match(text, pos)
    if not m:
        raise ValueError("expected a label atom at %r" % text[pos:])
    return m.group(0), m.end()


class FinSet:
    """An ordered finite set of distinct labels."""

    __slots__ = ("elements", "_index", "__weakref__")

    def __new__(cls, elements: Iterable):
        elems = tuple(elements)
        key = (cls, elems)
        # One lookup, so that a miss hashes its key once, not twice.
        self = _VALUES.setdefault(key, new := object.__new__(cls))
        if type(self) is _Ref and (self := self()) is None:
            del _VALUES[key]  # dead: the new value goes last, as it is strong
            self = _VALUES[key] = new
        if self is new:
            index = dict(zip(elems, range(len(elems))))
            if len(index) != len(elems):
                del _VALUES[key]
                seen = set()
                for e in elems:
                    if e in seen:
                        raise ValueError("duplicate element %s"
                                         % render_label(e))
                    seen.add(e)
            self.elements = elems
            self._index = index
        return self

    def __init__(self, elements: Iterable):
        """Nothing left to do once :meth:`__new__` has found or built the
        value; kept so that wrapping ``__init__`` sees every construction."""

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._index

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

    __slots__ = ("domain", "codomain", "values", "__weakref__")

    def __new__(cls, domain: FinSet, codomain: FinSet, values: Iterable):
        vals = tuple(values)
        key = (cls, domain, codomain, vals)
        self = _VALUES.get(key)
        if self is None or (type(self) is _Ref and (self := self()) is None):
            if len(vals) != len(domain):
                raise ValueError("function values do not cover the domain")
            # Store the codomain's own labels, so equal labels share memory.
            index, elems = codomain._index, codomain.elements
            try:
                vals = tuple([elems[index[v]] for v in vals])
            except KeyError:
                bad = next(v for v in vals if v not in codomain)
                raise ValueError("value %s not in codomain" % render_label(bad))
            self = _VALUES[cls, domain, codomain, vals] = object.__new__(cls)
            self.domain = domain
            self.codomain = codomain
            self.values = vals
        return self

    def __init__(self, domain: FinSet, codomain: FinSet, values: Iterable):
        """Nothing left to do: see :meth:`FinSet.__init__`."""

    @classmethod
    def identity(cls, carrier: FinSet) -> "SetFn":
        return cls(carrier, carrier, carrier.elements)

    @classmethod
    def constant(cls, domain: FinSet, codomain: FinSet, value) -> "SetFn":
        return cls(domain, codomain, (value for _ in domain))

    def __call__(self, label):
        return self.values[self.domain._index[label]]

    def values_at(self, labels) -> list:
        """The values at ``labels``, in their order: one index lookup each."""
        values, index = self.values, self.domain._index
        return [values[index[x]] for x in labels]

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
        return SetFn(self.domain, other.codomain, other.values_at(self.values))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and self.values == self.domain.elements

    def is_bijective(self) -> bool:
        return len(set(self.values)) == len(self.codomain) == len(self.values)

    def inverse(self) -> "SetFn":
        """The unique inverse of a bijection (canonical: no tie to break)."""
        table = dict(zip(self.values, self.domain.elements))
        if not len(table) == len(self.values) == len(self.codomain):
            raise ValueError("inverse of a non-bijective function")
        return SetFn(self.codomain, self.domain,
                     [table[c] for c in self.codomain.elements])


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
    for values in itertools.product(codomain.elements, repeat=len(domain)):
        yield SetFn(domain, codomain, values)


@memoised
def canonical_carrier(prefix: str, size: int) -> FinSet:
    """The carrier ``prefix0 .. prefix{size-1}``: the laws are invariant
    under relabelling, so one carrier per size stands for all of them."""
    return FinSet("%s%d" % (prefix, i) for i in range(size))


def set_fn(rng, A: FinSet, C: FinSet):
    """A uniform function ``A -> C`` drawn from ``rng``, or None if none."""
    if len(A) and not len(C):
        return None
    return SetFn(A, C, (rng.choice(C.elements) for _ in A))
