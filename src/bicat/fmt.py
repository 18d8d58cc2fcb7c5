"""Line-oriented interchange text for the finite structures.

One record per line, one entity per record.  The grammar, with labels as
produced by :func:`bicat.fin.render_label` (atoms from a restricted
alphabet, pairs written ``(a,b)`` and nesting at most
:data:`bicat.fin.MAX_LABEL_DEPTH` deep):

    set NAME = label label ...
    fn NAME : DOM -> COD = d:v d:v ...          (one entry per domain element,
                                                 in domain order)
    span NAME : SRC -> TGT = s:x:a s:x:a ...    (apex element, left image,
                                                 right image; apex order)
    rel NAME : SRC -> TGT = x:a x:a ...         (related pairs, each once)
    cell NAME : DOM -> COD = s:t s:t ...        (apex mapping for span cells,
                                                 one entry per DOM apex
                                                 element, each landing in
                                                 COD's apex; relation cells
                                                 carry no entries)
    check compose A B = C
    check equal A B
    check map A
    check cell A -> B

The header of an ``fn``, ``span``, ``rel`` or ``cell`` record is split off
its body, and one linear match checks that the body is whitespace-separated
entries whose labels are each an atom or a pair of two atoms.  ``:`` never occurs inside a label (the atom
alphabet has none), so the body is then split once, at colons and
whitespace, and decided a column of entries at a time.  A column the record
stores as given (a span's apex, a relation's pairs, a cell's entries) goes
through the document's label table: atoms are made canonical there and
pairs are built from those canonical halves.  A column checked against a
carrier (an ``fn`` record's entries, a span's legs) skips the table, as the
carrier puts its own labels in place.  A column mixing atoms and pairs, and
a record the match refuses, go label by label, the latter after a colon
count per entry: each distinct text is parsed once per
:func:`parse_document` call (a pair ``(a,R)`` from its halves), and
:func:`bicat.fin.parse_label` is the one source of label errors.  The
cyclic collector sits out a parse,
and ``bicat-check`` keeps it paused until the report is written, as the
parsed document stays live and acyclic until then.

``DOM``, ``COD``, ``SRC``, ``TGT`` and the names in ``check`` records refer
to entities declared earlier in the same document.  Blank lines and lines
starting with ``#`` are ignored.

A :class:`Document` is one table from name to entity in declaration order,
so no two records share a name, whatever their kinds.  An entity's kind is
its type: ``FinSet``, ``SetFn``, ``Span``, ``Rel`` or :class:`CellRec`.  The
printer sorts the table stably in that order and names each boundary by the
first name its (interned) value was given.  ``_CHECK_FORMS`` states the
tokens of each ``check`` kind for both parsing and printing.

The printer renders each distinct label once per document and writes a
record's body by joining its columns (domain and values, apex and legs,
the two sides of a relation's pairs in label order, a cell's sources and
targets).  Printing a document and parsing it back yields an equal
document: the printer refuses any name or label with no text form.  Check
reports embed counterexamples in this format without re-parsing them; the
tests round-trip every payload of the golden runs and shipped fixtures.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import namedtuple

from .fin import (MAX_LABEL_DEPTH, FinSet, SetFn, collector_paused,
                  parse_label, render_label, _ATOM)
from .rels import Rel, RelCell
from .spans import Span, SpanCell


class FmtError(ValueError):
    """Malformed interchange text, or a value it cannot express."""


class CellRec(namedtuple("CellRec", "dom cod entries")):
    """A 2-cell record by reference: boundary names plus the apex entries.

    Relation cells have no entries; their existence is the content.
    """
    __slots__ = ()


class Check(namedtuple("Check", "kind args")):
    """A ``check`` record: its kind and the entity names it refers to."""
    __slots__ = ()


#: Record keyword of each entity type, in printing order.
_KEYWORDS = {FinSet: "set", SetFn: "fn", Span: "span", Rel: "rel",
             CellRec: "cell"}
_RANK = {kind: rank for rank, kind in enumerate(_KEYWORDS)}

#: The tokens after ``check KIND``: ``None`` stands for an entity name, any
#: other token is written as it stands.
_CHECK_FORMS = {
    "compose": (None, None, "=", None),
    "equal": (None, None),
    "map": (None,),
    "cell": (None, "->", None),
}


class Document:
    """The named entities in declaration order, and the check records."""

    def __init__(self):
        self.entities = {}
        self.checks = []

    def __eq__(self, other):
        return (type(other) is Document and self.entities == other.entities
                and self.checks == other.checks)

    def lookup(self, name):
        value = self.entities.get(name)
        if value is None:
            raise FmtError("unknown entity %r" % name)
        return value

    def declare(self, name: str, value):
        """Add an entity; names are unique across all record kinds."""
        if name in self.entities:
            raise FmtError("entity name %r is already declared" % name)
        self.entities[name] = value


# --- printing -----------------------------------------------------------

class _Texts(dict):
    """Label to text as :func:`bicat.fin.render_label` writes it, each label
    rendered once per printed document.  A label with no text form raises."""

    def __missing__(self, label):
        if isinstance(label, tuple):
            got = self[label] = "(%s,%s)" % (self[label[0]], self[label[1]])
        elif _ATOM.fullmatch(label):
            got = self[label] = label
        else:
            raise FmtError("label %r has no text form" % (label,))
        return got


def print_document(doc: Document) -> str:
    first = {}
    for name, value in doc.entities.items():
        first.setdefault(value, name)

    def ends(value, what, *roles):
        for role in roles:
            end = first.get(getattr(value, role))
            if end is None:
                raise FmtError("%s of %s is not a declared entity"
                               % (role, what))
            yield end

    text = _Texts().__getitem__
    lines = []
    for name, value in sorted(doc.entities.items(),
                              key=lambda item: _RANK[type(item[1])]):
        if not _ATOM.fullmatch(name):
            raise FmtError("entity name %r has no text form" % (name,))
        what = "%s %s" % (_KEYWORDS[type(value)], name)
        if isinstance(value, FinSet):
            body = " ".join(map(text, value))
            lines.append(("%s = %s" % (what, body)).rstrip())
            continue
        if isinstance(value, SetFn):
            dom, cod = ends(value, what, "domain", "codomain")
            columns = value.domain, value.values
        elif isinstance(value, Span):
            dom, cod = ends(value, what, "source", "target")
            columns = value.apex, value.left.values, value.right.values
        elif isinstance(value, Rel):
            dom, cod = ends(value, what, "source", "target")
            columns = zip(*value.pairs)
        else:
            dom, cod, columns = value.dom, value.cod, zip(*value.entries)
        body = " ".join(map(":".join, zip(*[map(text, c) for c in columns])))
        lines.append(("%s : %s -> %s = %s" % (what, dom, cod, body)).rstrip())
    for chk in doc.checks:
        form = _CHECK_FORMS.get(chk.kind)
        if form is None:
            raise FmtError("unknown check kind %r" % chk.kind)
        args = iter(chk.args)
        tokens = [next(args) if t is None else t for t in form]
        lines.append(" ".join(["check", chk.kind, *tokens]))
    return "\n".join(lines) + "\n"


# --- parsing ------------------------------------------------------------

class _Labels(dict):
    """Whitespace-free label text to label, each text parsed once per parsed
    document (so nothing outlives it); a failing text is not stored.  A pair
    ``(a,R)`` with an atom on the left shares the labels of its halves; any
    other text goes to :func:`bicat.fin.parse_label`, the one source of
    errors."""

    def __missing__(self, text: str):
        if text.startswith("("):
            got = self._pair(text)
        else:
            got = text if _ATOM.fullmatch(text) else parse_label(text)
        self[text] = got
        return got

    def _pair(self, text: str):
        comma = text.find(",")  # the top-level one when the left is an atom
        if (comma > 0 and not text.startswith("((") and text.endswith(")")
                and text.count("(") <= MAX_LABEL_DEPTH):
            try:
                return self[text[1:comma]], self[text[comma + 1:-1]]
            except ValueError:
                pass
        return parse_label(text)


@collector_paused
def parse_document(text: str) -> Document:
    doc = Document()
    labels = _Labels()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _parse_line(doc, line, labels)
        except ValueError as exc:
            raise FmtError("line %d: %s" % (lineno, exc)) from exc
    return doc


@functools.cache
def _record(parts: int):
    """Whitespace-separated entries of ``parts`` colon-separated labels,
    each an atom or a pair of two atoms.  Its parts are told apart by their
    first character, so a match, or a refusal, takes time linear in the
    text."""
    label = r"(?:{0}|\({0},{0}\))".format(_ATOM.pattern)
    entry = ":".join([label] * parts)
    return re.compile(r"(?:{0}(?:\s+{0})*)?".format(entry))


def _entries(body: str, parts: int, labels: _Labels, stored: tuple) -> list:
    """A record's labels, ``parts`` per entry; its first bad entry raises.

    A body ``_record(parts)`` matches is split once and decided a column at
    a time, and only the ``stored`` columns go through ``labels`` (see the
    module docstring).  Any other body goes label by label."""
    if not _record(parts).fullmatch(body):
        return _label_by_label(body.split(), parts, labels)
    texts = body.replace(":", " ").split()
    if "(" not in body:
        for column in stored:
            own = texts[column::parts]
            texts[column::parts] = map(labels.setdefault, own, own)
        return texts
    for column in range(parts):
        own = texts[column::parts]
        joined = ":".join(own)
        pairs = joined.count("(")
        if not pairs:
            if column in stored:
                texts[column::parts] = map(labels.setdefault, own, own)
        elif pairs == len(own):
            # Every label is ``(atom,atom)``: the brackets split the atoms.
            atoms = joined[1:-1].replace("):(", ",").split(",")
            if column in stored:
                atoms = map(labels.setdefault, atoms, atoms)
            halves = iter(atoms)
            texts[column::parts] = zip(halves, halves)
        else:
            texts[column::parts] = map(labels.__getitem__, own)
    return texts


def _label_by_label(body: list, parts: int, labels: _Labels) -> list:
    """Each entry's colon count, then each label through ``labels``: a bad
    label before the first bad entry comes first."""
    counts = list(map(str.count, body, itertools.repeat(":")))
    bad = len(body)
    if counts.count(parts - 1) != bad:
        bad = next(i for i, n in enumerate(counts) if n != parts - 1)
    flat = list(map(labels.__getitem__, ":".join(body[:bad]).split(":"))
                if bad else [])
    if bad < len(body):
        raise FmtError("expected %d-part entry, got %r" % (parts, body[bad]))
    return flat


def _header(tokens, keyword):
    # NAME : SRC -> TGT = body
    if len(tokens) < 6 or tokens[1] != ":" or tokens[3] != "->" or tokens[5] != "=":
        raise FmtError("malformed %s record" % keyword)
    body = tokens[6] if len(tokens) > 6 else ""
    return tokens[0], tokens[2], tokens[4], body


def _named_set(doc: Document, name: str) -> FinSet:
    value = doc.entities.get(name)
    if not isinstance(value, FinSet):
        raise FmtError("unknown set %r" % name)
    return value


def _parse_line(doc: Document, line: str, labels: _Labels):
    # An fn, span, rel or cell record's body stays one text.
    tokens = line.split(None, 7)
    kind, rest = tokens[0], tokens[1:]
    if kind == "set":
        rest = line.split()[1:]
        if len(rest) < 2 or rest[1] != "=":
            raise FmtError("malformed set record")
        name = rest[0]
        doc.declare(name, FinSet(map(labels.__getitem__, rest[2:])))
    elif kind == "fn":
        name, dom, cod, body = _header(rest, "fn")
        A, C = _named_set(doc, dom), _named_set(doc, cod)
        flat = _entries(body, 2, labels, ())
        table = dict(zip(flat[0::2], flat[1::2]))
        if 2 * len(table) != len(flat):
            raise FmtError("fn %s lists a domain element twice" % name)
        if set(table) != set(A.elements):
            raise FmtError("fn %s entries do not cover the domain" % name)
        doc.declare(name, SetFn(A, C, (table[d] for d in A)))
    elif kind == "span":
        name, src, tgt, body = _header(rest, "span")
        X, A = _named_set(doc, src), _named_set(doc, tgt)
        flat = _entries(body, 3, labels, (0,))
        apex = FinSet(flat[0::3])
        left, right = SetFn(apex, X, flat[1::3]), SetFn(apex, A, flat[2::3])
        doc.declare(name, Span(X, A, apex, left, right))
    elif kind == "rel":
        name, src, tgt, body = _header(rest, "rel")
        X, A = _named_set(doc, src), _named_set(doc, tgt)
        flat = _entries(body, 2, labels, (0, 1))
        pairs = set(zip(flat[0::2], flat[1::2]))
        if 2 * len(pairs) != len(flat):
            raise FmtError("rel %s lists a pair twice" % name)
        doc.declare(name, Rel(X, A, pairs))
    elif kind == "cell":
        name, dom, cod, body = _header(rest, "cell")
        flat = _entries(body, 2, labels, (0, 1))
        entries = tuple(zip(flat[0::2], flat[1::2]))
        _check_cell_entries(doc, dom, cod, entries)
        doc.declare(name, CellRec(dom, cod, entries))
    elif kind == "check":
        doc.checks.append(_parse_check(line.split()[1:]))
    else:
        raise FmtError("unknown record kind %r" % kind)


def _check_cell_entries(doc: Document, dom_name: str, cod_name: str,
                        entries: tuple):
    dom = doc.entities.get(dom_name)
    cod = doc.entities.get(cod_name)
    for end, end_name in ((dom, dom_name), (cod, cod_name)):
        if not isinstance(end, (Span, Rel)):
            raise FmtError("cell boundary %r is not a declared span or rel"
                           % end_name)
    if type(dom) is not type(cod):
        raise FmtError("cell boundaries %s and %s are not both spans or "
                       "both rels" % (dom_name, cod_name))
    if isinstance(dom, Rel):
        if entries:
            raise FmtError("relation cells carry no entries")
        return
    sources = [s for s, _ in entries]
    if len(sources) != len(dom.apex) or set(sources) != set(dom.apex):
        raise FmtError("cell entries do not cover the apex of %s exactly"
                       % dom_name)
    for _, t in entries:
        if t not in cod.apex:
            raise FmtError("cell entry %s is not in the apex of %s"
                           % (render_label(t), cod_name))


def _parse_check(rest) -> Check:
    if not rest:
        raise FmtError("empty check record")
    kind, given = rest[0], rest[1:]
    form = _CHECK_FORMS.get(kind)
    if (form is None or len(given) != len(form)
            or any(t is not None and t != g for t, g in zip(form, given))):
        raise FmtError("malformed check record %r" % " ".join(rest))
    return Check(kind, tuple(g for t, g in zip(form, given) if t is None))


# --- building documents from live values ---------------------------------

def describe(entities: dict) -> Document:
    """A document containing the given named values plus whatever carriers
    and boundary entities they depend on.  A dependency is named by the
    first name its value was given, or else by the next free ``S<n>``.

    The helper the harness uses to turn a counterexample into report text.
    Its state is passed to module-level helpers rather than held by nested
    closures, so describing builds no reference cycle.
    """
    doc = Document()
    first = {}
    fresh = map("S%d".__mod__, itertools.count())
    for name, value in entities.items():
        if not (isinstance(value, FinSet) and value in first):
            _describe_value(doc, first, fresh, name, value)
    return doc


def _described_name(doc: Document, first: dict, fresh, value) -> str:
    """``value``'s first name, or else the next free ``S<n>`` drawn from
    ``fresh``, the one counter of the whole document."""
    name = first.get(value)
    if name is None:
        name = next(itertools.filterfalse(doc.entities.__contains__, fresh))
        _describe_value(doc, first, fresh, name, value)
    return name


def _describe_value(doc: Document, first: dict, fresh, name: str, value):
    """Declare ``value`` as ``name`` after naming its dependencies."""
    if isinstance(value, SetFn):
        _described_name(doc, first, fresh, value.domain)
        _described_name(doc, first, fresh, value.codomain)
    elif isinstance(value, (Span, Rel)):
        _described_name(doc, first, fresh, value.source)
        _described_name(doc, first, fresh, value.target)
    elif isinstance(value, SpanCell):
        value = CellRec(_described_name(doc, first, fresh, value.dom),
                        _described_name(doc, first, fresh, value.cod), tuple(
                            (s, value.fn(s)) for s in value.dom.apex))
    elif isinstance(value, RelCell):
        value = CellRec(_described_name(doc, first, fresh, value.dom),
                        _described_name(doc, first, fresh, value.cod), ())
    elif not isinstance(value, FinSet):
        raise FmtError("cannot describe a %s" % type(value).__name__)
    first.setdefault(value, name)
    doc.declare(name, value)
