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
    rel NAME : SRC -> TGT = x:a x:a ...         (related pairs)
    cell NAME : DOM -> COD = s:t s:t ...        (apex mapping for span cells,
                                                 one entry per DOM apex
                                                 element, each landing in
                                                 COD's apex; relation cells
                                                 carry no entries)
    check compose A B = C
    check equal A B
    check map A
    check cell A -> B

``:`` never occurs inside a label (the atom alphabet has none), so an
entry splits on ``:`` exactly, into as many labels as the record expects.
Each distinct label text is parsed once per :func:`parse_document` call.

``DOM``, ``COD``, ``SRC``, ``TGT`` and the names in ``check`` records refer
to entities declared earlier in the same document.  No two records declare
the same name, whatever their kinds.  Blank lines and lines starting with
``#`` are ignored.  Printing a document and parsing it back yields an equal
document: the printer refuses any name or label with no text form.  Check
reports embed counterexamples in this format without re-parsing them; the
tests round-trip every payload of the golden runs and shipped fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fin import FinSet, SetFn, is_atom, parse_label, render_label, _ATOM
from .rels import Rel, RelCell
from .spans import Span, SpanCell

_NAME = _ATOM  # entity names share the atom alphabet


class FmtError(ValueError):
    """Malformed interchange text, or a value it cannot express."""


@dataclass(frozen=True)
class CellRec:
    """A 2-cell record by reference: boundary names plus the apex entries.

    Relation cells have no entries; their existence is the content.
    """
    dom: str
    cod: str
    entries: tuple


@dataclass(frozen=True)
class Check:
    kind: str
    args: tuple


@dataclass
class Document:
    sets: dict = field(default_factory=dict)
    fns: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def tables(self):
        return (self.sets, self.fns, self.spans, self.rels, self.cells)

    def lookup(self, name):
        for table in self.tables():
            if name in table:
                return table[name]
        raise FmtError("unknown entity %r" % name)

    def declare(self, table: dict, name: str, value):
        """Add an entity; names are unique across all record kinds."""
        if any(name in t for t in self.tables()):
            raise FmtError("entity name %r is already declared" % name)
        table[name] = value


def _check_label(label):
    if is_atom(label):
        if not _ATOM.fullmatch(label):
            raise FmtError("label %r has no text form" % (label,))
        return
    a, b = label
    _check_label(a)
    _check_label(b)


def _check_name(name: str):
    if not _NAME.fullmatch(name):
        raise FmtError("entity name %r has no text form" % (name,))


# --- printing -----------------------------------------------------------

def _entries(pairs) -> str:
    return " ".join("%s:%s" % (render_label(a), render_label(b))
                    for a, b in pairs)


def print_document(doc: Document) -> str:
    lines = []
    for name, fs in doc.sets.items():
        _check_name(name)
        for e in fs:
            _check_label(e)
        lines.append(("set %s = " % name
                      + " ".join(render_label(e) for e in fs)).rstrip())
    for name, fn in doc.fns.items():
        _check_name(name)
        dom = _find(doc.sets, fn.domain, "domain of fn %s" % name)
        cod = _find(doc.sets, fn.codomain, "codomain of fn %s" % name)
        body = _entries(zip(fn.domain, fn.values))
        lines.append(("fn %s : %s -> %s = %s" % (name, dom, cod, body)).rstrip())
    for name, sp in doc.spans.items():
        _check_name(name)
        src = _find(doc.sets, sp.source, "source of span %s" % name)
        tgt = _find(doc.sets, sp.target, "target of span %s" % name)
        body = " ".join(
            "%s:%s:%s" % (render_label(s), render_label(x), render_label(a))
            for s, x, a in zip(sp.apex, sp.left.values, sp.right.values))
        lines.append(("span %s : %s -> %s = %s" % (name, src, tgt, body)).rstrip())
    for name, rel in doc.rels.items():
        _check_name(name)
        src = _find(doc.sets, rel.source, "source of rel %s" % name)
        tgt = _find(doc.sets, rel.target, "target of rel %s" % name)
        lines.append(("rel %s : %s -> %s = %s"
                      % (name, src, tgt, _entries(rel.pairs))).rstrip())
    for name, rec in doc.cells.items():
        _check_name(name)
        lines.append(("cell %s : %s -> %s = %s"
                      % (name, rec.dom, rec.cod, _entries(rec.entries))).rstrip())
    for chk in doc.checks:
        if chk.kind == "compose":
            lines.append("check compose %s %s = %s" % chk.args)
        elif chk.kind == "equal":
            lines.append("check equal %s %s" % chk.args)
        elif chk.kind == "map":
            lines.append("check map %s" % chk.args)
        elif chk.kind == "cell":
            lines.append("check cell %s -> %s" % chk.args)
        else:
            raise FmtError("unknown check kind %r" % chk.kind)
    return "\n".join(lines) + "\n"


# --- parsing ------------------------------------------------------------

class _Labels(dict):
    """Label text to label, each text parsed once: one per parsed document,
    so nothing outlives it.  A text that fails to parse is not stored."""

    def __missing__(self, text: str):
        got = self[text] = parse_label(text)
        return got


def parse_document(text: str) -> Document:
    doc = Document()
    label = _Labels().__getitem__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _parse_line(doc, line, label)
        except FmtError as exc:
            raise FmtError("line %d: %s" % (lineno, exc)) from exc
        except ValueError as exc:
            raise FmtError("line %d: %s" % (lineno, exc)) from exc
    return doc


def _split_entry(token: str, parts: int, label):
    bits = token.split(":")
    if len(bits) != parts:
        raise FmtError("expected %d-part entry, got %r" % (parts, token))
    return tuple(map(label, bits))


def _header(tokens, keyword):
    # NAME : SRC -> TGT = rest...
    if len(tokens) < 6 or tokens[1] != ":" or tokens[3] != "->" or tokens[5] != "=":
        raise FmtError("malformed %s record" % keyword)
    return tokens[0], tokens[2], tokens[4], tokens[6:]


def _named_set(doc: Document, name: str) -> FinSet:
    try:
        return doc.sets[name]
    except KeyError:
        raise FmtError("unknown set %r" % name) from None


def _parse_line(doc: Document, line: str, label):
    tokens = line.split()
    kind, rest = tokens[0], tokens[1:]
    if kind == "set":
        if len(rest) < 2 or rest[1] != "=":
            raise FmtError("malformed set record")
        name = rest[0]
        doc.declare(doc.sets, name, FinSet(map(label, rest[2:])))
    elif kind == "fn":
        name, dom, cod, body = _header(rest, "fn")
        A, C = _named_set(doc, dom), _named_set(doc, cod)
        table = dict(_split_entry(t, 2, label) for t in body)
        if set(table) != set(A.elements):
            raise FmtError("fn %s entries do not cover the domain" % name)
        doc.declare(doc.fns, name, SetFn(A, C, (table[d] for d in A)))
    elif kind == "span":
        name, src, tgt, body = _header(rest, "span")
        X, A = _named_set(doc, src), _named_set(doc, tgt)
        triples = [_split_entry(t, 3, label) for t in body]
        apex = FinSet(t[0] for t in triples)
        left = SetFn(apex, X, (t[1] for t in triples))
        right = SetFn(apex, A, (t[2] for t in triples))
        doc.declare(doc.spans, name, Span(X, A, apex, left, right))
    elif kind == "rel":
        name, src, tgt, body = _header(rest, "rel")
        rel = Rel(_named_set(doc, src), _named_set(doc, tgt),
                  (_split_entry(t, 2, label) for t in body))
        doc.declare(doc.rels, name, rel)
    elif kind == "cell":
        name, dom, cod, body = _header(rest, "cell")
        entries = tuple(_split_entry(t, 2, label) for t in body)
        _check_cell_entries(doc, dom, cod, entries)
        doc.declare(doc.cells, name, CellRec(dom, cod, entries))
    elif kind == "check":
        doc.checks.append(_parse_check(rest))
    else:
        raise FmtError("unknown record kind %r" % kind)


def _cell_boundary(doc: Document, name: str):
    for table in (doc.spans, doc.rels):
        if name in table:
            return table[name]
    raise FmtError("cell boundary %r is not a declared span or rel" % name)


def _check_cell_entries(doc: Document, dom_name: str, cod_name: str,
                        entries: tuple):
    dom = _cell_boundary(doc, dom_name)
    cod = _cell_boundary(doc, cod_name)
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
    op = rest[0]
    if op == "compose" and len(rest) == 5 and rest[3] == "=":
        return Check("compose", (rest[1], rest[2], rest[4]))
    if op == "equal" and len(rest) == 3:
        return Check("equal", (rest[1], rest[2]))
    if op == "map" and len(rest) == 2:
        return Check("map", (rest[1],))
    if op == "cell" and len(rest) == 4 and rest[2] == "->":
        return Check("cell", (rest[1], rest[3]))
    raise FmtError("malformed check record %r" % " ".join(rest))


# --- building documents from live values ---------------------------------

def describe(entities: dict) -> Document:
    """A document containing the given named values plus whatever carriers
    and boundary entities they depend on, auto-named deterministically.

    The helper the harness uses to turn a counterexample into report text.
    """
    doc = Document()
    counters = {"S": 0}

    def intern_set(fs: FinSet) -> str:
        name = _find(doc.sets, fs)
        if name is None:
            name = _fresh(doc, counters)
            doc.sets[name] = fs
        return name

    def add(name, value):
        if isinstance(value, FinSet):
            if _find(doc.sets, value) is None:
                doc.sets[name] = value
        elif isinstance(value, SetFn):
            intern_set(value.domain)
            intern_set(value.codomain)
            doc.fns[name] = value
        elif isinstance(value, Span):
            intern_set(value.source)
            intern_set(value.target)
            doc.spans[name] = value
        elif isinstance(value, Rel):
            intern_set(value.source)
            intern_set(value.target)
            doc.rels[name] = value
        elif isinstance(value, SpanCell):
            dn = _add_anon(doc, counters, value.dom, add)
            cn = _add_anon(doc, counters, value.cod, add)
            doc.cells[name] = CellRec(dn, cn, tuple(
                (s, value.fn(s)) for s in value.dom.apex))
        elif isinstance(value, RelCell):
            dn = _add_anon(doc, counters, value.dom, add)
            cn = _add_anon(doc, counters, value.cod, add)
            doc.cells[name] = CellRec(dn, cn, ())
        else:
            raise FmtError("cannot describe a %s" % type(value).__name__)

    for name, value in entities.items():
        add(name, value)
    return doc


def _find(table: dict, value, what: str = ""):
    """The name ``value`` has in ``table``.  When it has none: None, or a
    :class:`FmtError` naming ``what`` if that is given."""
    for name, candidate in table.items():
        if candidate == value:
            return name
    if what:
        raise FmtError("%s is not a declared entity" % what)
    return None


def _fresh(doc: Document, counters) -> str:
    while True:
        name = "S%d" % counters["S"]
        counters["S"] += 1
        if not any(name in table for table in doc.tables()):
            return name


def _add_anon(doc: Document, counters, value, add) -> str:
    table = doc.spans if isinstance(value, Span) else doc.rels
    name = _find(table, value)
    if name is None:
        name = _fresh(doc, counters)
        add(name, value)
    return name
