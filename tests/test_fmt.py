"""The plain-text interchange format: printing, parsing, describing."""

import gc
import itertools
import pathlib
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bicat import cli, fmt, rel_instance, span_instance
from bicat.fin import (MAX_LABEL_DEPTH, FinSet, SetFn, parse_label,
                       render_label)
from bicat.fmt import (CellRec, Check, Document, FmtError, _Labels,
                       describe, parse_document, print_document)
from bicat.rels import Rel
from bicat.spans import Span

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import fixturegen  # noqa: E402

SAMPLE = """\
# two carriers and a span between them
set X = x0 x1
set A = a0
fn f : X -> A = x0:a0 x1:a0
span F : X -> A = s0:x0:a0 s1:x1:a0
rel R : X -> A = x0:a0
cell c : F -> F = s0:s0 s1:s1
check map F
check compose F F = F
check equal R R
check cell F -> F
"""


def test_parse_then_print_is_stable():
    doc = parse_document(SAMPLE)
    text = print_document(doc)
    again = parse_document(text)
    assert print_document(again) == text
    # Documents compare by their entities and checks, in order.
    assert again == doc
    assert again != parse_document(SAMPLE.replace("check map F\n", ""))
    X, A = doc.entities["X"], doc.entities["A"]
    assert X == FinSet(("x0", "x1"))
    assert doc.entities["f"] == SetFn(X, A, ("a0", "a0"))
    assert doc.entities["F"].apex == FinSet(("s0", "s1"))
    assert doc.entities["R"] == Rel(X, A, (("x0", "a0"),))
    assert doc.entities["c"].entries == (("s0", "s0"), ("s1", "s1"))
    assert [c.kind for c in doc.checks] == ["map", "compose", "equal", "cell"]
    assert doc.checks[1] == Check("compose", ("F", "F", "F"))


def test_lookup_and_unknown_entity():
    doc = parse_document(SAMPLE)
    assert doc.lookup("F") is doc.entities["F"]
    with pytest.raises(FmtError):
        doc.lookup("nope")


def test_paired_labels_round_trip():
    text = (
        "set P = (x0,y0) (x0,y1)\n"
        "set A = a0\n"
        "rel R : P -> A = (x0,y1):a0\n"
    )
    doc = parse_document(text)
    assert ("x0", "y1") in doc.entities["P"]
    assert doc.entities["R"].pairs == ((("x0", "y1"), "a0"),)
    again = parse_document(print_document(doc))
    assert again.entities["R"] == doc.entities["R"]


def test_nested_pairs_survive():
    text = "set T = ((x0,y0),z0) ((x0,y1),z1)\n"
    doc = parse_document(text)
    assert (("x0", "y1"), "z1") in doc.entities["T"]
    assert print_document(parse_document(print_document(doc))) \
        == print_document(doc)


def test_describe_round_trips_random_cells():
    rng = random.Random(9)
    for B in (span_instance(), rel_instance()):
        for trial in range(15):
            X = FinSet("x%d" % i for i in range(rng.randint(0, 3)))
            A = FinSet("a%d" % i for i in range(rng.randint(0, 3)))
            R = B.one_cell(rng, X, A, 3)
            S = B.one_cell(rng, X, A, 3)
            doc = describe({"R": R, "S": S})
            parsed = parse_document(print_document(doc))
            assert parsed.lookup("R") == R
            assert parsed.lookup("S") == S


def test_describe_interns_carriers_once():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    R = Rel(X, A, (("x0", "a0"),))
    doc = describe({"R": R, "again": X})
    # Both the relation's source and the named value share one set record.
    assert sum(1 for v in doc.entities.values() if v == X) == 1
    text = print_document(doc)
    assert text.count("set") == 2


def test_describe_handles_cells():
    B = span_instance()
    X = FinSet(("x0",))
    R = B.identity(X)
    cell = B.id2(R)
    doc = describe({"c": cell})
    parsed = parse_document(print_document(doc))
    rec = parsed.entities["c"]
    assert parsed.lookup(rec.dom) == R
    assert rec.entries == (("x0", "x0"),)


def test_malformed_documents_are_refused():
    bad = [
        "set = x0",                       # missing name
        "fn f : X -> A = x0:a0",          # unknown carrier
        "span F : X A = s:x:a",           # missing arrow
        "wobble Z = 1 2 3",               # unknown record kind
        "check compose A B C",            # missing equals sign
        "check cell A B",                 # missing arrow
        "set X = x0\nfn f : X -> X =",    # entries do not cover the domain
        "check",                          # no check kind
        "check frob A",                   # unknown check kind
        "check map A B",                  # too many names
        "check equal A",                  # too few names
        "check cell A -> B C",            # trailing token
        "check compose A B = C D",        # trailing token
    ]
    for text in bad:
        with pytest.raises(FmtError):
            parse_document(text)


def test_describe_reuses_the_names_the_caller_gave():
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    B = span_instance()
    R = B.identity(X)
    assert print_document(describe({"R": R, "c": B.id2(R)})) == (
        "set S0 = x0 x1\n"
        "span R : S0 -> S0 = x0:x0:x0 x1:x1:x1\n"
        "cell c : R -> R = x0:x0 x1:x1\n")
    f = SetFn(X, A, ("a0", "a0"))
    assert print_document(describe({"X": X, "f": f})) == (
        "set X = x0 x1\n"
        "set S0 = a0\n"
        "fn f : X -> S0 = x0:a0 x1:a0\n")


def _nested(depth):
    return "(" * depth + "a" + ",b)" * depth


def test_label_nesting_is_bounded():
    doc = parse_document("set X = %s\n" % _nested(MAX_LABEL_DEPTH))
    assert len(doc.entities["X"]) == 1
    for depth in (MAX_LABEL_DEPTH + 1, 2000):
        with pytest.raises(FmtError, match="line 1: label nests pairs"):
            parse_document("set X = %s\n" % _nested(depth))


@pytest.mark.parametrize("record", [
    "set X = b",
    "span X : X -> X = s0:a:a",
    "rel G : X -> X = a:a",
    "fn G : X -> X = a:a",
    "cell G : G -> G = s0:s0",
])
def test_names_are_unique_across_record_kinds(record):
    text = "set X = a\nspan G : X -> X = s0:a:a\n%s\n" % record
    name = record.split()[1]
    with pytest.raises(FmtError,
                       match="line 3: entity name '%s' is already" % name):
        parse_document(text)


SPAN_G = "set X = a\nspan G : X -> X = s0:a:a\n"
CELL_G = "set X = a\nspan F : X -> X = s0:a:a\ncell G : F -> F = s0:s0\n"


@pytest.mark.parametrize("head", [SPAN_G, CELL_G], ids=["span", "cell"])
@pytest.mark.parametrize("record", [
    "fn f : G -> X = a:a",
    "span S : G -> X = s0:a:a",
    "rel R : X -> G = a:a",
])
def test_only_a_set_is_a_carrier(head, record):
    line = head.count("\n") + 1
    with pytest.raises(FmtError, match="^line %d: unknown set 'G'$" % line):
        parse_document(head + record + "\n")


def test_cli_refuses_a_span_as_a_carrier(tmp_path, capsys):
    fix = tmp_path / "carrier.bicat"
    fix.write_text(SPAN_G + "fn f : G -> X = a:a\ncheck equal G G\n")
    rc = cli.main(["--instance", "span", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--fixtures", str(fix)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "bicat-check: malformed fixtures: line 3: unknown set 'G'" in err
    assert "Traceback" not in out + err


def test_parse_errors_carry_line_numbers():
    text = "set X = x0\nwobble\n"
    with pytest.raises(FmtError) as info:
        parse_document(text)
    assert "line 2" in str(info.value)


def test_unprintable_labels_are_refused():
    X = FinSet(("ok", "not ok"))
    with pytest.raises(FmtError):
        print_document(describe({"X": X}))
    # An apex is no set record: its labels are printed in the span entries.
    Y = FinSet(("y0",))
    apex = FinSet(("not ok",))
    leg = SetFn(apex, Y, ("y0",))
    with pytest.raises(FmtError, match="label 'not ok' has no text form"):
        print_document(describe({"R": Span(Y, Y, apex, leg, leg)}))


@pytest.mark.parametrize("refused,said", [
    (lambda doc: doc.declare("f", SetFn.identity(FinSet(("x0",)))),
     "domain of fn f is not a declared entity"),
    (lambda doc: doc.declare("bad name", FinSet(("x0",))),
     "entity name 'bad name' has no text form"),
    (lambda doc: doc.checks.append(Check("frob", ())),
     "unknown check kind 'frob'"),
    (lambda doc: describe({"n": 3}), "cannot describe a int"),
], ids=["undeclared-domain", "bad-name", "unknown-check", "not-a-value"])
def test_printer_and_describer_refuse_what_has_no_text(refused, said):
    # Each case fills a document the printer refuses, or asks the describer
    # for one.
    doc = Document()
    with pytest.raises(FmtError, match="^%s$" % re.escape(said)):
        refused(doc)
        print_document(doc)


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n\nset X = x0\n   # indented comment\n"
    doc = parse_document(text)
    assert list(doc.entities) == ["X"]


def test_empty_set_and_empty_span():
    text = (
        "set E =\n"
        "set A = a0\n"
        "span Z : E -> A =\n"
        "rel N : E -> A =\n"
    )
    doc = parse_document(text)
    assert len(doc.entities["E"]) == 0
    assert len(doc.entities["Z"].apex) == 0
    assert doc.entities["N"].pairs == ()
    again = parse_document(print_document(doc))
    assert again.entities["Z"] == doc.entities["Z"]


CELL_HEAD = """\
set X = x0 x1
set A = a0
span F : X -> A = s0:x0:a0 s1:x1:a0
span G : X -> A = t0:x0:a0 t1:x1:a0
rel R : X -> A = x0:a0
"""


def test_well_formed_cell_records_are_accepted():
    doc = parse_document(CELL_HEAD + "cell c : F -> G = s0:t0 s1:t1\n"
                         "cell r : R -> R =\n")
    assert doc.entities["c"].entries == (("s0", "t0"), ("s1", "t1"))
    assert doc.entities["r"].entries == ()
    assert parse_document(print_document(doc)).entities == doc.entities


@pytest.mark.parametrize("record,why", [
    ("cell c : F -> NOPE = s0:s0 s1:zz", "not a declared span or rel"),
    ("cell c : NOPE -> G = s0:t0", "not a declared span or rel"),
    ("cell c : X -> X = x0:x0 x1:x1", "not a declared span or rel"),
    ("cell c : F -> R = s0:t0 s1:t1", "not both spans or both rels"),
    ("cell c : F -> G = s0:t0", "do not cover the apex of F"),
    ("cell c : F -> G = s0:t0 s0:t1 s1:t1", "do not cover the apex of F"),
    ("cell c : F -> G = s0:t0 s1:t1 s2:t1", "do not cover the apex of F"),
    ("cell c : F -> G = s0:t0 s1:zz", "zz is not in the apex of G"),
    ("cell r : R -> R = x0:x0", "relation cells carry no entries"),
])
def test_invalid_cell_records_are_refused(record, why):
    with pytest.raises(FmtError, match=why) as info:
        parse_document(CELL_HEAD + record + "\n")
    assert "line 6" in str(info.value)


atoms = st.text("ab09_*'+.=|!?$-", min_size=1, max_size=3)
nested_labels = st.recursive(atoms, lambda inner: st.tuples(inner, inner),
                             max_leaves=5)
carriers = st.lists(nested_labels, unique=True, max_size=4).map(FinSet)


@st.composite
def spans_with_pair_apexes(draw):
    X, A = draw(carriers), draw(carriers)
    size = draw(st.integers(0, 5)) if len(X) and len(A) else 0
    apex = FinSet(draw(st.lists(st.tuples(nested_labels, nested_labels),
                                unique=True, min_size=size, max_size=size)))
    legs = [SetFn(apex, C, (draw(st.sampled_from(C.elements))
                            for _ in apex)) for C in (X, A)]
    return Span(X, A, apex, *legs)


@settings(max_examples=40, deadline=None)
@given(spans_with_pair_apexes(), spans_with_pair_apexes())
def test_document_round_trip_with_nested_pair_labels(R, T):
    doc = describe({"R": R, "T": T})
    assert parse_document(print_document(doc)) == doc


MALFORMED_ENTRIES = [
    ("span S : X -> X = (a:b,c):x:y", "expected 3-part entry"),
    ("span S : X -> X = a::b", "expected a label atom at ''"),
    ("rel R : X -> X = (a,b:x", "unclosed pair label"),
    ("span S : X -> X = s0:x:x:", "expected 3-part entry"),
    ("rel R : X -> X = x:", "expected a label atom at ''"),
    ("span S : X -> X = %s:x:x" % _nested(MAX_LABEL_DEPTH + 1),
     "label nests pairs more than"),
    ("fn f : X -> X = x:x x:x", "fn f lists a domain element twice"),
    ("rel R : X -> X = x:x x:x", "rel R lists a pair twice"),
    # Two faults: the first malformed entry decides the message.
    ("span S : X -> X = (a:x:x s1:x:x s2:x",
     "expected ',' in pair label near ''"),
    ("span S : X -> X = s0:x s1:x:x (a:x:x",
     "expected 3-part entry, got 's0:x'"),
    ("rel R : X -> X = x:(x, x:x:x", "expected a label atom at ''"),
    ("span S : X -> X = s0:x:x s1:x:(x,x s2:x", "unclosed pair label near ''"),
]


@pytest.mark.parametrize("record,why", MALFORMED_ENTRIES)
def test_malformed_entries_are_refused_with_their_line(record, why):
    with pytest.raises(FmtError, match="^line 2: " + why):
        parse_document("set X = x\n" + record + "\n")


@pytest.mark.parametrize("record,why", MALFORMED_ENTRIES)
def test_cli_malformed_entries_exit_two(tmp_path, capsys, record, why):
    fix = tmp_path / "malformed.bicat"
    fix.write_text("set X = x\n%s\ncheck equal X X\n" % record)
    rc = cli.main(["--instance", "span", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--fixtures", str(fix)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "bicat-check: malformed fixtures: line 2: " + why in err
    assert "Traceback" not in out + err


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def mutated_label_texts(draw):
    chars = list(render_label(draw(nested_labels)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(chars)))
        edit, c = draw(st.sampled_from("idr")), draw(st.sampled_from("(),:a"))
        if edit == "i":
            chars.insert(i, c)
        elif i < len(chars):
            chars[i:i + 1] = "" if edit == "d" else c
    return "".join(chars)


label_texts = st.one_of(nested_labels.map(render_label),
                        st.text("(),:a", max_size=12), mutated_label_texts())


@settings(max_examples=300, deadline=None)
@given(st.lists(label_texts, max_size=8))
def test_label_table_agrees_with_parse_label(texts):
    # One table for all texts, so later texts meet halves parsed earlier.
    table = _Labels()
    for text in texts:
        assert _outcome(table.__getitem__, text) == _outcome(parse_label, text)


def test_label_table_bounds_depth_without_recursion_error():
    table = _Labels()
    for depth in (MAX_LABEL_DEPTH + 1, 2000):
        for text in (_nested(depth), "(a,%s)" % _nested(depth - 1)):
            with pytest.raises(ValueError, match="^label nests pairs more"):
                table[text]
    deepest = _nested(MAX_LABEL_DEPTH)
    assert table[deepest] == parse_label(deepest)
    # More than MAX_LABEL_DEPTH parens, but shallow: a complete tree.
    wide = "a"
    for _ in range(7):
        wide = "(%s,%s)" % (wide, wide)
    assert table[wide] == parse_label(wide)


@pytest.mark.parametrize("text", ["((" + "," * 200_000 + ")",
                                  "(a," + "," * 200_000 + ")"],
                         ids=["pair-left", "atom-left"])
def test_label_table_refuses_a_long_comma_run_at_once(text):
    with pytest.raises(ValueError) as parsed:
        parse_label(text)
    start = time.perf_counter()
    with pytest.raises(ValueError) as tabled:
        _Labels()[text]
    assert time.perf_counter() - start < 1.0
    assert str(tabled.value) == str(parsed.value)


def test_pair_labels_share_their_parsed_halves():
    doc = parse_document(fixturegen.generate(3, 300)[0])
    shared = 0
    for chk in doc.checks:
        if chk.kind != "compose":
            continue
        R, T, H = map(doc.lookup, chk.args)
        left, right = ({x: x for x in S.apex} for S in (R, T))
        for r, t in (h for h in H.apex if isinstance(h, tuple)):
            assert r is left[r] and t is right[t]
            shared += 1
    assert shared > 1000
    # Legs are checked against their carriers, which keep their own labels.
    checked = 0
    for S in doc.entities.values():
        for leg in (S.left, S.right) if isinstance(S, Span) else ():
            X = leg.codomain
            assert all(v is X.elements[X._index[v]] for v in leg.values)
            checked += len(leg.values)
    assert checked > 10_000


def test_parsing_makes_no_reference_cycles():
    # parse_document pauses the collector as run_config does, so a parsed
    # document must be freed by reference counting alone.
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "fixtures").glob("*.bicat"))]
    texts.append(fixturegen.generate(3, 300)[0])
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            doc = parse_document(text)
            assert doc.entities
            del doc
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fixture,code", [
    ("set X = x0\nrel R : X -> X = x0:x0\ncheck map R\n", 0),
    ("set X = x0\nrel R : X -> X = x0:\n", 2),
    ("check map NOWHERE\n", 2),
], ids=["good", "malformed", "uninterpretable"])
def test_cli_leaves_the_collector_as_it_found_it(tmp_path, capsys, fixture,
                                                 code):
    fix = tmp_path / "claims.bicat"
    fix.write_text(fixture)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.main(["--instance", "rel", "--max-size", "1",
                             "--trials", "1", "--suite", "kernel",
                             "--fixtures", str(fix)]) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert "Traceback" not in "".join(capsys.readouterr())


def test_a_fixture_command_starts_no_collector_pass(tmp_path, capsys):
    # The parsed document stays live until the report is written, so a pass
    # anywhere in the command would only walk it again.
    fix = tmp_path / "claims.bicat"
    fix.write_text(fixturegen.generate(3, 300)[0], encoding="utf-8")
    phases = []

    def hook(phase, info):
        phases.append(phase)

    gc.enable()
    gc.callbacks.append(hook)
    try:
        code = cli.main(["--instance", "span", "--suite", "kernel",
                         "--report", "machine", "--fixtures", str(fix)])
    finally:
        gc.callbacks.remove(hook)
    assert code in (0, 1)
    assert "start" not in phases
    assert gc.isenabled()
    assert "Traceback" not in "".join(capsys.readouterr())


# --- whole records against label-by-label references ------------------------

def _reference_entries(body, parts, labels, stored):
    """Each entry's colon count, then each of its labels by parse_label."""
    flat = []
    for entry in body.split():
        texts = entry.split(":")
        if len(texts) != parts:
            raise FmtError("expected %d-part entry, got %r" % (parts, entry))
        flat.extend(map(parse_label, texts))
    return flat


class _ParsedEachTime(dict):
    """A label table that parses every text with parse_label and keeps
    nothing."""

    def __missing__(self, text):
        return parse_label(text)


def _reference_parse(text):
    # A run of whitespace between tokens reads as one space.
    text = "".join(" ".join(line.split()) + "\n" for line in text.splitlines())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fmt, "_entries", _reference_entries)
        mp.setattr(fmt, "_Labels", _ParsedEachTime)
        return _outcome(parse_document, text)


def _flat_entries(body, parts):
    """Every entry is ``parts`` labels, each an atom or a pair of two."""
    def flat(text):
        try:
            label = parse_label(text)
        except ValueError:
            return False
        return isinstance(label, str) or all(isinstance(h, str) for h in label)
    return all(len(texts := entry.split(":")) == parts
               and all(map(flat, texts)) for entry in body)


flat_labels = st.one_of(atoms, st.tuples(atoms, atoms))
any_labels = st.one_of(
    flat_labels,
    st.tuples(st.tuples(atoms, atoms), atoms),      # left-nested
    st.tuples(atoms, st.tuples(atoms, atoms)),      # right-nested
    st.just(parse_label(_nested(MAX_LABEL_DEPTH))))
#: Any token at all: labels of every shape, too deep and mutated texts.
tokens = st.one_of(
    any_labels.map(render_label),
    st.sampled_from([_nested(MAX_LABEL_DEPTH + 1),
                     "(a,%s)" % _nested(MAX_LABEL_DEPTH)]),
    label_texts)


@st.composite
def record_documents(draw):
    """Two carriers, a span on them, then one record of a drawn kind.  In
    a noisy document a quarter of the tokens are drawn from ``tokens``.
    Tokens are separated by runs of spaces and tabs."""
    labels = draw(st.sampled_from([flat_labels, any_labels]))
    noisy = draw(st.booleans())

    def spaced(*tokens):
        gaps = itertools.cycle(draw(st.lists(
            st.sampled_from([" ", "\t", "  ", " \t "]), min_size=1,
            max_size=3)))
        return "".join(map("".join, zip(tokens, gaps))).rstrip()

    def texts(min_size=0):
        return [render_label(x) for x in draw(st.lists(
            labels, unique=True, min_size=min_size, max_size=4))]

    def pick(choices):
        if noisy and draw(st.integers(0, 3)) == 0:
            return draw(tokens)
        return draw(st.sampled_from(choices))

    X, A, apex, more = texts(1), texts(1), texts(), texts(1)
    lines = [spaced("set", "X", "=", *X), spaced("set", "A", "=", *A),
             spaced("span", "S", ":", "X", "->", "A", "=", *(
                 "%s:%s:%s" % (e, pick(X), pick(A)) for e in apex))]
    kind = draw(st.sampled_from(["span", "fn", "rel", "cell", "set"]))
    if kind == "span":
        body = ["%s:%s:%s" % (pick(more), pick(X), pick(A))
                for _ in range(draw(st.integers(0, 4)))]
    elif kind == "fn":
        body = ["%s:%s" % (pick(X), pick(A)) for _ in X]
    elif kind == "rel":
        body = ["%s:%s" % (pick(X), pick(A))
                for _ in range(draw(st.integers(0, 4)))]
    elif kind == "cell":
        body = ["%s:%s" % (pick(apex), pick(apex)) for _ in apex]
    else:
        body = [pick(more) for _ in range(draw(st.integers(0, 4)))]
    head = {"set": "set Y =", "cell": "cell c : S -> S ="}.get(
        kind, "%s R : X -> A =" % kind)
    lines.append(spaced(*head.split(), *body))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(record_documents())
# An apex column of pairs only, over every atom character but letters and
# digits: the pair columns are split at their brackets.
@example("set X = x_ x* x'\nset A = a+ a. a=\nspan R : X -> A = "
         "(_*,'+):x_:a+ (.=,|!):x*:a. (?$,-_):x':a= (-,$):x_:a+\n")
# Pairs and atoms in one apex column take the label-by-label branch.
@example("set X = x0 x1\nset A = a0\nspan R : X -> A = "
         "(p,q):x0:a0 r:x1:a0 (r,p):x0:a0\n")
# Legs into a carrier of pairs: a checked column built from its halves.
@example("set X = (p,q) (q,p)\nset A = a0 (a,b)\nspan R : X -> A = "
         "s:(q,p):(a,b) t:(p,q):(a,b) u:(q,p):(a,b)\n")
def test_records_parse_as_label_by_label(text):
    # The same document, or the same error on the same line, as parsing
    # every label of every entry on its own; and only a record with some
    # entry that is not flat labels leaves the one match.
    flat_refused = []
    by_label = fmt._label_by_label

    def spy(body, parts, labels):
        flat_refused.append(_flat_entries(body, parts))
        return by_label(body, parts, labels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fmt, "_label_by_label", spy)
        got = _outcome(parse_document, text)
    assert got == _reference_parse(text)
    assert not any(flat_refused)


@pytest.mark.parametrize("text", ["((" + "," * 200_000 + ")",
                                  "(a," + "," * 200_000 + ")"],
                         ids=["pair-left", "atom-left"])
def test_a_long_comma_run_in_a_record_is_refused_at_once(text):
    with pytest.raises(ValueError) as parsed:
        parse_label(text)
    start = time.perf_counter()
    with pytest.raises(FmtError) as refused:
        parse_document("set X = x\nspan S : X -> X = %s:x:x\n" % text)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == "line 2: %s" % parsed.value


def test_a_record_of_100k_pair_entries_parses_at_once():
    n = 100_000
    text = "set X = x\nspan S : X -> X = %s\n" % " ".join(
        "(p%d,q%d):x:x" % (i, i) for i in range(n))
    start = time.perf_counter()
    doc = parse_document(text)
    assert time.perf_counter() - start < 1.0
    apex = doc.lookup("S").apex
    assert len(apex) == n and apex.elements[-1] == ("p%d" % (n - 1),
                                                    "q%d" % (n - 1))


def _reference_body(value):
    """A record's body, one entry at a time."""
    if isinstance(value, FinSet):
        entries = ((e,) for e in value)
    elif isinstance(value, SetFn):
        entries = zip(value.domain, value.values)
    elif isinstance(value, Span):
        entries = zip(value.apex, value.left.values, value.right.values)
    elif isinstance(value, Rel):
        entries = value.pairs
    else:
        entries = value.entries
    return " ".join(":".join(map(render_label, entry)) for entry in entries)


@st.composite
def documents_to_print(draw):
    """A span with pair apex labels, a relation, a function and a span
    cell on its carriers, and a relation cell, which has no entries."""
    R = draw(spans_with_pair_apexes())
    X, A = R.source, R.target
    pairs = draw(st.lists(st.tuples(st.sampled_from(X.elements),
                                    st.sampled_from(A.elements)),
                          unique=True, max_size=6)) if len(X) and len(A) else []
    named = {"R": R, "Q": Rel(X, A, pairs)}
    if len(A) or not len(X):
        named["f"] = SetFn(X, A, (draw(st.sampled_from(A.elements))
                                  for _ in X))
    doc = describe(named)
    apex = R.apex.elements
    doc.declare("c", CellRec("R", "R", tuple(
        zip(apex, draw(st.permutations(apex))))))
    doc.declare("e", CellRec("Q", "Q", ()))
    return doc


@settings(max_examples=30, deadline=None)
@given(documents_to_print())
def test_printer_matches_a_per_entry_reference(doc):
    lines = print_document(doc).splitlines()
    assert not [line for line in lines if line.endswith(" ")]
    printed = {line.split()[1]: line for line in lines}
    for name, value in doc.entities.items():
        head = printed[name].partition(" =")[0]
        assert printed[name] == (
            "%s = %s" % (head, _reference_body(value))).rstrip()
