"""The plain-text interchange format: printing, parsing, describing."""

import random

import pytest

from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn
from bicat.fmt import (Check, Document, FmtError, describe, parse_document,
                       print_document)
from bicat.gen import one_cell
from bicat.rels import Rel
from bicat.spans import Span

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
    assert doc.sets["X"] == FinSet(("x0", "x1"))
    assert doc.fns["f"] == SetFn(doc.sets["X"], doc.sets["A"], ("a0", "a0"))
    assert doc.spans["F"].apex == FinSet(("s0", "s1"))
    assert doc.rels["R"] == Rel(doc.sets["X"], doc.sets["A"], (("x0", "a0"),))
    assert doc.cells["c"].entries == (("s0", "s0"), ("s1", "s1"))
    assert [c.kind for c in doc.checks] == ["map", "compose", "equal", "cell"]
    assert doc.checks[1] == Check("compose", ("F", "F", "F"))


def test_lookup_and_unknown_entity():
    doc = parse_document(SAMPLE)
    assert doc.lookup("F") is doc.spans["F"]
    with pytest.raises(FmtError):
        doc.lookup("nope")


def test_paired_labels_round_trip():
    text = (
        "set P = (x0,y0) (x0,y1)\n"
        "set A = a0\n"
        "rel R : P -> A = (x0,y1):a0\n"
    )
    doc = parse_document(text)
    assert ("x0", "y1") in doc.sets["P"]
    assert doc.rels["R"].pairs == ((("x0", "y1"), "a0"),)
    assert parse_document(print_document(doc)).rels["R"] == doc.rels["R"]


def test_nested_pairs_survive():
    text = "set T = ((x0,y0),z0) ((x0,y1),z1)\n"
    doc = parse_document(text)
    assert (("x0", "y1"), "z1") in doc.sets["T"]
    assert print_document(parse_document(print_document(doc))) \
        == print_document(doc)


def test_describe_round_trips_random_cells():
    rng = random.Random(9)
    for B in (span_instance(), rel_instance()):
        for trial in range(15):
            X = FinSet("x%d" % i for i in range(rng.randint(0, 3)))
            A = FinSet("a%d" % i for i in range(rng.randint(0, 3)))
            R = one_cell(B, rng, X, A, 3)
            S = one_cell(B, rng, X, A, 3)
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
    assert sum(1 for fs in doc.sets.values() if fs == X) == 1
    text = print_document(doc)
    assert text.count("set") == 2


def test_describe_handles_cells():
    B = span_instance()
    X = FinSet(("x0",))
    R = B.identity(X)
    cell = B.id2(R)
    doc = describe({"c": cell})
    parsed = parse_document(print_document(doc))
    rec = parsed.cells["c"]
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
    ]
    for text in bad:
        with pytest.raises(FmtError):
            parse_document(text)


def test_parse_errors_carry_line_numbers():
    text = "set X = x0\nwobble\n"
    with pytest.raises(FmtError) as info:
        parse_document(text)
    assert "line 2" in str(info.value)


def test_unprintable_labels_are_refused():
    X = FinSet(("ok", "not ok"))
    with pytest.raises(FmtError):
        print_document(describe({"X": X}))


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n\nset X = x0\n   # indented comment\n"
    doc = parse_document(text)
    assert list(doc.sets) == ["X"]


def test_empty_set_and_empty_span():
    text = (
        "set E =\n"
        "set A = a0\n"
        "span Z : E -> A =\n"
        "rel N : E -> A =\n"
    )
    doc = parse_document(text)
    assert len(doc.sets["E"]) == 0
    assert len(doc.spans["Z"].apex) == 0
    assert doc.rels["N"].pairs == ()
    assert parse_document(print_document(doc)).spans["Z"] == doc.spans["Z"]


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
    assert doc.cells["c"].entries == (("s0", "t0"), ("s1", "t1"))
    assert doc.cells["r"].entries == ()
    assert parse_document(print_document(doc)).cells == doc.cells


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
