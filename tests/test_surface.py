"""Every public function of the library is used by the program itself.

A public function (or method) of ``src/bicat`` that only tests call is a
second mechanism for a job the checks already do, or a law no report row
states.  Either wire it into a check or delete it; the allowlist names the
few that stay on purpose.  A module-level function counts as used only
where the program reaches it: by its bare name in its own module or in one
that imports it, or as ``module.name`` through an imported module.  Methods
are matched by attribute name, so a method that shares its name with one
the program reads is not caught.

No module of ``src/bicat`` or ``tests`` imports a name it never reads, no
paper layer asks which instance it runs on, only ``spans`` reads the shape
tags of its spans and cells, only the two levels of ``coherence`` name the
product operations, the interned value classes keep object identity as
their equality, every memoised operation is exercised by the memo laws, no
law verdict is compared with a dict display, both instances expose the
same operations with the same parameters, no function of ``src/bicat``
imports inside its body, importing the command line loads neither
``dataclasses`` nor ``inspect`` (nor, without ``site``, ``typing``),
one function of the harness runs every report row, and no negative
control catches an exception or reads an instance's name.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import test_upper_memos
from bicat import rel_instance, span_instance
from bicat.fin import FinSet, SetFn
from bicat.rels import Rel, RelBicat, RelCell
from bicat.spans import Span, SpanBicat, SpanCell

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "bicat").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: The modules that state the paper's constructions, once for any instance.
PAPER_LAYERS = ("kernel", "homprod", "mapprod", "groth", "cartesian",
                "coherence")

ALLOWED = {
    # Independent oracles the tests check the library against, and the
    # report normaliser the golden-report tests compare with.
    "is_product_diagram", "span_image", "parse_machine", "one_cells",
    "strip_wall",
    # Paper content with no report row yet.
    "g_constraints_invertible", "braid_natural", "assoc_natural",
    "unit_natural",
}


class _Uses(ast.NodeVisitor):
    """The reads of one module, except a function's mentions of itself.

    ``names`` holds every name and attribute read.  ``reached`` holds the
    ``(module, function)`` pairs those reads resolve to through ``bound``
    (bare names: the module's own functions and its ``from .m import f``)
    and ``modules`` (aliases of imported sibling modules)."""

    def __init__(self, bound, modules):
        self.bound, self.modules = bound, modules
        self.names, self.reached = set(), set()
        self.inside = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def visit_Name(self, node):
        if node.id not in self.inside:
            self.names.add(node.id)
            if node.id in self.bound:
                self.reached.add(self.bound[node.id])

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.names.add(node.attr)
            if (isinstance(node.value, ast.Name)
                    and node.value.id in self.modules):
                self.reached.add((self.modules[node.value.id], node.attr))
        self.generic_visit(node)


def _public_functions(tree):
    """``(name, is_method)`` for each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield m.name, True
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False


def _imports(tree, module_names):
    """The sibling functions and modules ``tree`` imports, by local name."""
    bound, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in module_names:
                    modules[local] = alias.name
                else:
                    bound[local] = (node.module or "__init__", alias.name)
    return bound, modules


def _surface():
    """The public functions and methods, each with its module, and the
    uses: ``(module, name)`` pairs for functions, bare names for methods."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PROGRAM}
    functions, methods = set(), {}
    for mod, tree in trees.items():
        for name, is_method in _public_functions(tree):
            if is_method:
                methods.setdefault(name, mod)
            else:
                functions.add((mod, name))
    names, reached = set(), set()
    for mod, tree in trees.items():
        bound, modules = _imports(tree, trees)
        bound.update({n: (m, n) for m, n in functions if m == mod})
        uses = _Uses(bound, modules)
        uses.visit(tree)
        names |= uses.names
        reached |= uses.reached
    return functions, methods, names, reached


def _unused():
    functions, methods, names, reached = _surface()
    unused = {(mod, name) for mod, name in functions
              if (mod, name) not in reached}
    unused |= {(mod, name) for name, mod in methods.items()
               if name not in names}
    return functions, methods, unused


def test_no_public_function_is_used_only_by_tests():
    _, _, unused = _unused()
    flagged = sorted("%s.%s" % (mod, name) for mod, name in unused
                     if name not in ALLOWED)
    assert not flagged, "wire these into a check or delete them: %s" % flagged


def test_allowlist_names_only_unused_public_functions():
    functions, methods, unused = _unused()
    defined = {name for _, name in functions} | set(methods)
    flagged = {name for _, name in unused}
    stale = sorted(n for n in ALLOWED if n not in defined or n not in flagged)
    assert not stale, "drop these from the allowlist: %s" % stale


def _unused_imports(source):
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_import_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, re\nimport xml.dom\n"
              "from . import fin as f\nfrom .fin import UNIT, FinSet\n"
              "def g(x: FinSet):\n    os = 1\n    return re.compile(f.x)\n")
    assert _unused_imports(source) == ["os", "xml", "UNIT"]


def test_no_module_imports_a_name_it_never_reads():
    unused = ["%s: %s" % (path.relative_to(ROOT), name)
              for path in PROGRAM + TESTS
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "remove these imports: %s" % unused


def test_no_function_imports_inside_its_body():
    # A module's dependencies are the imports at its top; no module of the
    # program needs a function-local import to break a cycle.
    local = ["%s:%d" % (path.name, node.lineno) for path in PROGRAM
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, "move these imports to the module top: %s" % local


def test_paper_layers_do_not_branch_on_the_instance():
    # Reading an instance's ``name`` picks per-instance code: a second
    # answer to a question the instance's own operations answer.  The
    # generator too draws through those operations, so it imports neither
    # instance module.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PROGRAM if path.stem in PAPER_LAYERS + ("gen",)}
    reads = ["%s.py:%d" % (stem, node.lineno) for stem, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "name"]
    assert not reads, "paper layers read an instance's name: %s" % reads
    imported = {name for node in ast.walk(trees["gen"])
                if isinstance(node, ast.ImportFrom)
                for name in (node.module, *(a.name for a in node.names))}
    assert not imported & {"spans", "rels", "bicat.spans", "bicat.rels"}


def test_only_spans_reads_the_span_shape_tags():
    # The identity-leg rules and the identity shortcuts belong to the span
    # instance; another module reading the tags would second-guess them.
    tags = {"_graph", "_cograph", "_identity"}
    reads = ["%s:%d" % (path.name, node.lineno) for path in PROGRAM
             if path.stem != "spans"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in tags]
    assert not reads, "shape tags read outside spans.py: %s" % reads


def test_only_the_levels_name_the_product_operations():
    # The bracketing trees reach products only through a level, so a second
    # per-level construction of a constraint cannot creep back in.
    ops = {"product_object", "pairing", "pair_map", "times_on_arrows", "bang",
           "g_tensor", "g_pair", "g_compose", "g_identity", "g_terminal",
           "g_bang", "UNIT"}
    tree = ast.parse((ROOT / "src" / "bicat" / "coherence.py")
                     .read_text(encoding="utf-8"))
    modules = {a.asname or a.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module is None
               for a in node.names}

    def read(node):
        """The bare name, or the sibling module's attribute, ``node`` reads."""
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return node.attr
        return None

    reads = ["%s:%d" % (fn.name, node.lineno) for fn in tree.body
             if isinstance(fn, ast.FunctionDef)
             and fn.name not in ("maps", "squares")
             for node in ast.walk(fn) if read(node) in ops]
    assert not reads, "read these through a level: %s" % reads


def _protocol(cls):
    """Each public method of ``cls`` with its parameters' names, kinds and
    defaults (annotations name the instance's own classes)."""
    return {name: [(p.name, p.kind, p.default) for p in
                   inspect.signature(fn).parameters.values()]
            for name, fn in vars(cls).items()
            if not name.startswith("_") and callable(fn)}


def test_both_instances_expose_one_protocol():
    # The paper layers call an instance only through this protocol, so a
    # method or parameter that one instance lacks is a per-instance answer.
    span, rel = _protocol(SpanBicat), _protocol(RelBicat)
    assert span.keys() == rel.keys(), sorted(span.keys() ^ rel.keys())
    differ = sorted(name for name in span if span[name] != rel[name])
    assert not differ, "parameters differ: %s" % differ


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every run pays for what the program imports: ``dataclasses`` pulls in
    # ``inspect`` and builds each record class at start-up, and the records
    # are named tuples or slotted classes instead.  Annotation types come
    # from ``collections.abc``, not ``typing``; only ``-S`` shows that, as
    # ``site`` may import ``typing`` itself.
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    for flags, unwanted in (((), "'dataclasses', 'inspect'"),
                            (("-S",), "'dataclasses', 'inspect', 'typing'")):
        code = ("import sys, bicat.cli\n"
                "print(sorted({%s} & set(sys.modules)))" % unwanted)
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_value_classes_compare_by_identity():
    # Two live equal values are one object, so identity is their equality.
    # A structural ``__eq__`` next to the identity hash would break the hash
    # contract without any error.
    for cls in (FinSet, SetFn, Span, SpanCell, Rel, RelCell):
        assert cls.__eq__ is object.__eq__, cls.__name__
        assert cls.__hash__ is object.__hash__, cls.__name__


def test_every_memoised_operation_is_in_a_memo_law_list():
    # A memo that no law exercises could keep a stale or wrongly keyed
    # result unseen: each ``@memoised`` definition must be on a call list.
    memoised = {node.name for path in PROGRAM
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(d, ast.Name) and d.id == "memoised"
                        for d in node.decorator_list)}
    listed = {name for B in (span_instance(), rel_instance())
              for name, _, _ in test_upper_memos._memoised_calls(B)}
    missing = sorted(memoised - listed)
    assert not missing, "add these to a memo-law call list: %s" % missing


def test_no_verdict_is_compared_with_a_dict_display():
    # A law checker answers ``None`` or a dict naming its ``"kind"``
    # (``bicat.kernel``), and a reader tests ``is None`` or the kind.
    # Comparing a whole report with a dict display is the sign of a second
    # verdict shape.
    compares = ["%s:%d" % (path.name, node.lineno) for path in PROGRAM + TESTS
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Compare)
                and any(isinstance(x, ast.Dict)
                        for x in (node.left, *node.comparators))]
    assert not compares, "compare the kind instead: %s" % compares


def test_acceptance_gate_keeps_no_unit_of_work_of_its_own():
    # A hand-cleared memo is the sign of a loop that does a check's job:
    # the gate's sweeps are report rows or check specs, each its own unit.
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py")
                     .read_text(encoding="utf-8"))
    names = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")}
    assert "clear_table" not in names


def test_harness_has_one_row_driver():
    # Timing a row, emptying the memo and building its result belong to
    # ``run_check`` alone, so a second unit-of-work path, with an exception
    # rule of its own, cannot come back.
    tree = ast.parse((ROOT / "src" / "bicat" / "harness.py")
                     .read_text(encoding="utf-8"))
    (driver,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "run_check"]
    inside = {id(node) for node in ast.walk(driver)}
    jobs = {"clear_table", "monotonic", "CheckResult"}
    reads = ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
             if id(node) not in inside
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None))
             if name in jobs]
    assert not reads, "only run_check may do these: %s" % reads


def test_controls_catch_nothing_and_ask_no_instance_name():
    # A control is its row's checker on a corrupted input: a handler in it
    # could count a boundary error as a catch, and a branch on the
    # instance's name would be a per-instance answer.  Nor does the
    # harness build an instance's 1-cells by hand.
    tree = ast.parse((ROOT / "src" / "bicat" / "harness.py")
                     .read_text(encoding="utf-8"))
    corrupt = {call.args[2].id for call in ast.walk(tree)
               if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "negative_check"}
    assert len(corrupt) == 7, corrupt
    control = [node for node in tree.body
               if getattr(node, "name", None) in
               corrupt | {"negative_check", "_Corrupt"}]
    assert len(control) == len(corrupt) + 2
    found = ["%s:%d" % (fn.name, node.lineno) for fn in control
             for node in ast.walk(fn)
             if isinstance(node, ast.Try)
             or isinstance(node, ast.Attribute) and node.attr == "name"]
    assert not found, "control code catches or reads a name: %s" % found
    imported = {a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"Rel", "Span", "RelBicat", "SpanBicat"}
