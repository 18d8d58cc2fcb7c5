"""Every public function of the library is used by the program itself.

A public function (or method) of ``src/bicat`` that only tests call is a
second mechanism for a job the checks already do, or a law no report row
states.  Either wire it into a check or delete it; the allowlist names the
few that stay on purpose.  Uses are matched by name, so a function that
shares its name with one the program reads is not caught.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "bicat").glob("*.py"))

ALLOWED = {
    # Independent oracles the tests check the library against, and the
    # report normaliser the golden-report tests compare with.
    "is_product_diagram", "span_image", "parse_machine", "one_cells",
    "strip_wall",
    # Paper content with no report row yet.
    "g_constraints_invertible", "g_braid_natural", "braid_map_natural",
    "assoc_map_natural", "unit_map_natural",
}


class _Uses(ast.NodeVisitor):
    """Names read anywhere, except a function's mentions of itself."""

    def __init__(self):
        self.names = set()
        self.inside = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def _use(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _public_functions(tree):
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for m in members:
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                yield m.name


def _surface():
    defined, uses = {}, _Uses()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _public_functions(tree):
            defined.setdefault(name, path.name)
        uses.visit(tree)
    return defined, uses.names


def test_no_public_function_is_used_only_by_tests():
    defined, used = _surface()
    unused = sorted("%s.%s" % (mod[:-3], name)
                    for name, mod in defined.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, "wire these into a check or delete them: %s" % unused


def test_allowlist_names_only_unused_public_functions():
    defined, used = _surface()
    stale = sorted(n for n in ALLOWED if n not in defined or n in used)
    assert not stale, "drop these from the allowlist: %s" % stale
