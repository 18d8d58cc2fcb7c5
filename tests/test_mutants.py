"""Mutation analysis as a table, since no mutation tool is installed
(DeMillo, Lipton & Sayward 1978; Jia & Harman 2011).  Each entry of
:data:`MUTANTS` is ``(name, patch, instances, {row id: status})``, and
:func:`apply_mutant` binds each mutant of ``patch`` wherever a ``bicat``
module or class binds the honest function it maps, so no source file is
edited.  A mutant is killed when a law row it names reads ``fail``, or the
control that guards that row does; an ``error`` row never counts.
"""

import re
import sys

import pytest

from bicat import cartesian, coherence, fin, groth, harness, kernel, mapprod
from bicat.fmt import parse_document
from bicat.gen import SUITES, GenConfig
from bicat.harness import SUITE_CHECKS, instance_for, run_check
from bicat.homprod import LocalProductWitness
from bicat.rels import Rel, RelBicat, RelCell
from bicat.spans import Span, SpanBicat

#: Every report row by id.
ROWS = {spec.check_id: spec for specs in SUITE_CHECKS.values()
        for spec in specs}


def apply_mutant(m, name):
    """Bind the mutants of the entry ``name`` through the monkeypatch ``m``
    wherever a ``bicat`` module, or a class one defines, binds the honest
    function."""
    (patch,) = [patch for entry, patch, _, _ in MUTANTS if entry == name]
    modules = [module for key, module in sys.modules.items()
               if key.split(".")[0] == "bicat"]
    owners = modules + [value for module in modules
                        for value in vars(module).values()
                        if isinstance(value, type)
                        and value.__module__ == module.__name__]
    for honest, mutant in patch.items():
        bound = [(owner, attr) for owner in owners
                 for attr, value in vars(owner).items() if value is honest]
        assert bound, (name, honest)
        for owner, attr in bound:
            m.setattr(owner, attr, mutant)


# --- mutants -----------------------------------------------------------------

def _raise(*args):
    raise ValueError("corruption raised")


def _refuse(self, R):
    raise kernel.NotAMap("every 1-cell refused")


def _rewritten(honest, rewrite):
    """The patch that answers ``rewrite(answer, *args)`` for ``honest``'s
    answer to ``args``."""
    return {honest: lambda *args: rewrite(honest(*args), *args)}


def _another_cell(right, B, *args):
    return next((c for c in B.hom_cells(right.dom, right.cod) if c != right),
                right)


def _into_terminal(right, B, *args):
    return B.vcomp(right, B.tau(right.cod))


def _from_empty(B, T):
    """The one cell into ``T`` from the empty 1-cell parallel to it."""
    E = fin.FinSet(())
    empty = B.comp(B.local_terminal(T.source, E), B.local_terminal(E, T.target))
    return next(B.hom_cells(empty, T))


def _empty_off_diagonal(tens, B, R, S):
    # The tensor of two different 1-cells is the empty 1-cell.
    if R is S:
        return tens
    p1, p2 = (_from_empty(B, p.cod)
              for p in (tens.wedge.proj1, tens.wedge.proj2))
    return groth.TensorWitness(B, p1.dom, (R, S),
                               LocalProductWitness(p1.dom, p1, p2, None),
                               tens.src_cone, tens.tgt_cone)


def _twisted(braid, L, X, Y):
    # The braid's map after a transposition of the first two elements of
    # its first factor.
    B = instance_for("span" if isinstance(braid, Span) else "rel")
    xs = tuple(X)
    swap = dict(zip(xs[:2], reversed(xs[:2])))
    tau = B.graph(fin.SetFn(X, X, (swap.get(x, x) for x in xs)))
    return L.comp(L.times(tau, L.identity(Y)), braid)


def _union(self, R, S):
    W = Rel(R.source, R.target, R.pairset | S.pairset)
    return LocalProductWitness(W, RelCell(W, R), RelCell(W, S),
                               lambda phi, psi: RelCell(phi.dom, W))


_Corrupt, _pair_map = harness._Corrupt, mapprod.pair_map
BOTH = ("span", "rel")
MAP_ADJUNCTIONS = (SpanBicat.map_adjunction, RelBicat.map_adjunction)
#: The controls whose corruption is an instance proxy, ``harness._Corrupt``,
#: by the entry that makes the proxy raise.
PROXIED = {"terminal-cell-proxy-raises": "negative-misplaced-terminal-cell",
           "doubled-cells-proxy-raises": "negative-doubled-cells",
           "tau-as-identity-proxy-raises": "negative-tau-as-identity",
           "empty-terminal-proxy-raises": "negative-empty-terminal"}

MUTANTS = [
    # Each control runs the checker of its row: with the checker always
    # holding the control fails, and with it never holding the row no
    # longer passes.  An instance that refuses every map passes the control.
    ("map-adjunction-accepts", dict.fromkeys(MAP_ADJUNCTIONS, lambda *a: None),
     BOTH, {"negative-nonmap-rejected": "fail"}),
    ("map-adjunction-refuses-maps", dict.fromkeys(MAP_ADJUNCTIONS, _refuse),
     BOTH, {"map-adjunction-triangles": "error",
            "negative-nonmap-rejected": "pass"}),
    ("terminal-cell-always-unique",
     {harness._tau_is_the_only_cell: lambda *a: True}, BOTH,
     {"negative-misplaced-terminal-cell": "fail"}),
    ("terminal-cell-never-unique",
     {harness._tau_is_the_only_cell: lambda *a: False}, BOTH,
     {"terminal-cell-unique": "fail"}),
    ("cone-always-universal", {mapprod.check_product_cone: lambda *a: None},
     BOTH, {"negative-collapsed-cone": "fail"}),
    ("cone-never-universal",
     {mapprod.check_product_cone: lambda *a: {"kind": "any"}}, BOTH,
     {"product-cone-universal": "fail"}),
    ("pairing-always-unique", {harness._pair_unique: lambda *a: True}, BOTH,
     {"negative-doubled-cells": "fail"}),
    ("pairing-never-unique", {harness._pair_unique: lambda *a: False}, BOTH,
     {"tensor-pairing-uniqueness": "fail"}),
    ("tensor-functor-always-holds",
     {cartesian.tensor_functor_law_holds: lambda *a: True}, BOTH,
     {"negative-tau-as-identity": "fail"}),
    ("tensor-functor-never-holds",
     {cartesian.tensor_functor_law_holds: lambda *a: False}, BOTH,
     {"tensor-2cell-functorial": "fail"}),
    ("always-cartesian", {cartesian.is_cartesian: lambda *a: None}, BOTH,
     {"negative-empty-terminal": "fail"}),
    ("never-cartesian", {cartesian.is_cartesian: lambda *a: {"kind": "any"}},
     BOTH, {"global-constraints-invertible": "fail"}),
    ("routes-always-mediated",
     {coherence.route_cells: lambda *a: (None, None, [])}, BOTH,
     {"negative-identity-braid": "fail"}),
    ("routes-never-mediated",
     {coherence.route_cells: lambda *a: {"kind": "any"}}, BOTH,
     {"swap-involution": "fail"}),
    # A control catches nothing: a corruption that raises makes it an
    # error row, and without its corruption it fails.
    ("map-adjunction-raises", dict.fromkeys(MAP_ADJUNCTIONS, _raise), BOTH,
     {"negative-nonmap-rejected": "error"}),
    ("cone-raises", {mapprod.ProductCone: _raise}, BOTH,
     {"negative-collapsed-cone": "error"}),
    ("pair-map-raises", {mapprod.pair_map: _raise}, BOTH,
     {"negative-identity-braid": "error"}),
    ("pair-map-swapped",
     {mapprod.pair_map: lambda B, f, g: _pair_map(B, g, f)}, BOTH,
     {"negative-identity-braid": "fail"}),
    *((name, {_Corrupt: lambda B, **ops: _Corrupt(
        B, **dict.fromkeys(ops, _raise))}, BOTH, {control: "error"})
      for name, control in PROXIED.items()),
    ("proxy-is-the-instance", {_Corrupt: lambda B, **ops: B}, BOTH,
     dict.fromkeys(PROXIED.values(), "fail")),
    # A square keeps the cell it was built from as its secondary form, so
    # the row takes the mate back through the kernel, where a wrong mate
    # shows.  A pairing built through a wrong mate is a wrong constraint
    # cell, which the rows built from pairings show.  A relation's hom-sets
    # hold at most one cell.
    *((f"{mate.__name__}{rewrite.__name__}".replace("_", "-"),
       _rewritten(mate, rewrite), instances,
       dict.fromkeys(("mate-round-trip", *rows), "fail"))
      for mate, rewrite, instances, rows in (
          (kernel.mate_to_secondary, _another_cell, ("span",),
           ("tensor-unit-constraint", "unit-factor-pairing",
            "composition-comparisons")),
          (kernel.mate_to_secondary, _into_terminal, BOTH, ()),
          (kernel.mate_to_primary, _another_cell, ("span",),
           ("unit-factor-pairing", "composition-comparisons")),
          (kernel.mate_to_primary, _into_terminal, BOTH,
           ("global-constraints-invertible", "unit-factor-pairing")))),
    # A tensor's projection squares are built when a row first reads them,
    # so a construction that raises there is that row's error.
    ("projection-square-raises", {groth.garr_from_secondary: _raise}, BOTH,
     {"tensor-pairing-projections": "error"}),
    # The row, not an exception inside the construction, says that the law
    # fails: a comparison is not invertible, or a law's two composites are
    # not isomorphic, while every cell stays well formed.  A pairing from
    # the empty 1-cell breaks every constraint cell built from one, so the
    # unit constraint fails before the clause the empty-terminal control
    # corrupts.
    ("comparison-from-empty",
     _rewritten(groth.g_pair, lambda got, B, *args: got._replace(
         primary=B.vcomp(_from_empty(B, got.primary.dom), got.primary))),
     BOTH,
     dict.fromkeys(("composition-comparisons", "global-constraints-invertible",
                    "unit-factor-pairing", "negative-empty-terminal"),
                   "fail")),
    ("tensor-empty-off-diagonal",
     _rewritten(groth.g_tensor, _empty_off_diagonal), BOTH,
     {"diagonal-unit-comparison": "fail"}),
    ("pairing-second-reversed",
     _rewritten(mapprod.pair_map, lambda got, B, f, g: _pair_map(
         B, f, B.graph(fin.SetFn(g.source, g.target,
                                 g.fn().values[::-1])))), BOTH,
     {"pairing-projection-identities": "fail",
      "diag-bang-pseudonatural": "fail"}),
    ("diagonal-mirrored",
     _rewritten(mapprod.diag, lambda got, B, X: B.graph(fin.SetFn(
         X, got.target, zip(X, reversed(X.elements))))), BOTH,
     {"diag-bang-pseudonatural": "fail"}),
    # A wrong braid leaves the route composites off their mediators; the
    # control builds its braid from a corrupted level and still passes.
    ("braid-twisted", _rewritten(coherence.braid, _twisted), BOTH,
     {"braid-syllepsis-equations": "fail", "swap-involution": "fail",
      "braid-hexagon": "fail", "negative-identity-braid": "pass"}),
    # A relation need only be total, a span's left leg only surjective:
    # map_adjunction then fails with an untyped error, not NotAMap.
    ("rel-is-map-total",
     {Rel.is_map: lambda self: ({x for x, _ in self.pairset}
                                == set(self.source))}, ("rel",),
     {"negative-nonmap-rejected": "error"}),
    ("span-is-map-left-surjective",
     {Span.is_map: lambda self: set(self.left.values) == set(self.source)},
     ("span",), {"negative-nonmap-rejected": "error"}),
    # Relation primitives broken without changing their types make checks
    # raise inside the instance: the rows of their own laws read error, and
    # no row fails, so none of these is killed yet.
    ("comp-drops-first-pair",
     _rewritten(RelBicat.comp, lambda got, *args: Rel(
         got.source, got.target, got.pairs[1:])), ("rel",),
     {"map-adjunction-triangles": "error",
      "rebracket-two-sided-inverse": "error"}),
    ("local-product-is-union", {RelBicat.local_product: _union}, ("rel",),
     {"wedge-universal-pairing": "error"}),
    ("local-terminal-is-empty",
     {RelBicat.local_terminal: lambda self, X, Y: Rel(X, Y, ())}, ("rel",),
     {"terminal-cell-unique": "error", "negative-empty-terminal": "error"}),
]

#: Entries that take a control's corruption away, so that its payload
#: shows the uncorrupted input.
UNCORRUPTED = ("pair-map-swapped", "proxy-is-the-instance")


@pytest.mark.parametrize("name,patch,instances,rows", MUTANTS,
                         ids=[entry[0] for entry in MUTANTS])
def test_each_mutant_reads_its_recorded_statuses(monkeypatch, name, patch,
                                                 instances, rows):
    # At the command's defaults, each named row passes without the patch
    # and reads its status with it.  A fail shows entities, and a control,
    # passing or failing, the same corrupted input as without the patch;
    # an error shows the exception.
    for instance in instances:
        B = instance_for(instance)
        cfg = GenConfig(seed=0, max_carrier=3, trials=50, instance=instance,
                        suites=SUITES)
        honest = {row: run_check(B, cfg, ROWS[row]) for row in rows}
        assert all(r.status == "pass" for r in honest.values()), instance
        with monkeypatch.context() as m:
            apply_mutant(m, name)
            got = {row: run_check(B, cfg, ROWS[row]) for row in rows}
        assert {row: r.status for row, r in got.items()} == rows, instance
        for row, r in got.items():
            shown = r.counterexample
            if r.status == "error":
                assert r.trials == 0 and re.fullmatch(r"# \w+: .+\n", shown)
            elif r.status == "fail":
                assert parse_document(shown).entities, (instance, row)
            if (r.status != "error" and ROWS[row].row is not None
                    and name not in UNCORRUPTED):
                assert shown == honest[row].counterexample, (instance, row)


def test_every_control_and_its_row_are_in_the_table():
    # On both instances, some entry makes each control fail and some makes
    # it an error, and some entry breaks the row it guards.
    named = {(row, status) for _, _, instances, rows in MUTANTS
             if instances == BOTH for row, status in rows.items()}
    for control, spec in ROWS.items():
        if spec.row is not None:
            assert {(control, "fail"), (control, "error")} <= named, control
            assert {(spec.row, "fail"), (spec.row, "error")} & named, control
