"""Suite orchestration: checks of two kinds over both instances.

Every report row, fixture claims included, comes from :func:`run_check`: one
unit of work on an empty memo, and the one handler around a row.  A check
that raises becomes an ``error`` row with the exception as its payload, and
the run goes on.

A sampled check (:func:`property_check`) draws its carriers and structure
from a seed derived from ``(config seed, instance, check id, trial index)``,
so single trials replay in isolation.  On failure the carriers are shrunk
greedily: remove one element, regenerate the dependent structure from the
same per-trial seed, re-test, repeat until no single removal still fails.
An exhaustive check (:func:`exhaustive_check`) runs every tuple of
canonical carriers up to a size bound, and its first failure needs no
shrinking.  Either way the counterexample is rendered through the
interchange format, whose printer refuses any name or label without a text
form, so every reported payload parses back to the entities it names.

A row body reads a law checker's verdict (see :mod:`bicat.kernel`) only
through ``is None`` or its ``"kind"``.  A negative control
(:func:`negative_check`) guards one row of its suite: it runs that row's
own checker once, at pinned inputs that do not depend on the seed, with one
input corrupted (an instance proxy :class:`_Corrupt`, a corrupted
:class:`~bicat.coherence.Level` or a corrupted value), and passes exactly
when the checker reports the violation it expects.  A control catches
nothing, so a checker that raises instead gives an ``error`` row.  The
payload shows the corrupted input.
"""

from __future__ import annotations

import functools
import itertools
import time

from . import cartesian, coherence, groth, kernel, rel_instance, span_instance
from .fin import (FinSet, SetFn, UNIT, canonical_carrier, clear_table,
                  collector_paused, is_atom)
from .fmt import _KEYWORDS, Document, FmtError, describe, print_document
from .gen import GenConfig, SUITES, carrier, map_cell, rng_for
from .homprod import transport_cell, transport_hom
from .mapprod import (ProductCone, bang_sides, check_product_cone, diag_sides,
                      fill2, map_iso, maps_isomorphic, pair_map, pairing,
                      product_object)
from .report import CheckResult, RunReport, SuiteReport


class CheckSpec:
    """A report row's id and ``run(B, cfg) -> (status, trials, entities)``,
    where ``entities`` is ``None`` or the dict the payload prints.  A
    negative control also names the ``row`` it guards and the verdict it
    expects."""

    __slots__ = ("check_id", "run", "row", "expect")

    def __init__(self, check_id, run, row=None, expect=None):
        self.check_id = check_id
        self.run = run
        self.row = row
        self.expect = expect


def _payload(entities: dict) -> str:
    return print_document(describe(entities))


def run_check(B, cfg: GenConfig, spec: CheckSpec) -> CheckResult:
    """One report row, timed, on an empty memo; ``error`` with no trials
    and the exception as a comment if the check raises."""
    clear_table()  # the previous row's memo is freed outside this row's time
    t0 = time.monotonic()
    try:
        status, trials, entities = spec.run(B, cfg)
        payload = None if entities is None else _payload(entities)
    except Exception as exc:
        status, trials = "error", 0
        payload = "".join("# %s\n" % line for line in
                          ("%s: %s" % (type(exc).__name__, exc)).splitlines())
    return CheckResult(spec.check_id, status, trials, payload,
                       int((time.monotonic() - t0) * 1000))


def property_check(check_id, prefixes, body, size_cap=None, trial_cap=None):
    """A seeded check: ``body(B, rng, carriers) -> None | entity dict``;
    its trials and shrink attempts share the row's memo."""

    def run(B, cfg: GenConfig):
        bound = cfg.max_carrier if size_cap is None else min(cfg.max_carrier, size_cap)
        trials = cfg.trials if trial_cap is None else min(cfg.trials, trial_cap)

        def attempt(trial, carriers):
            rng = rng_for(cfg.seed, "%s.%s.%d.body" % (B.name, check_id, trial))
            return body(B, rng, carriers)

        for t in range(trials):
            rng = rng_for(cfg.seed, "%s.%s.%d.carriers" % (B.name, check_id, t))
            carriers = tuple(carrier(rng, p, bound) for p in prefixes)
            cx = attempt(t, carriers)
            if cx is not None:
                return "fail", t + 1, _shrink(attempt, t, carriers, cx)
        return "pass", trials, None

    return CheckSpec(check_id, run)


def _shrink(attempt, trial, carriers, cx):
    while True:
        for cand in ((*carriers[:i], FinSet(x for x in C if x != e), *carriers[i + 1:])
                     for i, C in enumerate(carriers) for e in C):
            cx2 = attempt(trial, cand)
            if cx2 is not None:
                carriers, cx = cand, cx2
                break
        else:
            return cx


def exhaustive_check(check_id, prefixes, body, size_cap):
    """An exhaustive check: ``body(B, None, carriers) -> None | entity dict``
    on every tuple of canonical carriers, one per size since the laws are
    invariant under relabelling, with sizes up to ``min(cfg.max_carrier,
    size_cap)``; the tuples share the row's memo.  ``trials`` counts the
    tuples checked, and ``--trials`` and the seed do not apply.  Tuples run
    in :func:`itertools.product` order, so every tuple elementwise below the
    first failing one has passed: that tuple is minimal as it stands.
    """

    def run(B, cfg: GenConfig):
        sizes = range(min(cfg.max_carrier, size_cap) + 1)
        shapes = itertools.product(sizes, repeat=len(prefixes))
        for n, shape in enumerate(shapes, 1):
            cx = body(B, None, tuple(map(canonical_carrier, prefixes, shape)))
            if cx is not None:
                return "fail", n, cx
        return "pass", n, None

    return CheckSpec(check_id, run)


def negative_check(check_id, row, corrupt, expect):
    """A negative control of the row ``row``: ``corrupt(B) -> (verdict,
    shown)`` runs that row's checker once, at pinned inputs with one of them
    corrupted, and the control passes exactly when the verdict is
    ``expect``: ``False`` from a law that answers a ``bool``, else the
    violation's ``"kind"``.  ``shown`` is the payload."""

    def run(B, cfg: GenConfig):
        verdict, shown = corrupt(B)
        got = verdict["kind"] if isinstance(verdict, dict) else verdict
        return "pass" if got == expect else "fail", 1, shown

    return CheckSpec(check_id, run, row, expect)


class _Corrupt:
    """``B`` with each operation ``op=fn`` answered by ``fn(B, ...)`` and
    every other one by ``B`` itself."""

    def __init__(self, B, **ops):
        self._inner = B
        for op, fn in ops.items():
            setattr(self, op, functools.partial(fn, B))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def skipped_check(check_id):
    return CheckSpec(check_id, lambda B, cfg: ("skipped", 0, None))


# --- kernel suite -------------------------------------------------------

def _chk_interchange(B, rng, carriers):
    X, A, L = carriers
    R = B.one_cell(rng, X, A, len(X) + len(A))
    R1, a1 = B.thicken(rng, R, rng.randint(0, 2))
    _, a2 = B.thicken(rng, R1, rng.randint(0, 2))
    T = B.one_cell(rng, A, L, len(A) + len(L))
    T1, b1 = B.thicken(rng, T, rng.randint(0, 2))
    _, b2 = B.thicken(rng, T1, rng.randint(0, 2))
    if kernel.interchange_holds(B, a1, a2, b1, b2):
        return None
    return {"X": X, "A": A, "L": L, "R": R, "T": T,
            "a1": a1, "a2": a2, "b1": b1, "b2": b2}


def _chk_triangles(B, rng, carriers):
    X, A = carriers
    m = map_cell(B, rng, X, A)
    if m is None:
        return None
    ok = kernel.check_adjunction(B, B.map_adjunction(m)) is None
    return None if ok else {"X": X, "A": A, "m": m}


def _chk_mate_round_trip(B, rng, carriers):
    X, A, Y, Bc = carriers
    f = map_cell(B, rng, X, Y)
    u = map_cell(B, rng, A, Bc)
    if f is None or u is None:
        return None
    S = B.one_cell(rng, Y, Bc, max(len(Y), len(Bc)))
    u_star = B.map_adjunction(u).right
    E = B.comp(f, B.comp(S, u_star))
    R, sec = B.thin(rng, E)
    primary = groth.garr_from_secondary(B, R, S, f, u, sec).primary
    # Back through the kernel, as ``groth.secondary`` answers the input.
    if (primary.dom == B.comp(R, u) and primary.cod == B.comp(f, S)
            and kernel.mate_to_secondary(B, primary, R, S, f,
                                         B.map_adjunction(u)) == sec):
        return None
    return {"f": f, "u": u, "S": S, "R": R}


def _chk_assoc_inverse(B, rng, carriers):
    X, A, L, M = carriers
    R = B.one_cell(rng, X, A, 2)
    T = B.one_cell(rng, A, L, 2)
    U = B.one_cell(rng, L, M, 2)
    fwd = B.assoc(R, T, U)
    bwd = B.assoc_inv(R, T, U)
    ok = (B.vcomp(fwd, bwd) == B.id2(fwd.dom)
          and B.vcomp(bwd, fwd) == B.id2(fwd.cod)
          and B.is_invertible(fwd))
    return None if ok else {"R": R, "T": T, "U": U}


def _nonmap_adjunction(B):
    # The local terminal from one point to two is not a map.
    bad = B.local_terminal(canonical_carrier("x", 1), canonical_carrier("a", 2))
    return kernel.has_map_adjunction(B, bad), {"claimed-map": bad}


KERNEL_CHECKS = (
    property_check("pasting-interchange", ("x", "a", "l"), _chk_interchange),
    property_check("map-adjunction-triangles", ("x", "a"), _chk_triangles),
    property_check("mate-round-trip", ("x", "a", "y", "b"),
                   _chk_mate_round_trip, size_cap=3),
    property_check("rebracket-two-sided-inverse", ("x", "a", "l", "m"),
                   _chk_assoc_inverse),
    negative_check("negative-nonmap-rejected", "map-adjunction-triangles",
                   _nonmap_adjunction, False),
)


# --- homprod suite --------------------------------------------------------

def _chk_wedge_universal(B, rng, carriers):
    X, A = carriers
    R = B.one_cell(rng, X, A, len(X) + len(A))
    S = B.one_cell(rng, X, A, len(X) + len(A))
    w = B.local_product(R, S)
    T, inc = B.thin(rng, w.product)
    phi = B.vcomp(inc, w.proj1)
    psi = B.vcomp(inc, w.proj2)
    med = w.pair(phi, psi)
    ok = (B.vcomp(med, w.proj1) == phi and B.vcomp(med, w.proj2) == psi
          and med == inc)
    return None if ok else {"R": R, "S": S, "T": T}


def _tau_is_the_only_cell(B, R, top):
    return list(B.hom_cells(R, top)) == [B.tau(R)]


def _chk_terminal_unique(B, rng, carriers):
    X, A = carriers
    R = B.one_cell(rng, X, A, len(X) + len(A))
    top = B.local_terminal(X, A)
    ok = _tau_is_the_only_cell(B, R, top)
    return None if ok else {"X": X, "A": A, "R": R, "top": top}


def _chk_transport_functor(B, rng, carriers):
    X, A, Y, Bc = carriers
    f = map_cell(B, rng, X, Y)
    u = map_cell(B, rng, A, Bc)
    if f is None or u is None:
        return None
    u_star = B.map_adjunction(u).right
    S = B.one_cell(rng, Y, Bc, max(len(Y), len(Bc)))
    S1, al = B.thicken(rng, S, rng.randint(0, 2))
    _, be = B.thicken(rng, S1, rng.randint(0, 2))
    ok = (transport_cell(B, f, B.id2(S), u_star)
          == B.id2(transport_hom(B, f, S, u_star))
          and transport_cell(B, f, B.vcomp(al, be), u_star)
          == B.vcomp(transport_cell(B, f, al, u_star),
                     transport_cell(B, f, be, u_star)))
    return None if ok else {"f": f, "u": u, "S": S, "al": al, "be": be}


def _misplaced_tau(B):
    # tau(R) answers a cell out of the local terminal, which R is not.
    R = B.identity(canonical_carrier("x", 2))
    top = B.local_terminal(R.source, R.target)
    bad = _Corrupt(B, tau=lambda B, T: B.id2(top))
    return (_tau_is_the_only_cell(bad, R, top),
            {"R": R, "claimed-cell": bad.tau(R)})


HOMPROD_CHECKS = (
    property_check("wedge-universal-pairing", ("x", "a"), _chk_wedge_universal),
    property_check("terminal-cell-unique", ("x", "a"), _chk_terminal_unique),
    property_check("transport-functorial", ("x", "a", "y", "b"),
                   _chk_transport_functor, size_cap=3),
    negative_check("negative-misplaced-terminal-cell", "terminal-cell-unique",
                   _misplaced_tau, False),
)


# --- mapprod suite --------------------------------------------------------

def _chk_pairing_projections(B, rng, carriers):
    W, X, Y = carriers
    f = map_cell(B, rng, W, X)
    g = map_cell(B, rng, W, Y)
    if f is None or g is None:
        return None
    h = pair_map(B, f, g)
    ok = h.is_map() and all(
        maps_isomorphic(B.comp(h, leg), m)
        for leg, m in zip(product_object(B, X, Y).legs, (f, g)))
    if ok:
        _, mu, nu = pairing(B, f, g)
        ok = (B.is_invertible(mu) and B.is_invertible(nu)
              and mu.cod == f and nu.cod == g)
    return None if ok else {"f": f, "g": g, "h": h}


def _chk_product_cone(B, rng, carriers):
    X, Y = carriers
    violation = check_product_cone(B, product_object(B, X, Y))
    if violation is None:
        return None
    return {"X": X, "Y": Y}


def _chk_diag_bang_nat(B, rng, carriers):
    X, Y = carriers
    f = map_cell(B, rng, X, Y)
    if f is None:
        return None
    ok = all(maps_isomorphic(*sides) and B.is_invertible(map_iso(B, *sides))
             for sides in (bang_sides(B, f), diag_sides(B, f)))
    return None if ok else {"f": f}


def _chk_fill_recovers(B, rng, carriers):
    W, X, Y = carriers
    cone = product_object(B, X, Y)
    T = B.one_cell(rng, W, cone.vertex, max(len(W), 2))
    U, gamma = B.thicken(rng, T, rng.randint(0, 2))
    alpha = B.whisker_right(gamma, cone.legs[0])
    beta = B.whisker_right(gamma, cone.legs[1])
    got = fill2(B, T, U, alpha, beta, cone)
    return None if got == gamma else {"T": T, "U": U, "gamma": gamma}


def _collapsed_cone(B):
    # X with a constant second leg, claimed as the product of X and Y.
    X, Y = canonical_carrier("x", 2), canonical_carrier("y", 2)
    fake = ProductCone(X, (B.identity(X), B.graph(SetFn.constant(X, Y, "y0"))),
                       (X, Y))
    return check_product_cone(B, fake), {"X": X, "Y": Y, "claimed-vertex": X}


MAPPROD_CHECKS = (
    property_check("pairing-projection-identities", ("w", "x", "y"),
                   _chk_pairing_projections),
    property_check("product-cone-universal", ("x", "y"), _chk_product_cone,
                   size_cap=3, trial_cap=20),
    property_check("diag-bang-pseudonatural", ("x", "y"), _chk_diag_bang_nat),
    property_check("fill-recovers-cell", ("w", "x", "y"), _chk_fill_recovers),
    negative_check("negative-collapsed-cone", "product-cone-universal",
                   _collapsed_cone, "not-essentially-surjective"),
)


# --- groth suite ----------------------------------------------------------

def _tensor_cone(B, rng, carriers):
    """A tensor ``R (x) S`` with a cone into it: the two projections of the
    inclusion square of a sub-1-cell ``T0`` of the tensor object."""
    X, Y, A, Bc = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, Bc, 2)
    tens = groth.g_tensor(B, R, S)
    T0, inc = B.thin(rng, tens.obj)
    base = groth.garr_from_primary(B, T0, tens.obj, B.identity(T0.source),
                                   B.identity(T0.target), inc)
    return (R, S, T0, tens, groth.g_compose(B, base, tens.proj1),
            groth.g_compose(B, base, tens.proj2))


def _chk_tensor_pairing(B, rng, carriers):
    R, S, T0, tens, aR, aS = _tensor_cone(B, rng, carriers)
    arrow, c1, c2 = groth.g_pair(B, tens, aR, aS)
    ok = (groth.g_cell_invertible(B, c1) and groth.g_cell_invertible(B, c2)
          and c1.dom == groth.g_compose(B, arrow, tens.proj1)
          and c1.cod == aR and c2.cod == aS)
    return None if ok else {"R": R, "S": S, "T0": T0}


def _pair_unique(B, tens, aR, aS) -> bool:
    """The pairing of the cone ``aR, aS`` is the only square over its frames
    into the tensor with the same two projections."""
    T0 = aR.dom
    arrow, _, _ = groth.g_pair(B, tens, aR, aS)
    w_star = B.map_adjunction(arrow.u).right
    E = B.comp(arrow.f, B.comp(tens.obj, w_star))
    want = (groth.g_compose(B, arrow, tens.proj1),
            groth.g_compose(B, arrow, tens.proj2))
    found = []
    for sec in B.hom_cells(T0, E):
        cand = groth.garr_from_secondary(B, T0, tens.obj, arrow.f, arrow.u, sec)
        got = (groth.g_compose(B, cand, tens.proj1),
               groth.g_compose(B, cand, tens.proj2))
        if got == want:
            found.append(cand)
    return found == [arrow]


def _chk_pair_unique(B, rng, carriers):
    R, S, T0, tens, aR, aS = _tensor_cone(B, rng, carriers)
    ok = _pair_unique(B, tens, aR, aS)
    return None if ok else {"R": R, "S": S, "T0": T0}


def _chk_square_cells(B, rng, carriers):
    X, Y, A, Bc = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, Bc, 2)
    tens = groth.g_tensor(B, R, S)
    M = tens.proj1
    brute = []
    for phi in B.hom_cells(M.f, M.f):
        for psi in B.hom_cells(M.u, M.u):
            lhs = B.vcomp(B.whisker_left(M.dom, psi), M.primary)
            rhs = B.vcomp(M.primary, B.whisker_right(phi, M.cod))
            if lhs == rhs:
                brute.append((phi, psi))
    built = []
    for phi in B.hom_cells(M.f, M.f):
        for psi in B.hom_cells(M.u, M.u):
            try:
                groth.g_cell(B, M, M, phi, psi)
            except ValueError:
                continue
            built.append((phi, psi))
    identity_pair = (B.id2(M.f), B.id2(M.u))
    ok = brute == built and identity_pair in brute
    return None if ok else {"R": R, "S": S}


def _chk_diag_dunit(B, rng, carriers):
    X, A = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, X, A, 2)
    iso = groth.dunit_iso(B, R, S)
    d = groth.g_diag(B, R)
    ok = (B.is_invertible(iso)
          and d.dom == R and d.cod == groth.g_tensor(B, R, R).obj)
    return None if ok else {"R": R, "S": S}


def _doubled_cells(B):
    # Every cell enumerated twice, so the pairing is found twice.
    R = B.identity(canonical_carrier("x", 2))
    S = B.identity(canonical_carrier("y", 1))
    tens = groth.g_tensor(B, R, S)
    bad = _Corrupt(B, hom_cells=lambda B, R, S: (
        cell for cell in B.hom_cells(R, S) for _ in (0, 1)))
    return _pair_unique(bad, tens, tens.proj1, tens.proj2), {"R": R, "S": S}


GROTH_CHECKS = (
    property_check("tensor-pairing-projections", ("x", "y", "a", "b"),
                   _chk_tensor_pairing, size_cap=2),
    property_check("tensor-pairing-uniqueness", ("x", "y", "a", "b"),
                   _chk_pair_unique, size_cap=2, trial_cap=30),
    property_check("square-cell-characterization", ("x", "y", "a", "b"),
                   _chk_square_cells, size_cap=2, trial_cap=30),
    property_check("diagonal-unit-comparison", ("x", "a"), _chk_diag_dunit,
                   size_cap=2),
    negative_check("negative-doubled-cells", "tensor-pairing-uniqueness",
                   _doubled_cells, False),
)


# --- lax suite ------------------------------------------------------------

def _chk_lax_assoc(B, rng, carriers):
    X0, X1, X2, X3, Y0, Y1, Y2, Y3 = carriers
    R = B.one_cell(rng, X0, X1, 2)
    T = B.one_cell(rng, X1, X2, 2)
    V = B.one_cell(rng, X2, X3, 2)
    S = B.one_cell(rng, Y0, Y1, 2)
    U = B.one_cell(rng, Y1, Y2, 2)
    W = B.one_cell(rng, Y2, Y3, 2)
    lhs, rhs = cartesian.lax_assoc_sides(B, R, S, T, U, V, W)
    if lhs == rhs:
        return None
    return {"R": R, "S": S, "T": T, "U": U, "V": V, "W": W}


def _chk_lax_unit(B, rng, carriers):
    X, A, Y, C = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, C, 2)
    (left, lid), (right, rid) = cartesian.lax_unit_sides(B, R, S)
    ok = left == lid and right == rid
    return None if ok else {"R": R, "S": S}


def _chk_tensor_naturality(B, rng, carriers):
    X0, X1, X2, Y0, Y1, Y2 = carriers
    R = B.one_cell(rng, X0, X1, 2)
    T = B.one_cell(rng, X1, X2, 2)
    S = B.one_cell(rng, Y0, Y1, 2)
    U = B.one_cell(rng, Y1, Y2, 2)
    _, alpha = B.thicken(rng, R, rng.randint(0, 2))
    _, gamma = B.thicken(rng, T, rng.randint(0, 2))
    _, beta = B.thicken(rng, S, rng.randint(0, 2))
    _, delta = B.thicken(rng, U, rng.randint(0, 2))
    if cartesian.tensor_naturality_holds(B, alpha, beta, gamma, delta):
        return None
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}


def _chk_tensor_functorial(B, rng, carriers):
    X, A, Y, C = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, C, 2)
    R1, a1 = B.thicken(rng, R, rng.randint(0, 2))
    _, a2 = B.thicken(rng, R1, rng.randint(0, 2))
    S1, b1 = B.thicken(rng, S, rng.randint(0, 2))
    _, b2 = B.thicken(rng, S1, rng.randint(0, 2))
    if cartesian.tensor_functor_law_holds(B, a1, a2, b1, b2):
        return None
    return {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def _tau_as_identity(B):
    # id2 answers tau out of a product carrier: R (x) S is not terminal.
    R = B.identity(canonical_carrier("x", 2))
    S = B.identity(canonical_carrier("y", 1))
    bad = _Corrupt(B, id2=lambda B, T: B.id2(T) if all(map(is_atom, T.source))
                   else B.tau(T))
    holds = cartesian.tensor_functor_law_holds(bad, B.id2(R), B.tau(R),
                                               B.id2(S), B.tau(S))
    return holds, {"R": R, "S": S}


LAX_CHECKS = (
    property_check("tensor-assoc-constraint", tuple("abcdefgh"),
                   _chk_lax_assoc, size_cap=2),
    property_check("tensor-unit-constraint", ("x", "a", "y", "c"),
                   _chk_lax_unit, size_cap=3),
    property_check("tensor-2cell-naturality", tuple("abcdef"),
                   _chk_tensor_naturality, size_cap=2),
    property_check("tensor-2cell-functorial", ("x", "a", "y", "c"),
                   _chk_tensor_functorial, size_cap=2),
    negative_check("negative-tau-as-identity", "tensor-2cell-functorial",
                   _tau_as_identity, False),
)


# --- cartesian suite --------------------------------------------------------

def _chk_global_constraints(B, rng, carriers):
    X, A, Y, C = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, C, 2)
    T = B.one_cell(rng, A, X, 2)
    U = B.one_cell(rng, C, Y, 2)
    ok = cartesian.is_cartesian(B, (X, Y), (R, S, T, U)) is None
    return None if ok else {"R": R, "S": S, "T": T, "U": U}


def _chk_map_comparison(B, rng, carriers):
    X0, X1, X2, Y0, Y1, Y2 = carriers
    f = map_cell(B, rng, X0, X1, scramble=False)
    u = map_cell(B, rng, X1, X2, scramble=False)
    g = map_cell(B, rng, Y0, Y1, scramble=False)
    v = map_cell(B, rng, Y1, Y2, scramble=False)
    if None in (f, u, g, v):
        return None
    ok = (cartesian.check_m(B, f, g, u, v) is None
          and B.is_invertible(cartesian.m_cell(B, f, g)))
    return None if ok else {"f": f, "g": g, "u": u, "v": v}


def _chk_projection_conjugates(B, rng, carriers):
    X, A, Y = carriers
    R = B.one_cell(rng, X, A, 2)
    p1, p2 = cartesian.projection_fillers(B, R, Y)
    pb = cartesian.prebeck_cell(B, R, Y)
    ok = B.is_invertible(p1) and B.is_invertible(p2) and B.is_invertible(pb)
    return None if ok else {"R": R, "Y": Y}


def _chk_composition_comparisons(B, rng, carriers):
    Xp, X, A, Yp, Y, C = carriers
    f = map_cell(B, rng, Xp, X, scramble=False)
    g = map_cell(B, rng, Yp, Y, scramble=False)
    u = map_cell(B, rng, C, A, scramble=False)
    v = map_cell(B, rng, A, C, scramble=False)
    if None in (f, g, u, v):
        return None
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, C, 2)
    pre = cartesian.precompose_iso(B, f, g, R, S)
    post = cartesian.postcompose_star_iso(B, R, S, u, v)
    ok = B.is_invertible(pre) and B.is_invertible(post)
    return None if ok else {"f": f, "g": g, "u": u, "v": v, "R": R, "S": S}


def _chk_unit_factor_pairing(B, rng, carriers):
    X, A = carriers
    R = B.one_cell(rng, X, UNIT, 2)
    S = B.one_cell(rng, UNIT, A, 2)
    ok = cartesian.strange_pair(B, R, S)[1] is None
    return None if ok else {"R": R, "S": S}


def _empty_terminal(B):
    # The local terminal answers the empty 1-cell, through the empty carrier.
    X, Y, E = map(canonical_carrier, "xye", (1, 1, 0))
    bad = _Corrupt(B, local_terminal=lambda B, S, T: B.comp(
        B.local_terminal(S, E), B.local_terminal(E, T)))
    R, S = B.identity(X), B.identity(Y)
    return (cartesian.is_cartesian(bad, (X, Y), (R, S, R, S)),
            {"claimed-terminal": bad.local_terminal(UNIT, UNIT)})


CARTESIAN_CHECKS = (
    property_check("global-constraints-invertible", ("x", "a", "y", "c"),
                   _chk_global_constraints, size_cap=3),
    property_check("pointwise-map-comparison", tuple("abcdef"),
                   _chk_map_comparison, size_cap=3),
    property_check("projection-conjugates", ("x", "a", "y"),
                   _chk_projection_conjugates, size_cap=3),
    property_check("composition-comparisons", tuple("abcdef"),
                   _chk_composition_comparisons, size_cap=2, trial_cap=40),
    property_check("unit-factor-pairing", ("x", "a"),
                   _chk_unit_factor_pairing, size_cap=3),
    negative_check("negative-empty-terminal", "global-constraints-invertible",
                   _empty_terminal, "unit-functor"),
)


# --- monoidal suite ---------------------------------------------------------

def _chk_routes(name):
    """The row body of the route pair ``name`` of :data:`coherence.ROUTES`,
    its carriers one per leaf: exactly one cell between the two routes is
    compatible with their mediators, and it is invertible."""
    routes = coherence.ROUTES[name]
    shown = [leaf.upper() for leaf in coherence.leaves(routes[0][0])]

    def body(B, rng, carriers):
        found = coherence.route_cells(B, coherence.maps(B), routes, carriers)
        if (not isinstance(found, dict) and len(found[2]) == 1
                and B.is_invertible(found[2][0])):
            return None
        return dict(zip(shown, carriers))

    return body


def _chk_modification_pair(B, rng, carriers):
    X, Y, Z, W, A, C, D, E = carriers
    R = B.one_cell(rng, X, A, 2)
    S = B.one_cell(rng, Y, C, 2)
    T = B.one_cell(rng, Z, D, 2)
    U = B.one_cell(rng, W, E, 2)
    ok = coherence.modification_pair_check(B, R, S, T, U) is None
    return None if ok else {"R": R, "S": S, "T": T, "U": U}


def _identity_braid(B):
    # Pairing its arguments swapped makes the braid the identity pairing, so
    # the symmetry pair's composites miss the mediator into the flat product.
    X = canonical_carrier("x", 2)
    bad = coherence.maps(B)._replace(pair=lambda f, g: pair_map(B, g, f))
    symmetry = coherence.ROUTES["symmetry"]
    return (coherence.route_cells(B, bad, symmetry, (X, X)),
            {"X": X, "claimed-braid": coherence.braid(bad, X, X)})


MONOIDAL_CHECKS = (
    exhaustive_check("braid-syllepsis-equations", ("x", "y"),
                     _chk_routes("syllepsis"), size_cap=3),
    exhaustive_check("swap-involution", ("x", "y"), _chk_routes("symmetry"),
                     size_cap=4),
    exhaustive_check("braid-hexagon", ("x", "y", "z"), _chk_routes("hexagon"),
                     size_cap=2),
    property_check("rebracket-filler", ("x", "y", "z", "w"),
                   _chk_routes("rebracket"), size_cap=3, trial_cap=40),
    property_check("pentagon-route-uniqueness", ("x", "y", "z", "u", "v"),
                   _chk_routes("pentagon"), size_cap=2, trial_cap=10),
    property_check("square-rebracket-modification", tuple("abcdefgh"),
                   _chk_modification_pair, size_cap=2, trial_cap=10),
    skipped_check("unit-coherence-axiom-left"),
    skipped_check("unit-coherence-axiom-right"),
    negative_check("negative-identity-braid", "swap-involution",
                   _identity_braid, "not-mediated"),
)


SUITE_CHECKS = {
    "kernel": KERNEL_CHECKS,
    "homprod": HOMPROD_CHECKS,
    "mapprod": MAPPROD_CHECKS,
    "groth": GROTH_CHECKS,
    "lax": LAX_CHECKS,
    "cartesian": CARTESIAN_CHECKS,
    "monoidal": MONOIDAL_CHECKS,
}


# --- fixture checks ---------------------------------------------------------

class FixtureError(ValueError):
    """A fixture that cannot be interpreted against the chosen instance."""


def _fixture_entity(B, doc: Document, name: str):
    try:
        value = doc.lookup(name)
    except FmtError as exc:
        raise FixtureError(str(exc)) from exc
    kind = _KEYWORDS[type(value)]
    if kind != B.name:
        raise FixtureError("entity %r is a %s, not a %s 1-cell"
                           % (name, kind, B.name))
    return value


def _compose(B, a, b, c):
    got = B.comp(a, b)
    return got == c, {"left": a, "right": b, "expected": c, "got": got}


#: Each ``check`` kind's claim: ``claim(B, *entities) -> (holds, shown)``.
_CLAIMS = {
    "compose": _compose,
    "equal": lambda B, a, b: (a == b, {"first": a, "second": b}),
    "map": lambda B, a: (a.is_map(), {"claimed-map": a}),
    "cell": lambda B, a, b: (next(B.hom_cells(a, b), None) is not None,
                             {"dom": a, "cod": b}),
}


def _claim_check(check_id, claim, entities):
    def run(B, cfg: GenConfig):
        holds, shown = claim(B, *entities)
        return ("pass", 1, None) if holds else ("fail", 1, shown)

    return CheckSpec(check_id, run)


def fixture_checks(B, doc: Document) -> tuple:
    """One check per ``check`` record, its entities bound before any row
    runs: one missing or not a ``B`` 1-cell raises :class:`FixtureError`."""
    return tuple(_claim_check("fixture-%d-%s" % (i, chk.kind),
                              _CLAIMS[chk.kind],
                              [_fixture_entity(B, doc, n) for n in chk.args])
                 for i, chk in enumerate(doc.checks))


# --- orchestration -----------------------------------------------------------

def instance_for(name: str):
    return rel_instance() if name == "rel" else span_instance()


def run_suite(B, cfg: GenConfig, suite: str) -> SuiteReport:
    return SuiteReport(suite, tuple(run_check(B, cfg, spec)
                                    for spec in SUITE_CHECKS[suite]))


@collector_paused
def run_config(cfg: GenConfig, fixture_doc: Document | None = None
               ) -> RunReport:
    """Every selected suite, then ``fixture_doc``'s claims as a ``fixtures``
    suite, with the cyclic garbage collector paused.

    No value graph holds a reference cycle, so reference counting frees a
    unit's values when :func:`clear_table` empties the memo, and collector
    passes would only rescan the live memo.  The caller's collector state
    is restored on return or raise, for library and test callers;
    ``bicat-check`` itself keeps the collector paused from the parse of
    ``fixture_doc`` to the written report, as the document stays live and
    acyclic until then.  ``tests/test_harness.py::
    test_a_run_makes_no_reference_cycles`` keeps the heap acyclic.
    """
    B = instance_for(cfg.instance)
    fixtures = (() if fixture_doc is None
                else fixture_checks(B, fixture_doc))
    suites = [run_suite(B, cfg, s) for s in SUITES if s in cfg.suites]
    if fixtures:
        suites.append(SuiteReport("fixtures", tuple(
            run_check(B, cfg, spec) for spec in fixtures)))
    return RunReport(cfg, tuple(suites))
