"""Suite orchestration: seeded property checks over both instances.

Each check draws its own carriers and structure from a seed derived from
``(config seed, instance, check id, trial index)``, so single trials replay
in isolation.  On failure the carriers are shrunk greedily: remove one
element, regenerate the dependent structure from the same per-trial seed,
re-test, repeat until no single removal still fails.  The final
counterexample is rendered through the interchange format and re-parsed
before it is reported, which keeps the "counterexamples re-parse" guarantee
honest.

Negative controls run a deliberately corrupted instance through the same
machinery and pass exactly when the corruption is caught; the caught
violation is attached as the check's payload so reports show what the
failure looks like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import cartesian, coherence, groth, kernel, rel_instance, span_instance
from .fin import FinSet, SetFn, UNIT
from .fmt import Document, FmtError, describe, parse_document, print_document
from .gen import (GenConfig, SUITES, carrier, map_cell, one_cell, rng_for,
                  thicken, thin)
from .homprod import transport_cell, transport_hom
from .mapprod import (ProductCone, bang_nat, check_product_cone, diag_nat,
                      fill2, maps_isomorphic, pairing, product_object)
from .report import CheckResult, RunReport, SuiteReport


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    run: Callable


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def _payload(entities: dict) -> str:
    text = print_document(describe(entities))
    parse_document(text)
    return text


def property_check(check_id, prefixes, body, size_cap=None, trial_cap=None):
    """A seeded check: ``body(B, rng, carriers) -> None | entity dict``.

    Every call of ``body`` (each trial and each shrink attempt) is one unit
    of work and starts with an empty memo of composites, so ``B.comp``
    reuses only what that call built.
    """

    def run(B, cfg: GenConfig) -> CheckResult:
        t0 = time.monotonic()
        bound = cfg.max_carrier if size_cap is None else min(cfg.max_carrier, size_cap)
        trials = cfg.trials if trial_cap is None else min(cfg.trials, trial_cap)

        def attempt(trial, carriers):
            rng = rng_for(cfg.seed, "%s.%s.%d.body" % (B.name, check_id, trial))
            B.forget_composites()
            return body(B, rng, carriers)

        for t in range(trials):
            rng = rng_for(cfg.seed, "%s.%s.%d.carriers" % (B.name, check_id, t))
            carriers = tuple(carrier(rng, p, bound) for p in prefixes)
            cx = attempt(t, carriers)
            if cx is None:
                continue
            carriers, cx = _shrink(attempt, t, carriers, cx)
            return CheckResult(check_id, "fail", t + 1, _payload(cx), _ms(t0))
        return CheckResult(check_id, "pass", trials, None, _ms(t0))

    return CheckSpec(check_id, run)


def _shrink(attempt, trial, carriers, cx):
    improved = True
    while improved:
        improved = False
        for i, C in enumerate(carriers):
            for e in C:
                smaller = FinSet(x for x in C if x != e)
                cand = carriers[:i] + (smaller,) + carriers[i + 1:]
                cx2 = attempt(trial, cand)
                if cx2 is not None:
                    carriers, cx, improved = cand, cx2, True
                    break
            if improved:
                break
    return carriers, cx


def negative_check(check_id, body):
    """A corrupted-fixture check: ``body(B, cfg) -> (caught, entities)``.

    Passes when the corruption is detected; the detected violation travels
    in the payload so the report shows a printable counterexample.  The body
    is one unit of work and starts with an empty memo of composites.
    """

    def run(B, cfg: GenConfig) -> CheckResult:
        t0 = time.monotonic()
        B.forget_composites()
        caught, entities = body(B, cfg)
        status = "pass" if caught else "fail"
        return CheckResult(check_id, status, 1, _payload(entities), _ms(t0))

    return CheckSpec(check_id, run)


def skipped_check(check_id):
    def run(B, cfg: GenConfig) -> CheckResult:
        return CheckResult(check_id, "skipped", 0, None, 0)

    return CheckSpec(check_id, run)


# --- kernel suite -------------------------------------------------------

def _chk_interchange(B, rng, carriers):
    X, A, L = carriers
    R = one_cell(B, rng, X, A, len(X) + len(A))
    R1, a1 = thicken(B, rng, R, rng.randint(0, 2))
    _, a2 = thicken(B, rng, R1, rng.randint(0, 2))
    T = one_cell(B, rng, A, L, len(A) + len(L))
    T1, b1 = thicken(B, rng, T, rng.randint(0, 2))
    _, b2 = thicken(B, rng, T1, rng.randint(0, 2))
    if kernel.interchange_holds(B, a1, a2, b1, b2):
        return None
    return {"X": X, "A": A, "L": L, "R": R, "T": T,
            "a1": a1, "a2": a2, "b1": b1, "b2": b2}


def _chk_triangles(B, rng, carriers):
    X, A = carriers
    m = map_cell(B, rng, X, A)
    if m is None:
        return None
    chk = kernel.check_adjunction(B, B.map_adjunction(m))
    return None if chk.ok else {"X": X, "A": A, "m": m}


def _chk_mate_round_trip(B, rng, carriers):
    X, A, Y, Bc = carriers
    f = map_cell(B, rng, X, Y)
    u = map_cell(B, rng, A, Bc)
    if f is None or u is None:
        return None
    S = one_cell(B, rng, Y, Bc, max(len(Y), len(Bc)))
    u_star = B.map_adjunction(u).right
    E = B.comp(f, B.comp(S, u_star))
    R, sec = thin(B, rng, E)
    arr = groth.garr_from_secondary(B, R, S, f, u, sec)
    back = groth.garr_from_primary(B, R, S, f, u, arr.primary)
    if back.secondary == sec and back.primary == arr.primary:
        return None
    return {"f": f, "u": u, "S": S, "R": R}


def _chk_assoc_inverse(B, rng, carriers):
    X, A, L, M = carriers
    R = one_cell(B, rng, X, A, 2)
    T = one_cell(B, rng, A, L, 2)
    U = one_cell(B, rng, L, M, 2)
    fwd = B.assoc(R, T, U)
    bwd = B.assoc_inv(R, T, U)
    ok = (B.vcomp(fwd, bwd) == B.id2(fwd.dom)
          and B.vcomp(bwd, fwd) == B.id2(fwd.cod)
          and B.is_invertible(fwd))
    return None if ok else {"R": R, "T": T, "U": U}


def _neg_nonmap(B, cfg):
    X = FinSet(("x0",))
    A = FinSet(("a0", "a1"))
    if B.name == "rel":
        from .rels import Rel
        bad = Rel(X, A, (("x0", "a0"), ("x0", "a1")))
    else:
        from .spans import Span
        S = FinSet(("s0", "s1"))
        bad = Span(X, A, S, SetFn(S, X, ("x0", "x0")), SetFn(S, A, ("a0", "a1")))
    caught = not bad.is_map() and B.is_map(bad) is None
    return caught, {"claimed-map": bad}


KERNEL_CHECKS = (
    property_check("pasting-interchange", ("x", "a", "l"), _chk_interchange),
    property_check("map-adjunction-triangles", ("x", "a"), _chk_triangles),
    property_check("mate-round-trip", ("x", "a", "y", "b"),
                   _chk_mate_round_trip, size_cap=3),
    property_check("rebracket-two-sided-inverse", ("x", "a", "l", "m"),
                   _chk_assoc_inverse),
    negative_check("negative-nonmap-rejected", _neg_nonmap),
)


# --- homprod suite --------------------------------------------------------

def _chk_wedge_universal(B, rng, carriers):
    X, A = carriers
    R = one_cell(B, rng, X, A, len(X) + len(A))
    S = one_cell(B, rng, X, A, len(X) + len(A))
    w = B.local_product(R, S)
    T, inc = thin(B, rng, w.product)
    phi = B.vcomp(inc, w.proj1)
    psi = B.vcomp(inc, w.proj2)
    med = w.pair(phi, psi)
    ok = (B.vcomp(med, w.proj1) == phi and B.vcomp(med, w.proj2) == psi
          and med == inc)
    return None if ok else {"R": R, "S": S, "T": T}


def _chk_terminal_unique(B, rng, carriers):
    X, A = carriers
    R = one_cell(B, rng, X, A, len(X) + len(A))
    top = B.local_terminal(X, A)
    cells = list(B.hom_cells(R, top))
    ok = cells == [B.tau(R)]
    return None if ok else {"X": X, "A": A, "R": R, "top": top}


def _chk_transport_functor(B, rng, carriers):
    X, A, Y, Bc = carriers
    f = map_cell(B, rng, X, Y)
    u = map_cell(B, rng, A, Bc)
    if f is None or u is None:
        return None
    u_star = B.map_adjunction(u).right
    S = one_cell(B, rng, Y, Bc, max(len(Y), len(Bc)))
    S1, al = thicken(B, rng, S, rng.randint(0, 2))
    _, be = thicken(B, rng, S1, rng.randint(0, 2))
    ok = (transport_cell(B, f, B.id2(S), u_star)
          == B.id2(transport_hom(B, f, S, u_star))
          and transport_cell(B, f, B.vcomp(al, be), u_star)
          == B.vcomp(transport_cell(B, f, al, u_star),
                     transport_cell(B, f, be, u_star)))
    return None if ok else {"f": f, "u": u, "S": S, "al": al, "be": be}


def _neg_corrupt_terminal(B, cfg):
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    top = B.local_terminal(X, A)
    if B.name == "rel":
        from .rels import Rel
        fake = Rel(X, A, top.pairs[1:])
        probe = top
    else:
        _, inc = thicken(B, rng_for(cfg.seed, "neg-top"), top, 1)
        fake = inc.cod
        probe = fake
    cells = list(B.hom_cells(probe, fake))
    return len(cells) != 1, {"claimed-terminal": fake, "probe": probe}


HOMPROD_CHECKS = (
    property_check("wedge-universal-pairing", ("x", "a"), _chk_wedge_universal),
    property_check("terminal-cell-unique", ("x", "a"), _chk_terminal_unique),
    property_check("transport-functorial", ("x", "a", "y", "b"),
                   _chk_transport_functor, size_cap=3),
    negative_check("negative-thick-terminal", _neg_corrupt_terminal),
)


# --- mapprod suite --------------------------------------------------------

def _chk_pairing_projections(B, rng, carriers):
    W, X, Y = carriers
    f = map_cell(B, rng, W, X)
    g = map_cell(B, rng, W, Y)
    if f is None or g is None:
        return None
    h, mu, nu = pairing(B, f, g)
    ok = (h.is_map() and B.is_invertible(mu) and B.is_invertible(nu)
          and mu.cod == f and nu.cod == g)
    return None if ok else {"f": f, "g": g, "h": h}


def _chk_product_cone(B, rng, carriers):
    X, Y = carriers
    violation = check_product_cone(B, product_object(B, X, Y), bound=2)
    if violation is None:
        return None
    return {"X": X, "Y": Y}


def _chk_diag_bang_nat(B, rng, carriers):
    X, Y = carriers
    f = map_cell(B, rng, X, Y)
    if f is None:
        return None
    nb = bang_nat(B, f)
    nd = diag_nat(B, f)
    ok = (B.is_invertible(nb.cell) and B.is_invertible(nd.cell)
          and nb.cell.dom == nb.dom and nb.cell.cod == nb.cod
          and nd.cell.dom == nd.dom and nd.cell.cod == nd.cod)
    return None if ok else {"f": f}


def _chk_fill_recovers(B, rng, carriers):
    W, X, Y = carriers
    cone = product_object(B, X, Y)
    T = one_cell(B, rng, W, cone.vertex, max(len(W), 2))
    U, gamma = thicken(B, rng, T, rng.randint(0, 2))
    alpha = B.whisker_right(gamma, cone.legs[0])
    beta = B.whisker_right(gamma, cone.legs[1])
    got = fill2(B, T, U, alpha, beta, cone)
    return None if got == gamma else {"T": T, "U": U, "gamma": gamma}


def _neg_collapsed_cone(B, cfg):
    X = FinSet(("x0", "x1"))
    Y = FinSet(("y0", "y1"))
    fake = ProductCone(X, (B.identity(X), B.graph(SetFn.constant(X, Y, "y0"))),
                       (X, Y))
    violation = check_product_cone(B, fake, bound=2)
    caught = violation is not None and violation["kind"] == "not-essentially-surjective"
    return caught, {"X": X, "Y": Y, "claimed-vertex": X}


MAPPROD_CHECKS = (
    property_check("pairing-projection-identities", ("w", "x", "y"),
                   _chk_pairing_projections),
    property_check("product-cone-universal", ("x", "y"), _chk_product_cone,
                   size_cap=3, trial_cap=20),
    property_check("diag-bang-pseudonatural", ("x", "y"), _chk_diag_bang_nat),
    property_check("fill-recovers-cell", ("w", "x", "y"), _chk_fill_recovers),
    negative_check("negative-collapsed-cone", _neg_collapsed_cone),
)


# --- groth suite ----------------------------------------------------------

def _inclusion_square(B, T0, obj, inc):
    one_s = B.identity(T0.source)
    one_t = B.identity(T0.target)
    return groth.garr_from_primary(B, T0, obj, one_s, one_t, inc)


def _chk_tensor_pairing(B, rng, carriers):
    X, Y, A, Bc = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, Bc, 2)
    tens = groth.g_tensor(B, R, S)
    T0, inc = thin(B, rng, tens.obj)
    base = _inclusion_square(B, T0, tens.obj, inc)
    aR = groth.g_compose(B, base, tens.proj1)
    aS = groth.g_compose(B, base, tens.proj2)
    arrow, c1, c2 = groth.g_pair(B, tens, aR, aS)
    ok = (groth.g_cell_invertible(B, c1) and groth.g_cell_invertible(B, c2)
          and c1.dom == groth.g_compose(B, arrow, tens.proj1)
          and c1.cod == aR and c2.cod == aS)
    return None if ok else {"R": R, "S": S, "T0": T0}


def _chk_pair_unique(B, rng, carriers):
    X, Y, A, Bc = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, Bc, 2)
    tens = groth.g_tensor(B, R, S)
    T0, inc = thin(B, rng, tens.obj)
    base = _inclusion_square(B, T0, tens.obj, inc)
    aR = groth.g_compose(B, base, tens.proj1)
    aS = groth.g_compose(B, base, tens.proj2)
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
    ok = found == [arrow]
    return None if ok else {"R": R, "S": S, "T0": T0}


def _chk_square_cells(B, rng, carriers):
    X, Y, A, Bc = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, Bc, 2)
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
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, X, A, 2)
    iso = groth.dunit_iso(B, R, S)
    d = groth.g_diag(B, R)
    ok = (B.is_invertible(iso)
          and d.dom == R and d.cod == groth.g_tensor(B, R, R).obj)
    return None if ok else {"R": R, "S": S}


def _neg_swapped_cone(B, cfg):
    X = FinSet(("x0",))
    Y = FinSet(("y0", "y1"))
    A = FinSet(("a0",))
    rng = rng_for(cfg.seed, "neg-swapped")
    R = one_cell(B, rng, X, A, 1)
    S = one_cell(B, rng, Y, A, 1)
    tens = groth.g_tensor(B, R, S)
    try:
        groth.g_pair(B, tens, tens.proj2, tens.proj1)
        caught = False
    except ValueError:
        caught = True
    return caught, {"R": R, "S": S}


GROTH_CHECKS = (
    property_check("tensor-pairing-projections", ("x", "y", "a", "b"),
                   _chk_tensor_pairing, size_cap=2),
    property_check("tensor-pairing-uniqueness", ("x", "y", "a", "b"),
                   _chk_pair_unique, size_cap=2, trial_cap=30),
    property_check("square-cell-characterization", ("x", "y", "a", "b"),
                   _chk_square_cells, size_cap=2, trial_cap=30),
    property_check("diagonal-unit-comparison", ("x", "a"), _chk_diag_dunit,
                   size_cap=2),
    negative_check("negative-swapped-cone", _neg_swapped_cone),
)


# --- lax suite ------------------------------------------------------------

def _chk_lax_assoc(B, rng, carriers):
    X0, X1, X2, X3, Y0, Y1, Y2, Y3 = carriers
    R = one_cell(B, rng, X0, X1, 2)
    T = one_cell(B, rng, X1, X2, 2)
    V = one_cell(B, rng, X2, X3, 2)
    S = one_cell(B, rng, Y0, Y1, 2)
    U = one_cell(B, rng, Y1, Y2, 2)
    W = one_cell(B, rng, Y2, Y3, 2)
    lhs, rhs = cartesian.lax_assoc_sides(B, R, S, T, U, V, W)
    if lhs == rhs:
        return None
    return {"R": R, "S": S, "T": T, "U": U, "V": V, "W": W}


def _chk_lax_unit(B, rng, carriers):
    X, A, Y, C = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, C, 2)
    (left, lid), (right, rid) = cartesian.lax_unit_sides(B, R, S)
    ok = left == lid and right == rid
    return None if ok else {"R": R, "S": S}


def _chk_tensor_naturality(B, rng, carriers):
    X0, X1, X2, Y0, Y1, Y2 = carriers
    R = one_cell(B, rng, X0, X1, 2)
    T = one_cell(B, rng, X1, X2, 2)
    S = one_cell(B, rng, Y0, Y1, 2)
    U = one_cell(B, rng, Y1, Y2, 2)
    _, alpha = thicken(B, rng, R, rng.randint(0, 2))
    _, gamma = thicken(B, rng, T, rng.randint(0, 2))
    _, beta = thicken(B, rng, S, rng.randint(0, 2))
    _, delta = thicken(B, rng, U, rng.randint(0, 2))
    if cartesian.tensor_naturality_holds(B, alpha, beta, gamma, delta):
        return None
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}


def _chk_tensor_functorial(B, rng, carriers):
    X, A, Y, C = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, C, 2)
    R1, a1 = thicken(B, rng, R, rng.randint(0, 2))
    _, a2 = thicken(B, rng, R1, rng.randint(0, 2))
    S1, b1 = thicken(B, rng, S, rng.randint(0, 2))
    _, b2 = thicken(B, rng, S1, rng.randint(0, 2))
    if cartesian.tensor_functor_law_holds(B, a1, a2, b1, b2):
        return None
    return {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def _neg_transposed_constraint(B, cfg):
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    L = FinSet(("l0", "l1"))
    rng = rng_for(cfg.seed, "neg-lax")
    R = one_cell(B, rng, X, A, 2)
    T = one_cell(B, rng, A, L, 2)
    S = one_cell(B, rng, L, X, 2)
    U = one_cell(B, rng, X, A, 2)
    good = cartesian.tensor_comp_cell(B, R, S, T, U)
    try:
        bad = cartesian.tensor_comp_cell(B, R, S, U, T)
        caught = bad.dom != good.dom
    except ValueError:
        caught = True
    return caught, {"R": R, "S": S, "T": T, "U": U}


LAX_CHECKS = (
    property_check("tensor-assoc-constraint", tuple("abcdefgh"),
                   _chk_lax_assoc, size_cap=2),
    property_check("tensor-unit-constraint", ("x", "a", "y", "c"),
                   _chk_lax_unit, size_cap=3),
    property_check("tensor-2cell-naturality", tuple("abcdef"),
                   _chk_tensor_naturality, size_cap=2),
    property_check("tensor-2cell-functorial", ("x", "a", "y", "c"),
                   _chk_tensor_functorial, size_cap=2),
    negative_check("negative-transposed-constraint", _neg_transposed_constraint),
)


# --- cartesian suite --------------------------------------------------------

def _chk_global_constraints(B, rng, carriers):
    X, A, Y, C = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, C, 2)
    T = one_cell(B, rng, A, X, 2)
    U = one_cell(B, rng, C, Y, 2)
    unit = cartesian.tensor_unit_cell(B, X, Y)
    compc = cartesian.tensor_comp_cell(B, R, S, T, U)
    ok = B.is_invertible(unit) and B.is_invertible(compc)
    return None if ok else {"R": R, "S": S, "T": T, "U": U}


def _chk_map_comparison(B, rng, carriers):
    X0, X1, X2, Y0, Y1, Y2 = carriers
    f = map_cell(B, rng, X0, X1, scramble=False)
    u = map_cell(B, rng, X1, X2, scramble=False)
    g = map_cell(B, rng, Y0, Y1, scramble=False)
    v = map_cell(B, rng, Y1, Y2, scramble=False)
    if None in (f, u, g, v):
        return None
    rep = cartesian.check_m(B, f, g, u, v)
    ok = (rep == {"nullary": True, "binary": True}
          and B.is_invertible(cartesian.m_cell(B, f, g)))
    return None if ok else {"f": f, "g": g, "u": u, "v": v}


def _chk_projection_conjugates(B, rng, carriers):
    X, A, Y = carriers
    R = one_cell(B, rng, X, A, 2)
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
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, C, 2)
    pre = cartesian.precompose_iso(B, f, g, R, S)
    post = cartesian.postcompose_star_iso(B, R, S, u, v)
    ok = B.is_invertible(pre) and B.is_invertible(post)
    return None if ok else {"f": f, "g": g, "u": u, "v": v, "R": R, "S": S}


def _chk_unit_factor_pairing(B, rng, carriers):
    X, A = carriers
    R = one_cell(B, rng, X, UNIT, 2)
    S = one_cell(B, rng, UNIT, A, 2)
    _, rep = cartesian.strange_pair(B, R, S)
    ok = rep == {"f": True, "u": True, "cell": True}
    return None if ok else {"R": R, "S": S}


class _CorruptTau:
    """Instance proxy whose terminal cell at one boundary has the wrong
    domain, as if the implementation looked up the wrong hom-category."""

    def __init__(self, inner, source, target):
        self._inner = inner
        self._key = (source, target)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def tau(self, R):
        if (R.source, R.target) == self._key:
            top = self._inner.local_terminal(R.source, R.target)
            return self._inner.id2(top)
        return self._inner.tau(R)


def _neg_corrupt_cartesian(B, cfg):
    X = FinSet(("x0", "x1"))
    A = FinSet(("a0",))
    if B.name == "rel":
        from .rels import Rel
        R = Rel(X, A, (("x0", "a0"),))
    else:
        R = B.graph(SetFn.constant(X, A, "a0"))
    proxy = _CorruptTau(B, X, A)
    violation = cartesian.precartesian_violation(proxy, [(R, R)])
    caught = (violation is not None
              and violation["what"] == "terminal-cell-boundary")
    return caught, {"R": R, "claimed-cell": proxy.tau(R)}


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
    negative_check("negative-corrupt-terminal", _neg_corrupt_cartesian),
)


# --- monoidal suite ---------------------------------------------------------

def _chk_braid_syllepsis(B, rng, carriers):
    X, Y = carriers
    p, r = product_object(B, X, Y).legs
    sigma, phi, psi = coherence.syllepsis_data(B, X, Y)
    ok = (B.whisker_right(sigma, p) == phi
          and B.whisker_right(sigma, r) == psi
          and B.is_invertible(sigma))
    return None if ok else {"X": X, "Y": Y}


def _chk_symmetry(B, rng, carriers):
    X, Y = carriers
    rep = coherence.symmetry_holds(B, X, Y)
    return None if all(rep.values()) else {"X": X, "Y": Y}


def _chk_rebracket(B, rng, carriers):
    X, Y, Z, W = carriers
    rep = coherence.check_quad_assoc(B, X, Y, Z, W)
    ok = rep == {"equation": True, "invertible": True}
    return None if ok else {"X": X, "Y": Y, "Z": Z, "W": W}


def _chk_pentagon(B, rng, carriers):
    rep = coherence.pentagon_unique(B, *carriers)
    ok = rep == {"routes_parallel": True, "compatible_cells": 1}
    return None if ok else dict(zip("XYZUV", carriers))


def _chk_modification_pair(B, rng, carriers):
    X, Y, Z, W, A, C, D, E = carriers
    R = one_cell(B, rng, X, A, 2)
    S = one_cell(B, rng, Y, C, 2)
    T = one_cell(B, rng, Z, D, 2)
    U = one_cell(B, rng, W, E, 2)
    rep = coherence.modification_pair_check(B, R, S, T, U)
    ok = rep.get("frames_match") and rep.get("cell_ok") and rep.get("invertible")
    return None if ok else {"R": R, "S": S, "T": T, "U": U}


def _neg_identity_braid(B, cfg):
    X = FinSet(("x0", "x1"))
    cone = product_object(B, X, X)
    claimed = B.identity(cone.vertex)
    p, r = cone.legs
    caught = not maps_isomorphic(B.comp(claimed, r), p)
    return caught, {"X": X, "claimed-braid": claimed}


MONOIDAL_CHECKS = (
    property_check("braid-syllepsis-equations", ("x", "y"),
                   _chk_braid_syllepsis, size_cap=3),
    property_check("swap-involution", ("x", "y"), _chk_symmetry, size_cap=4),
    property_check("rebracket-filler", ("x", "y", "z", "w"),
                   _chk_rebracket, size_cap=3, trial_cap=40),
    property_check("pentagon-route-uniqueness", ("x", "y", "z", "u", "v"),
                   _chk_pentagon, size_cap=2, trial_cap=10),
    property_check("square-rebracket-modification", tuple("abcdefgh"),
                   _chk_modification_pair, size_cap=2, trial_cap=10),
    skipped_check("unit-coherence-axiom-left"),
    skipped_check("unit-coherence-axiom-right"),
    negative_check("negative-identity-braid", _neg_identity_braid),
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
    want = "rel" if B.name == "rel" else "span"
    kind = type(value).__name__.lower()
    if kind != want:
        raise FixtureError("entity %r is a %s, not a %s 1-cell"
                           % (name, kind, want))
    return value


def run_fixture_checks(B, doc: Document) -> tuple:
    """One result per ``check`` record; each record is one unit of work
    and starts with an empty memo of composites."""
    results = []
    for i, chk in enumerate(doc.checks):
        t0 = time.monotonic()
        B.forget_composites()
        cid = "fixture-%d-%s" % (i, chk.kind)
        try:
            ok, entities = _eval_check(B, doc, chk)
        except FixtureError:
            raise
        except ValueError as exc:
            results.append(CheckResult(cid, "fail", 1,
                                       "# %s\n" % exc, _ms(t0)))
            continue
        payload = None if ok else _payload(entities)
        results.append(CheckResult(cid, "pass" if ok else "fail", 1,
                                   payload, _ms(t0)))
    return tuple(results)


def _eval_check(B, doc, chk):
    if chk.kind == "compose":
        a, b, c = (_fixture_entity(B, doc, n) for n in chk.args)
        got = B.comp(a, b)
        return got == c, {"left": a, "right": b, "expected": c, "got": got}
    if chk.kind == "equal":
        a, b = (_fixture_entity(B, doc, n) for n in chk.args)
        return a == b, {"first": a, "second": b}
    if chk.kind == "map":
        a = _fixture_entity(B, doc, chk.args[0])
        return a.is_map(), {"claimed-map": a}
    if chk.kind == "cell":
        a, b = (_fixture_entity(B, doc, n) for n in chk.args)
        if B.name == "rel":
            try:
                B.cell(a, b)
                return True, {}
            except ValueError:
                return False, {"dom": a, "cod": b}
        # Existence needs only the first cell, so no enumeration budget.
        exists = next(B.hom_cells(a, b, budget=float("inf")), None) is not None
        return exists, {"dom": a, "cod": b}
    raise FixtureError("unknown check kind %r" % chk.kind)


# --- orchestration -----------------------------------------------------------

def instance_for(name: str):
    return rel_instance() if name == "rel" else span_instance()


def run_suite(B, cfg: GenConfig, suite: str) -> SuiteReport:
    checks = tuple(spec.run(B, cfg) for spec in SUITE_CHECKS[suite])
    return SuiteReport(suite, checks)


def run_config(cfg: GenConfig, fixture_docs=()) -> RunReport:
    B = instance_for(cfg.instance)
    suites = [run_suite(B, cfg, s) for s in SUITES if s in cfg.suites]
    fixture_results = []
    for doc in fixture_docs:
        fixture_results.extend(run_fixture_checks(B, doc))
    if fixture_results:
        suites.append(SuiteReport("fixtures", tuple(fixture_results)))
    return RunReport(cfg, tuple(suites))
