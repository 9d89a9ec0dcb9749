"""Weak-consistency verification harness.

Pairs a computed scheme history against smooth space-time test functions
and splits the result into the five-term residual decomposition whose sum
is exactly zero:

    volume pairing   T1 = sum_n sum_K |K| (u^{n+1}_K - u^n_K) phi^n_K
    flux pairing     T2 = sum_n dt_n sum_{interior faces} |s| F_s.n (phi_K - phi_L)

    T1 = T1_1 + T1_2 + R1,   T2 = T2_tilde + R,   T1 + T2 = 0

with

    T1_1 = -sum_n sum_K |K| u^n_K (phi^{n+1}_K - phi^n_K)   (discrete du/dt pairing)
    T1_2 = -sum_K |K| u^0_K phi^0_K                          (initial pairing)
    R1   = -sum_n sum_K |K| (u^{n+1}_K - u^n_K)(phi^{n+1}_K - phi^n_K)
    T2_tilde = sum_n dt_n sum_s |s| (phi^n_K - phi^n_L)
               (|D_Ks| f(u_K) + |D_Ls| f(u_L)).n / |D_s|     (dual-weighted pairing)
    R    = T2 - T2_tilde, summed per face as
           sum_n dt_n sum_s |s| (phi^n_K - phi^n_L) [F_s - convex phys flux].n

T1_1, T1_2 and T2_tilde converge to the terms of the weak formulation;
R1 and R are controlled by the space-time translation seminorm of the
history, which is what makes any L1 limit of scheme solutions a weak
solution.  The identities require phi to vanish on cells touching the
boundary and on the last two time nodes, which the support-margin check
enforces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .flux import NumericalFlux, check_hypothesis_iii
from .mesh import Mesh, MeshFamily, MeshQuality, compute_quality, refine
from .operators import InvariantViolation, SmoothTestFunction, TimeGrid
from .reports import fit_decay_slope
from .solver import Problem, SpaceTimeField, Stepper, solve
from .translations import (
    IntegrableFunction,
    SpacetimeSeminorm,
    spacetime_translation_seminorm,
)

__all__ = [
    "ResidualDecomposition",
    "EnvelopeReport",
    "ConsistencyRow",
    "LevelRecord",
    "ConsistencyReport",
    "check_support_margin",
    "scheme_pairing",
    "weak_gap",
    "residual_envelope_check",
    "effective_c_phi",
    "lw_study",
]

MASTER_TOL = 1e-10
ENVELOPE_SLACK = 1e-9
# Accumulation-noise floor for the envelope inequalities.  On a constant
# state both residuals and both seminorm parts are pure rounding noise of
# sums whose terms we track as *_abs masses; without the floor the check
# would compare one noise quantity against another of the same magnitude.
ENVELOPE_FLOOR = 1e-12


def check_support_margin(mesh: Mesh, grid: TimeGrid,
                         phi: SmoothTestFunction) -> None:
    """Enforce what the decomposition identities actually use:

    * the spatial support is strictly inside the domain,
    * phi evaluates to exactly zero at the anchor of every cell touching
      the boundary (these are the values multiplying the boundary and
      wrap-around flux terms that T1 + T2 = 0 silently drops),
    * phi vanishes from the second-to-last time node on (kills the final
      jump terms of the time summation by parts).

    The asymptotic separation hypothesis (mesh size below the distance of
    the support from the boundary) holds on fine levels automatically;
    demanding it verbatim on coarse levels would reject every admissible
    test function, so the check verifies the exact zeros instead.
    """
    if mesh.box is None:
        raise ValueError("support margin check needs the mesh bounding box")
    lo, hi = mesh.box
    slo, shi = phi.support
    if np.any(slo <= lo) or np.any(shi >= hi):
        raise ValueError(
            f"spatial support [{slo}, {shi}] of {phi.name!r} is not strictly "
            f"inside the domain [{lo}, {hi}]"
        )
    bcells = np.unique(mesh.face_K[~mesh.interior])
    if bcells.size:
        centers = mesh.cell_center[bcells]
        inside = np.all((centers > slo) & (centers < shi), axis=1)
        if np.any(inside):
            bad = int(bcells[np.argmax(inside)])
            raise ValueError(
                f"{phi.name!r} does not vanish at the anchor of "
                f"boundary-adjacent cell {bad}; refine the mesh or shrink "
                f"the support"
            )
    if math.isfinite(phi.t_cut):
        limit = grid.t_final - 2.0 * grid.dt_max
        if phi.t_cut > limit + 1e-12:
            raise ValueError(
                f"{phi.name!r} must vanish from t={limit:.6g} on "
                f"(t_cut={phi.t_cut:.6g}, horizon {grid.t_final:.6g}, "
                f"dt_max {grid.dt_max:.3e})"
            )
    else:
        raise ValueError(f"{phi.name!r} does not vanish before the horizon")


@dataclass(frozen=True)
class ResidualDecomposition:
    """The five-term split of the scheme/test-function pairing."""

    phi_id: str
    t1_1: float
    t1_2: float
    r1: float
    t2_tilde: float
    r: float
    t1: float  # direct volume pairing, equals t1_1 + t1_2 + r1
    t2: float  # direct flux pairing, equals t2_tilde + r
    r1_abs: float  # sum of |term| in the R1 sum (noise scale)
    r_abs: float  # sum of |term| in the R sum (noise scale)

    @property
    def total(self) -> float:
        return self.t1_1 + self.t1_2 + self.r1 + self.t2_tilde + self.r

    @property
    def scale(self) -> float:
        return max(abs(self.t1_1), abs(self.t1_2), abs(self.r1),
                   abs(self.t2_tilde), abs(self.r))

    @property
    def master_residual(self) -> float:
        """|sum of the five terms| relative to the largest term."""
        s = self.scale
        return abs(self.total) / s if s > 0 else 0.0


def _pairing_core(field: SpaceTimeField, phis: list[SmoothTestFunction],
                  num_flux: NumericalFlux) -> list[ResidualDecomposition]:
    """One pass over the slabs, accumulating every phi's terms at once."""
    mesh = field.mesh
    grid = field.grid
    vals = field.values
    stp = Stepper(mesh, num_flux, field.boundary)
    ids = stp.interior_face_ids
    K = mesh.face_K[ids]
    L = mesh.face_L[ids]
    area = mesh.face_area[ids]
    normal = mesh.face_normal[ids]
    wK = (mesh.face_dk[ids] / mesh.face_dsig[ids])[:, None]
    wL = (mesh.face_dl[ids] / mesh.face_dsig[ids])[:, None]
    vol = mesh.cell_volume
    dts = grid.deltas

    n_phi = len(phis)
    phi_nodes = [
        np.stack([np.asarray(p.value(mesh.cell_center, float(t)), dtype=float)
                  for t in grid.nodes])
        for p in phis
    ]
    t1 = np.zeros(n_phi)
    t11 = np.zeros(n_phi)
    t12 = np.zeros(n_phi)
    r1 = np.zeros(n_phi)
    t2 = np.zeros(n_phi)
    t2t = np.zeros(n_phi)
    rr = np.zeros(n_phi)
    r1_abs = np.zeros(n_phi)
    r_abs = np.zeros(n_phi)
    for i in range(n_phi):
        t12[i] = -float(np.dot(vol * vals[0], phi_nodes[i][0]))

    for n in range(grid.n_steps):
        u = vals[n]
        du = vals[n + 1] - u
        f_sig = stp.interior_fluxes(u)
        phys = np.asarray(num_flux.flux.value(u), dtype=float)
        comb = np.einsum("fd,fd->f", wK * phys[K] + wL * phys[L], normal)
        dt_n = dts[n]
        for i in range(n_phi):
            pc = phi_nodes[i][n]
            dphi = phi_nodes[i][n + 1] - pc
            t1[i] += float(np.dot(vol * du, pc))
            t11[i] -= float(np.dot(vol * u, dphi))
            r1[i] -= float(np.dot(vol * du, dphi))
            r1_abs[i] += float(np.dot(vol * np.abs(du), np.abs(dphi)))
            jump = pc[K] - pc[L]
            t2[i] += dt_n * float(np.dot(area * f_sig, jump))
            t2t[i] += dt_n * float(np.dot(area * comb, jump))
            rr[i] += dt_n * float(np.dot(area * (f_sig - comb), jump))
            r_abs[i] += dt_n * float(
                np.dot(area * np.abs(jump), np.abs(f_sig) + np.abs(comb))
            )

    out = []
    for i, phi in enumerate(phis):
        dec = ResidualDecomposition(
            phi_id=phi.name, t1_1=float(t11[i]), t1_2=float(t12[i]),
            r1=float(r1[i]), t2_tilde=float(t2t[i]), r=float(rr[i]),
            t1=float(t1[i]), t2=float(t2[i]),
            r1_abs=float(r1_abs[i]), r_abs=float(r_abs[i]),
        )
        if abs(dec.total) > MASTER_TOL * max(dec.scale, 1e-300):
            raise InvariantViolation(
                f"master identity broken for {phi.name!r}: "
                f"sum={dec.total:.3e} vs scale={dec.scale:.3e} "
                f"(terms {dec.t1_1:.6e}, {dec.t1_2:.6e}, {dec.r1:.6e}, "
                f"{dec.t2_tilde:.6e}, {dec.r:.6e})"
            )
        out.append(dec)
    return out


def scheme_pairing(field: SpaceTimeField, phi: SmoothTestFunction,
                   num_flux: NumericalFlux | None = None) -> ResidualDecomposition:
    """Full residual decomposition of one history against one test function.

    The numerical flux defaults to the one stored on the field by the
    solver; it must be the flux the history was actually produced with,
    otherwise T1 + T2 = 0 fails and the master identity check fires.
    """
    flux = num_flux if num_flux is not None else field.flux
    if flux is None:
        raise ValueError("field carries no flux; pass num_flux explicitly")
    check_support_margin(field.mesh, field.grid, phi)
    return _pairing_core(field, [phi], flux)[0]


# ---------------------------------------------------------------------------
# weak gap
# ---------------------------------------------------------------------------


def _initial_pairing(mesh: Mesh, u0: IntegrableFunction | None,
                     u0_cells: np.ndarray, phi: SmoothTestFunction,
                     order: int) -> float:
    """integral of u0(x) phi(x, 0) over the domain.

    Falls back to the projected cell means when the continuum datum is not
    supplied (adds an O(h^2) projection error to the gap).
    """
    if mesh.cell_vertices is None:
        raise ValueError("weak gap needs cell geometry for quadrature")
    verts = mesh.cell_vertices
    if u0 is None:
        pts, w = quadrature.cell_rule(verts, order)
        per_cell = u0_cells * quadrature.rowdot(w, phi.value(pts, 0.0))
    elif u0.kind == "indicator" and u0.geometry is not None \
            and u0.geometry[0] == "interval":
        # integrate phi over the part of each cell inside [a, b]
        _, a, b = u0.geometry
        lo = np.maximum(verts.min(axis=1)[:, 0], a)
        hi = np.minimum(verts.max(axis=1)[:, 0], b)
        hit = hi > lo
        pts, w = quadrature.cell_rule(np.stack([lo[hit], hi[hit]], axis=1)[:, :, None],
                                      order)
        per_cell = np.zeros(mesh.n_cells)
        per_cell[hit] = quadrature.rowdot(w, phi.value(pts, 0.0))
    else:
        if u0.kind == "indicator":
            pts, w = quadrature.subdivision_rule(verts, 8)
        else:
            pts, w = quadrature.cell_rule(verts, order)
        vals = np.asarray(u0.fn(pts), dtype=float)
        per_cell = quadrature.rowdot(w * vals, phi.value(pts, 0.0))
    # a running sum in cell order; np.sum adds pairwise, in another order
    return float(np.cumsum(per_cell)[-1])


def _slab_means(fn, nodes: np.ndarray, npts: int = 6) -> np.ndarray:
    """integral of fn over every slab [t_n, t_{n+1}] by Gauss quadrature."""
    xg, wg = quadrature.gauss_legendre(npts)
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    half = 0.5 * (nodes[1:] - nodes[:-1])
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals @ wg)


def weak_gap(field: SpaceTimeField, phi: SmoothTestFunction,
             u0: IntegrableFunction | None = None,
             space_order: int = 4) -> float:
    """Distance of the history from the weak formulation against phi:

        | II(u d_t phi) + II(f(u) . grad phi) + I(u0 phi(., 0)) |

    with the piecewise-constant embedding u = u^n on (t_n, t_{n+1}].  The
    time integral of the d_t phi term telescopes exactly; space uses
    per-cell Gauss quadrature of the given order.  This must vanish under
    refinement whenever the histories converge in L1.
    """
    if field.flux is None:
        raise ValueError("field carries no flux; weak gap needs f = flux.flux")
    mesh = field.mesh
    grid = field.grid
    vals = field.values
    check_support_margin(mesh, grid, phi)
    if mesh.cell_vertices is None:
        raise ValueError("weak gap needs cell geometry for quadrature")
    flux_fn = field.flux.flux
    n_steps = grid.n_steps
    pts, wq = quadrature.cell_rule(mesh.cell_vertices, space_order)

    if phi.separable is not None:
        w_fn, gw_fn, g_fn, _ = phi.separable
        n_cells = mesh.n_cells
        W = quadrature.rowdot(wq, np.asarray(w_fn(pts), dtype=float))
        GW = (wq[:, None, :] @ np.asarray(gw_fn(pts), dtype=float))[:, 0]
        g_nodes = np.asarray(g_fn(grid.nodes), dtype=float)
        a_term = float(np.dot(np.diff(g_nodes), vals[:-1] @ W))
        g_slab = _slab_means(g_fn, grid.nodes)
        phys = np.asarray(
            flux_fn.value(vals[:-1].ravel()), dtype=float
        ).reshape(n_steps, n_cells, mesh.dim)
        b_term = float(np.dot(g_slab, np.einsum("nkd,kd->n", phys, GW)))
    else:
        Q = pts.reshape(-1, mesh.dim)
        WQ = wq.ravel()
        CQ = np.repeat(np.arange(mesh.n_cells), wq.shape[1])
        xg, wg = quadrature.gauss_legendre(4)
        a_term = 0.0
        b_term = 0.0
        prev = np.asarray(phi.value(Q, float(grid.nodes[0])), dtype=float)
        for n in range(n_steps):
            nxt = np.asarray(phi.value(Q, float(grid.nodes[n + 1])), dtype=float)
            a_term += float(np.dot(WQ * (nxt - prev), vals[n][CQ]))
            prev = nxt
            phys_q = np.asarray(flux_fn.value(vals[n]), dtype=float)[CQ]
            mid = 0.5 * (grid.nodes[n] + grid.nodes[n + 1])
            half = 0.5 * (grid.nodes[n + 1] - grid.nodes[n])
            for j in range(len(xg)):
                gp = np.asarray(phi.grad(Q, float(mid + half * xg[j])), dtype=float)
                b_term += half * wg[j] * float(
                    np.einsum("md,md,m->", gp, phys_q, WQ)
                )

    c_term = _initial_pairing(mesh, u0, vals[0], phi, space_order)
    return abs(a_term + b_term + c_term)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    phi_id: str
    r1_value: float
    r1_bound: float
    r_value: float
    r_bound: float
    c_f: float
    c_phi: float
    stencil_factor: float
    r1_ok: bool
    r_ok: bool

    @property
    def ok(self) -> bool:
        return self.r1_ok and self.r_ok


def residual_envelope_check(decomp: ResidualDecomposition,
                            seminorms: SpacetimeSeminorm,
                            c_f: float, c_phi: float,
                            stencil_factor: float = 1.0,
                            raise_on_breach: bool = True) -> EnvelopeReport:
    """Assert the two a-priori residual bounds

        |R1| <= c_phi * time part,   |R| <= c_f * c_phi * space part,

    with slack factor (1 + 1e-9) plus an absolute floor of 1e-12 times the
    corresponding term-magnitude sum (pure-rounding regimes, e.g. constant
    states, have envelopes that are themselves noise).  Fluxes with stencils
    wider than two points control their face residual by neighbour jumps as
    well, hence the stencil_factor on the R bound (1 for two-point fluxes).
    """
    slack = 1.0 + ENVELOPE_SLACK
    r1_bound = c_phi * seminorms.time_part
    r_bound = c_f * c_phi * stencil_factor * seminorms.space_part
    r1_ok = abs(decomp.r1) <= r1_bound * slack + ENVELOPE_FLOOR * decomp.r1_abs
    r_ok = abs(decomp.r) <= r_bound * slack + ENVELOPE_FLOOR * decomp.r_abs
    report = EnvelopeReport(
        phi_id=decomp.phi_id, r1_value=abs(decomp.r1), r1_bound=r1_bound,
        r_value=abs(decomp.r), r_bound=r_bound, c_f=c_f, c_phi=c_phi,
        stencil_factor=stencil_factor, r1_ok=r1_ok, r_ok=r_ok,
    )
    if raise_on_breach and not report.ok:
        parts = []
        if not r1_ok:
            parts.append(f"|R1|={abs(decomp.r1):.6e} > {r1_bound:.6e}")
        if not r_ok:
            parts.append(f"|R|={abs(decomp.r):.6e} > {r_bound:.6e}")
        raise InvariantViolation(
            f"residual envelope breached for {decomp.phi_id!r}: "
            + "; ".join(parts)
            + f" (c_f={c_f:.6g}, c_phi={c_phi:.6g})"
        )
    return report


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRow:
    level: int
    h: float
    dt: float
    phi_id: str
    t1_1: float
    t1_2: float
    r1: float
    t2_tilde: float
    r: float
    master_residual: float
    weak_gap: float
    r1_envelope: float
    r_envelope: float


@dataclass(frozen=True)
class LevelRecord:
    level: int
    h: float
    dt: float
    quality: MeshQuality
    seminorms: SpacetimeSeminorm
    rows: list[ConsistencyRow]
    decompositions: list[ResidualDecomposition]

    def max_weak_gap(self) -> float:
        return max(r.weak_gap for r in self.rows)


@dataclass(frozen=True)
class ConsistencyReport:
    family: str
    flux_name: str
    u0_name: str
    levels: list[LevelRecord]
    slopes: dict[str, float]

    def rows(self) -> list[ConsistencyRow]:
        return [r for rec in self.levels for r in rec.rows]

    def gap_profile(self) -> list[float]:
        return [rec.max_weak_gap() for rec in self.levels]


def effective_c_phi(phi: SmoothTestFunction, quality: MeshQuality) -> float:
    """Lipschitz-type constant making both residual envelopes theorems:
    the R1 bound needs sup|d_t phi|, the R bound needs theta_grad times
    sup|grad phi| (the face-jump/dual-volume conversion factor)."""
    return max(phi.dt_sup, quality.theta_grad * phi.grad_sup)


def lw_study(family: MeshFamily, problem: Problem,
             phi_set: list[SmoothTestFunction], levels: int,
             cfl: float = 0.45, check_flux: bool = True) -> ConsistencyReport:
    """Refinement study of the full residual decomposition.

    Per level: solve, compute the space-time seminorm, and for every test
    function the decomposition (master identity asserted), the weak gap,
    and both residual envelopes (asserted).  Decay slopes are fitted for
    the per-level maxima of weak_gap, |R| and |R1|.
    """
    if check_flux:
        rep = check_hypothesis_iii(problem.flux)
        if not rep.ok:
            raise InvariantViolation(
                f"flux {problem.flux.name!r} fails its Lipschitz-diagonal "
                f"bound: ratio {rep.max_ratio:.6g} at witness {rep.witness}"
            )
    meshes = refine(family, levels)
    stencil_factor = 1.0 if problem.flux.stencil <= 2 else 2.0

    records = []
    for lvl, mesh in enumerate(meshes):
        field = solve(mesh, problem, cfl=cfl)
        quality = compute_quality(mesh)
        for phi in phi_set:
            check_support_margin(mesh, field.grid, phi)
        sem = spacetime_translation_seminorm(mesh, field.grid, field.values)
        decomps = _pairing_core(field, phi_set, problem.flux)
        rows = []
        for phi, dec in zip(phi_set, decomps):
            gap = weak_gap(field, phi, u0=problem.u0)
            c_phi = effective_c_phi(phi, quality)
            env = residual_envelope_check(
                dec, sem, problem.flux.c_f, c_phi,
                stencil_factor=stencil_factor,
            )
            rows.append(ConsistencyRow(
                level=lvl, h=mesh.h_max, dt=float(field.grid.deltas[0]),
                phi_id=phi.name, t1_1=dec.t1_1, t1_2=dec.t1_2, r1=dec.r1,
                t2_tilde=dec.t2_tilde, r=dec.r,
                master_residual=dec.master_residual, weak_gap=gap,
                r1_envelope=float(env.r1_bound), r_envelope=float(env.r_bound),
            ))
        records.append(LevelRecord(
            level=lvl, h=mesh.h_max, dt=float(field.grid.deltas[0]),
            quality=quality, seminorms=sem, rows=rows, decompositions=decomps,
        ))

    hs = np.array([rec.h for rec in records])
    slopes = {
        "weak_gap": fit_decay_slope(hs, [rec.max_weak_gap() for rec in records]),
        "R1": fit_decay_slope(
            hs, [max(abs(d.r1) for d in rec.decompositions) for rec in records]
        ),
        "R": fit_decay_slope(
            hs, [max(abs(d.r) for d in rec.decompositions) for rec in records]
        ),
    }
    return ConsistencyReport(
        family=family.name, flux_name=problem.flux.name,
        u0_name=problem.u0.name, levels=records, slopes=slopes,
    )
