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
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .flux import FluxFunction, check_flux_contract
from .mesh import (Mesh, MeshError, MeshFamily, MeshQuality, compute_quality,
                   refine, validate)
from .operators import InvariantViolation, SmoothTestFunction, TimeGrid
from .reports import fit_decay_slope
from .solver import BlowUpError, Problem, SpaceTimeField, Stepper, march, plan
from .translations import (
    IntegrableFunction,
    SpacetimeSeminorm,
    _interior_jumps,
    _part_rule,
    _remainder,
)

# not called here: the benchmark's tracer (perfbench/tracer.py) times the
# solver under this module's name
from .solver import solve  # noqa: F401

__all__ = [
    "ResidualDecomposition",
    "LevelRecord",
    "ConsistencyReport",
    "check_support_margin",
    "weak_gap",
    "spacetime_translation_seminorm",
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
# SIGKILL, which POSIX fixes at 9; ``import lwfv`` does not load ``signal``
_SIGKILL = 9


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
    lo, hi = mesh.box
    slo, shi = phi.support
    if np.any(slo <= lo) or np.any(shi >= hi):
        raise ValueError(
            f"spatial support [{slo}, {shi}] of {phi.name!r} is not strictly "
            f"inside the domain [{lo}, {hi}]"
        )
    bcells = np.flatnonzero(
        np.bincount(mesh.face_K[~mesh.interior], minlength=mesh.n_cells))
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


# ---------------------------------------------------------------------------
# test functions phi = w(x) g(t): time weights
# ---------------------------------------------------------------------------


def _time_weights(phis, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """g(t_n) and g(t_{n+1}) - g(t_n) per step (rows) and test function
    (columns): phi^n = w g(t_n) and phi^{n+1} - phi^n = w (g(t_{n+1}) -
    g(t_n)), so every per-step quantity is a constant spatial column times
    one of these time weights."""
    g_nodes = np.column_stack([np.asarray(p.g(grid.nodes), dtype=float)
                               for p in phis])
    return g_nodes[:-1], np.diff(g_nodes, axis=0)


def _weighted(weight: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_n weight[n] * rows[n], per test function."""
    return np.einsum("nm,nm->m", weight, rows)


# ---------------------------------------------------------------------------
# streamed sums: a block of steps at a time, no stored history
# ---------------------------------------------------------------------------

BLOCK_STEPS = 16  # steps per block handed to the sums


class _StepBlocks:
    """The ``march`` callback that feeds the streamed sums.

    It collects the states u^n, ..., u^{n+b}, the interior edge fluxes and
    the interior face jumps u^n_K - u^n_L of b = BLOCK_STEPS consecutive
    steps, one row per step, and hands each full block to every sum as
    ``block(n0, U, dU, F, J)``, n0 being the first step and dU = u^{n+1} -
    u^n formed by one subtraction per block; ``flush()`` hands over the
    last, partial block.  The jumps come from ``stp.interior_jumps``, which
    reads the states of u^n that the step gathered, so no sum gathers the
    states again.  Memory is O(BLOCK_STEPS * cells), in buffers allocated
    once: a fresh dU per block made glibc's malloc trim and refault its
    heap top on every block of a process that had not yet grown its heap
    (about 5 700 page faults at level 3 of the 2d Burgers scenario).
    """

    def __init__(self, stp: Stepper, sums):
        n_interior = stp.n_interior
        self.U = np.empty((BLOCK_STEPS + 1, stp.mesh.n_cells))
        self.dU = np.empty((BLOCK_STEPS, stp.mesh.n_cells))
        self.F = np.empty((BLOCK_STEPS, n_interior))
        self.J = np.empty((BLOCK_STEPS, n_interior))
        self.stp = stp
        self.sums = sums
        self.n0 = 0
        self.count = 0

    def __call__(self, n: int, u: np.ndarray, u_next: np.ndarray, fv) -> None:
        i = self.count
        if i == 0:
            self.U[0] = u
        self.U[i + 1] = u_next
        self.F[i] = fv[:self.F.shape[1]]
        self.stp.interior_jumps(self.J[i])
        self.count = i + 1
        if self.count == len(self.F):
            self.flush()

    def flush(self) -> None:
        size = self.count
        if size:
            U = self.U[:size + 1]
            dU = np.subtract(U[1:], U[:-1], out=self.dU[:size])
            for sums in self.sums:
                sums.block(self.n0, U[:-1], dU, self.F[:size], self.J[:size])
        self.n0 += size
        self.count = 0


class _SeminormSums:
    """The space-time translation seminorm of a history, a block of steps
    at a time, by the slab-mean convention for the piecewise-constant
    embedding u(., t) = u^n on (t_n, t_{n+1}], with dt_n = t_{n+1} - t_n:

        space part = sum_{n=0}^{N-1} dt_n sum_sigma |D_sigma| |u^n_K - u^n_L|
        time part  = sum_{n=1}^{N-1} dt_n sum_K |K| |u^n_K - u^{n-1}_K|

    ``block(n0, U, dU, F, J)`` reads dU = u^{n+1} - u^n and the jumps J =
    u^n_K - u^n_L on the interior faces in face order (not U or F), for
    n = 0..N-1; ``result()`` applies the slab widths.  ``lw_study`` hands
    over the jumps each step gathered, ``spacetime_translation_seminorm``
    those of ``_interior_jumps``.  Both parts sum over every face and every
    cell, in O(faces + N) memory, not O(N * cells).
    """

    def __init__(self, mesh: Mesh, grid: TimeGrid):
        self.dsig = mesh.face_dsig[mesh.interior]
        self.vol = mesh.cell_volume
        self.dts = grid.deltas
        self.space = np.zeros(grid.n_steps)  # sum_sigma |D_sigma| |u^n_K - u^n_L|
        self.time = np.zeros(grid.n_steps)  # sum_K |K| |u^{n+1}_K - u^n_K|
        self._abs_j = np.empty((BLOCK_STEPS, self.dsig.size))
        self._abs_du = np.empty((BLOCK_STEPS, self.vol.size))

    def block(self, n0: int, U: np.ndarray, dU: np.ndarray, F: np.ndarray,
              J: np.ndarray) -> None:
        b = len(U)
        rows = slice(n0, n0 + b)
        np.matmul(np.abs(J, out=self._abs_j[:b]), self.dsig, out=self.space[rows])
        np.matmul(np.abs(dU, out=self._abs_du[:b]), self.vol, out=self.time[rows])

    def result(self) -> SpacetimeSeminorm:
        # the jump after step n separates slabs n and n + 1; the one after
        # the last step lies outside (0, T)
        return SpacetimeSeminorm(
            space_part=float(np.dot(self.dts, self.space)),
            time_part=float(np.dot(self.dts[1:], self.time[:-1])),
        )


class _PairingSums:
    """The residual decomposition of a history against a set of test
    functions, fed a block of steps at a time.

    Built from the initial state u^0 and the physical flux f = g(u) b, then
    ``block(n0, U, dU, F, J)`` as ``_StepBlocks`` hands it over, with U the
    states u^n, dU = u^{n+1} - u^n and F the normal numerical fluxes on the
    interior faces in face order, one row per step n (the jumps J are not
    read).  Each step stores one row per term and test function;
    ``decompositions()`` applies the time weights.  T1, T2 and the five
    terms each have their own row, so the two splits T1 = T1_1 + T1_2 + R1
    and T2 = T2_tilde + R and the master identity check them against each
    other.

    Its columns are the anchor samples |K| w(x_K) and the face jumps
    w(x_K) - w(x_L), kept on their support rows: ``faces``, the interior
    faces with a nonzero jump, and ``cells``, the cells with a nonzero
    sample plus both cells of every kept face (``face_cells``, as positions
    in ``cells``).  Every dropped row is zero in every column.  The face
    weights |s| |D_Ks| / |D_s| (b . n) and |s| |D_Ls| / |D_s| (b . n) turn
    g(u_K) and g(u_L) into |s| times the dual-weighted physical flux
    (|D_Ks| f(u_K) + |D_Ls| f(u_L)) . n / |D_s|.
    """

    def __init__(self, mesh: Mesh, grid: TimeGrid, phis, u0: np.ndarray,
                 flux: FluxFunction):
        ids = np.flatnonzero(mesh.interior)
        K, L = mesh.face_K[ids], mesh.face_L[ids]
        wc = np.column_stack([np.asarray(p.w(mesh.cell_center), dtype=float)
                              for p in phis])
        jump = wc[K] - wc[L]
        self.faces = np.flatnonzero(np.any(jump != 0.0, axis=1))
        touched = np.any(wc != 0.0, axis=1)
        touched[K[self.faces]] = touched[L[self.faces]] = True
        self.cells = np.flatnonzero(touched)
        self.face_cells = (np.searchsorted(self.cells, K[self.faces]),
                           np.searchsorted(self.cells, L[self.faces]))
        w_cells, self.w_jump = wc[self.cells], jump[self.faces]
        self.node_weight, self.step_weight = _time_weights(phis, grid)
        f = ids[self.faces]
        vol = mesh.cell_volume[self.cells]
        self.vol_w = vol[:, None] * w_cells
        self.vol_w_abs = np.abs(self.vol_w)
        self.jump_abs = np.abs(self.w_jump)
        self.area = mesh.face_area[f]
        area_bn = self.area * flux.normal_speed(mesh.face_normal[f])
        self.weight_K = area_bn * (mesh.face_dk[f] / mesh.face_dsig[f])
        self.weight_L = area_bn * (mesh.face_dl[f] / mesh.face_dsig[f])
        self.profile = flux.profile
        self.dts = grid.deltas
        self.phis = phis
        self.t1_2 = -((vol * u0[self.cells]) @ w_cells) * self.node_weight[0]
        self.rows = np.zeros((8, grid.n_steps, len(phis)))
        nc, nf = self.cells.size, self.faces.size  # 2 cell, 3 face buffers
        self._bufs = [np.empty((BLOCK_STEPS, n)) for n in (nc, nc, nf, nf, nf)]

    def block(self, n0: int, U: np.ndarray, dU: np.ndarray, F: np.ndarray,
              J: np.ndarray) -> None:
        b = len(U)
        Uc, dUc, fa, fb, fc = (x[:b] for x in self._bufs)
        # the ids index U, dU, F and gc, so "clip" never clips; with an
        # output buffer, the default "raise" would copy through a temporary
        U.take(self.cells, axis=1, out=Uc, mode="clip")
        dU.take(self.cells, axis=1, out=dUc, mode="clip")
        gc = self.profile(Uc)
        Kc, Lc = self.face_cells
        gK = np.multiply(self.weight_K, gc.take(Kc, axis=1, out=fa, mode="clip"), out=fa)
        gL = np.multiply(self.weight_L, gc.take(Lc, axis=1, out=fb, mode="clip"), out=fb)
        comb = np.add(gK, gL, out=fa)
        aF = np.multiply(self.area, F.take(self.faces, axis=1, out=fc, mode="clip"), out=fc)
        jump = self.w_jump
        r = self.rows[:, n0:n0 + b]
        np.matmul(dUc, self.vol_w, out=r[2])               # R1
        np.matmul(Uc, self.vol_w, out=r[1])                # T1_1
        r[0] = r[2]  # T1: the spatial row of R1, under other time weights
        np.matmul(np.abs(dUc, out=dUc), self.vol_w_abs, out=r[3])  # |R1| mass
        np.matmul(aF, jump, out=r[4])                      # T2
        np.matmul(comb, jump, out=r[5])                    # T2_tilde
        np.matmul(np.subtract(aF, comb, out=fb), jump, out=r[6])  # R
        np.matmul(np.add(np.abs(aF, out=fc), np.abs(comb, out=fa), out=fc),
                  self.jump_abs, out=r[7])                 # |R| mass

    def decompositions(self) -> list[ResidualDecomposition]:
        rows = self.rows
        per_slab = self.dts[:, None] * self.node_weight
        t1 = _weighted(self.node_weight, rows[0])
        t11 = -_weighted(self.step_weight, rows[1])
        r1 = -_weighted(self.step_weight, rows[2])
        r1_abs = _weighted(np.abs(self.step_weight), rows[3])
        t2, t2t, rr = (_weighted(per_slab, rows[k]) for k in (4, 5, 6))
        r_abs = _weighted(np.abs(per_slab), rows[7])
        out = []
        for i, phi in enumerate(self.phis):
            dec = ResidualDecomposition(
                phi_id=phi.name, t1_1=float(t11[i]), t1_2=float(self.t1_2[i]),
                r1=float(r1[i]), t2_tilde=float(t2t[i]), r=float(rr[i]),
                t1=float(t1[i]), t2=float(t2[i]),
                r1_abs=float(r1_abs[i]), r_abs=float(r_abs[i]),
            )
            tol = MASTER_TOL * max(dec.scale, 1e-300)
            # each half of the identity on its own first, so that a failure
            # names the half that broke
            for half, lhs, rhs in (
                    ("T1 = T1_1 + T1_2 + R1", dec.t1, dec.t1_1 + dec.t1_2 + dec.r1),
                    ("T2 = T2_tilde + R", dec.t2, dec.t2_tilde + dec.r)):
                if not abs(lhs - rhs) <= tol:
                    raise InvariantViolation(
                        f"split {half} broken for {phi.name!r}: "
                        f"{lhs:.6e} vs {rhs:.6e}, scale={dec.scale:.3e}")
            if not abs(dec.total) <= tol:
                raise InvariantViolation(
                    f"master identity broken for {phi.name!r}: "
                    f"sum={dec.total:.3e} vs scale={dec.scale:.3e} "
                    f"(terms {dec.t1_1:.6e}, {dec.t1_2:.6e}, {dec.r1:.6e}, "
                    f"{dec.t2_tilde:.6e}, {dec.r:.6e})"
                )
            out.append(dec)
        return out


class _GapSums:
    """The weak gaps of a history against a set of test functions, fed a
    block of steps at a time: built from the continuum datum u0 and the
    physical flux f, then ``block(n0, U, dU, F, J)`` as ``_StepBlocks``
    hands it over (only the states U are read, so ``weak_gap`` passes rows
    of a stored history and nothing else), then ``gaps()``.

    Its columns are exact integrals by the cell quadrature rule: int_K w
    and b . int_K grad w, kept on the cells where some column is nonzero,
    against the time weights g(t_{n+1}) - g(t_n) and the slab integrals of
    g.  Each test function is evaluated only on the cells whose vertex box
    meets its support box: every quadrature point of another cell lies
    outside the support, where w and grad w are exactly 0.
    """

    def __init__(self, mesh: Mesh, grid: TimeGrid, phis, u0: IntegrableFunction,
                 flux: FluxFunction):
        verts = mesh.cell_vertices
        pts, wq = quadrature.cell_rule(verts)
        # int u0(x) phi(x, 0) dx by the cell-integral rule of the
        # projections, one evaluation of u0 for all phis, summed in cell
        # order (np.sum adds pairwise, in another order): the cell rule on
        # the remainder of u0, plus a Gauss rule on each cell's part inside
        # the interval of interval data
        wu = wq * _remainder(u0, pts)
        if u0.interval is not None:
            part_cells, pts0, w0 = _part_rule(verts, u0)
        vmin, vmax = verts.min(axis=1), verts.max(axis=1)
        W = np.zeros((mesh.n_cells, len(phis)))
        GW = np.zeros((mesh.n_cells, mesh.dim, len(phis)))
        per_cell = np.zeros((mesh.n_cells, len(phis)))
        for i, p in enumerate(phis):
            slo, shi = p.support
            meets = np.all((vmax >= slo) & (vmin <= shi), axis=1)
            rows = np.flatnonzero(meets)
            w = np.asarray(p.w(pts[rows]), dtype=float)
            W[rows, i] = quadrature.rowdot(wq[rows], w)
            GW[rows, :, i] = (wq[rows, None, :]
                              @ np.asarray(p.grad_w(pts[rows]), dtype=float))[:, 0]
            # on the cell rule's points, phi(., 0) = w g(0)
            per_cell[rows, i] = quadrature.rowdot(wu[rows], w * p.g(0.0))
            if u0.interval is not None:
                keep = meets[part_cells]
                per_cell[part_cells[keep], i] += quadrature.rowdot(
                    w0[keep], p.value(pts0[keep], 0.0))
        self.c_term = np.cumsum(per_cell, axis=0)[-1]
        self.cells = np.flatnonzero(np.any(W != 0.0, axis=1)
                                    | np.any(GW != 0.0, axis=(1, 2)))
        self.w_integral = W[self.cells]  # (cells, phis)
        # f(u) . grad w = g(u) (b . grad w): b goes into the column once
        self.b_grad_w = np.einsum("d,cdp->cp", flux.direction, GW[self.cells])
        self.step_weight = _time_weights(phis, grid)[1]
        self.slab_weight = np.column_stack([_slab_means(p.g, grid.nodes)
                                            for p in phis])
        self.profile = flux.profile
        self.rows = np.zeros((2, grid.n_steps, len(phis)))
        self._states = np.empty((BLOCK_STEPS, self.cells.size))  # reused per block

    def block(self, n0: int, U: np.ndarray, dU: np.ndarray, F: np.ndarray,
              J: np.ndarray) -> None:
        b = len(U)
        # the cells index U, so "clip" never clips; with an output buffer,
        # the default "raise" would copy through a temporary
        Uc = U.take(self.cells, axis=1, out=self._states[:b], mode="clip")
        a_term, b_term = self.rows[:, n0:n0 + b]
        np.matmul(Uc, self.w_integral, out=a_term)  # u^n against phi^{n+1} - phi^n
        np.matmul(self.profile(Uc), self.b_grad_w, out=b_term)  # f(u^n) . grad phi

    def gaps(self) -> list[float]:
        total = self.c_term + (_weighted(self.step_weight, self.rows[0])
                               + _weighted(self.slab_weight, self.rows[1]))
        return [abs(float(x)) for x in total]


# ---------------------------------------------------------------------------
# weak gap
# ---------------------------------------------------------------------------


SLAB_POINTS = 6  # Gauss points per time slab


def _slab_means(fn, nodes: np.ndarray) -> np.ndarray:
    """integral of fn over every slab [t_n, t_{n+1}] by Gauss quadrature."""
    xg, wg = quadrature.gauss_legendre(SLAB_POINTS)
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    half = 0.5 * (nodes[1:] - nodes[:-1])
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals @ wg)


def weak_gap(field: SpaceTimeField, phi: SmoothTestFunction,
             u0: IntegrableFunction) -> float:
    """Distance of the history from the weak formulation against phi:

        | II(u d_t phi) + II(f(u) . grad phi) + I(u0 phi(., 0)) |

    with the piecewise-constant embedding u = u^n on (t_n, t_{n+1}].  The
    time integral of the d_t phi term telescopes exactly; space uses
    per-cell Gauss quadrature with GAUSS_ORDER points per axis.  This must
    vanish under refinement whenever the histories converge in L1.  ``u0``
    is the continuum datum of the run, whose integral against phi(., 0)
    forms the last term.  The stored states go to the same sums as in ``lw_study``, in the same
    blocks of steps, so both give the same bits.
    """
    if field.flux is None:
        raise ValueError("field carries no flux; weak gap needs f = flux.flux")
    check_support_margin(field.mesh, field.grid, phi)
    sums = _GapSums(field.mesh, field.grid, [phi], u0, field.flux.flux)
    states = field.values[:-1]
    for n0 in range(0, len(states), BLOCK_STEPS):
        sums.block(n0, states[n0:n0 + BLOCK_STEPS], None, None, None)
    return sums.gaps()[0]


def spacetime_translation_seminorm(mesh: Mesh, grid: TimeGrid,
                                   values: np.ndarray) -> SpacetimeSeminorm:
    """The space-time translation seminorm of a stored history ``values``
    (N+1, n_cells), by the sums of ``lw_study`` (``_SeminormSums``) fed the
    same blocks of steps and the same face jumps, so both give the same
    bits."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_steps + 1, mesh.n_cells):
        raise ValueError(
            f"expected shape {(grid.n_steps + 1, mesh.n_cells)}, got {vals.shape}"
        )
    sums = _SeminormSums(mesh, grid)
    for n0 in range(0, grid.n_steps, BLOCK_STEPS):
        n1 = min(n0 + BLOCK_STEPS, grid.n_steps)
        U = vals[n0:n1]
        sums.block(n0, U, vals[n0 + 1:n1 + 1] - U, None, _interior_jumps(mesh, U))
    return sums.result()


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def residual_envelope_check(decomp: ResidualDecomposition,
                            seminorms: SpacetimeSeminorm,
                            c_f: float, c_phi: float) -> tuple[float, float]:
    """Assert the two a-priori residual bounds

        |R1| <= c_phi * time part,   |R| <= c_f * c_phi * space part,

    and return them as ``(r1_bound, r_bound)``.  The R bound holds for
    every stencil: the two-point jump bound c_f |u_K - u_L| of hypothesis
    (iii), which ``check_flux_contract`` samples for three-point fluxes
    with their stencil extensions, times the discrete gradient of phi.
    Each check has slack factor (1 + 1e-9) plus an absolute floor of 1e-12
    times the corresponding term-magnitude sum (pure-rounding regimes, e.g.
    constant states, have envelopes that are themselves noise).  A breach
    raises InvariantViolation.
    """
    slack = 1.0 + ENVELOPE_SLACK
    r1_bound = c_phi * seminorms.time_part
    r_bound = c_f * c_phi * seminorms.space_part
    r1_ok = abs(decomp.r1) <= r1_bound * slack + ENVELOPE_FLOOR * decomp.r1_abs
    r_ok = abs(decomp.r) <= r_bound * slack + ENVELOPE_FLOOR * decomp.r_abs
    if not (r1_ok and r_ok):
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
    return r1_bound, r_bound


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelRecord:
    """One level of ``lw_study``.  The last three fields are in the order
    of the test functions; each envelope is the ``(r1_bound, r_bound)``
    pair of ``residual_envelope_check``."""

    level: int
    h: float
    dt: float
    quality: MeshQuality
    seminorms: SpacetimeSeminorm
    decompositions: list[ResidualDecomposition]
    weak_gaps: list[float]
    envelopes: list[tuple[float, float]]


@dataclass(frozen=True)
class ConsistencyReport:
    family: str
    flux_name: str
    u0_name: str
    levels: list[LevelRecord]
    slopes: dict[str, float]

    def gap_profile(self) -> list[float]:
        """The largest weak gap of each level."""
        return [max(rec.weak_gaps) for rec in self.levels]


def effective_c_phi(phi: SmoothTestFunction, quality: MeshQuality) -> float:
    """Lipschitz-type constant making both residual envelopes theorems:
    the R1 bound needs sup|d_t phi|, the R bound needs theta_grad times
    sup|grad phi| (the face-jump/dual-volume conversion factor).  Raises
    InvariantViolation when an operand is not finite (``max`` would drop a
    NaN and return a bound that holds nothing)."""
    dt_part, grad_part = phi.dt_sup, quality.theta_grad * phi.grad_sup
    if not (math.isfinite(dt_part) and math.isfinite(grad_part)):
        raise InvariantViolation(
            f"c_phi operands are not finite: sup|d_t phi| = {dt_part!r}, "
            f"theta_grad * sup|grad phi| = {grad_part!r}")
    return max(dt_part, grad_part)


def lw_study(family: MeshFamily, problem: Problem,
             phi_set: list[SmoothTestFunction], levels: int,
             cfl: float = 0.45, check_flux: bool = True) -> ConsistencyReport:
    """Refinement study of the full residual decomposition.

    Per level, ``validate`` first, then one pass over time with no stored
    history: the march feeds every step's states and face fluxes to the
    space-time seminorm, the decomposition and the weak gap of every test
    function at once.  Then it asserts that the history stayed in the state
    range on which the flux's c_f holds, the two splits
    T1 = T1_1 + T1_2 + R1 and T2 = T2_tilde + R, the master identity, and
    both residual envelopes; an InvariantViolation, or the MeshError of a
    level that fails validation, names the family and the level.  Decay
    slopes are fitted for the per-level maxima of weak_gap, |R| and |R1|.

    The levels are independent, so on a host that allows it the study runs
    in two processes.  It forks before it does anything else: the child
    checks the flux (``check_flux_contract``, when ``check_flux``), builds
    and rates every level with ``refine``, whose regularity band covers
    them all, and runs levels 0 ... n-2; this process builds level n-1,
    the largest, runs it, then reads the child's records back through a
    pipe.  The split is skipped, and the check, the refinement and the
    levels run one after the other here, when there is one level, when the
    platform has no ``os.fork``, when this process may use only one CPU, or
    when it has a second live thread (forking a threaded process is
    unsafe).  Both paths run the same code on the same meshes, so the
    report is bit-identical either way, and so is the error: a failure of
    the flux check or of the regularity band comes before any level's, and
    then the failure of the lowest failing level, with the type and
    message the sequential loop raises.
    """
    def run(lvl: int, mesh: Mesh) -> LevelRecord:
        try:
            return _study_level(lvl, mesh, problem, phi_set, cfl)
        except (InvariantViolation, BlowUpError, MeshError) as exc:
            raise type(exc)(f"family {family.name!r}, level {lvl}: {exc}") from exc

    def lower(n: int) -> list[LevelRecord]:
        """The flux check, the refinement and levels 0 ... n-1."""
        if check_flux:
            rep = check_flux_contract(problem.flux)
            if not rep.ok:
                raise InvariantViolation(
                    f"flux {problem.flux.name!r} fails its "
                    f"{' and '.join(rep.failed)}: {rep.failed[0]} witness "
                    f"{rep.witness}")
        meshes = refine(family, levels)
        return [run(lvl, meshes[lvl]) for lvl in range(n)]

    if _can_split(levels):
        records = _split_levels(
            lambda: lower(levels - 1),
            lambda: run(levels - 1, family.build(levels - 1)))
    else:
        records = lower(levels)

    hs = np.array([rec.h for rec in records])
    slopes = {
        "weak_gap": fit_decay_slope(hs, [max(rec.weak_gaps) for rec in records]),
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


def _can_split(n_levels: int) -> bool:
    """Whether ``lw_study`` runs its levels in two processes."""
    return (n_levels >= 2 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _split_levels(lower, last) -> list[LevelRecord]:
    """``[*lower(), last()]`` with ``lower`` in a forked child and ``last``
    here.  The child sends one pickled object: the records or the exception
    it raised (see ``_child_levels``).  A failure in the child comes first,
    since it belongs to the prologue or to a lower level."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        os.close(rfd)
        _child_levels(lower, wfd)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        try:
            try:
                record, failure = last(), None
            except Exception as exc:
                record, failure = None, exc
            data = pipe.read()
        except BaseException:
            os.kill(pid, _SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if not data:
        raise RuntimeError(
            f"the child process of lw_study ended with exit status "
            f"{os.waitstatus_to_exitcode(status)} and sent no result")
    value = pickle.loads(data)
    if isinstance(value, Exception):
        raise value
    if failure is not None:
        raise failure
    return [*value, record]


def _child_levels(lower, wfd: int) -> None:
    """The forked child of ``_split_levels``: call ``lower``, send its
    records or the exception it raised through ``wfd``, and end the process
    with ``os._exit``, so that it runs no atexit handler and flushes no
    stdio buffer it inherited.  What does not survive the pickle round trip
    is sent as a RuntimeError naming it."""
    code = 1
    try:
        try:
            result = lower()
        except Exception as exc:
            result = exc
        try:
            data = pickle.dumps(result)
            pickle.loads(data)  # an exception may pickle and fail to load
        except Exception as exc:
            bad = result if isinstance(result, Exception) else exc
            data = pickle.dumps(RuntimeError(
                f"the child process of lw_study raised "
                f"{type(bad).__name__}: {bad}, which cannot be pickled"))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _study_level(lvl: int, mesh: Mesh, problem: Problem,
                 phi_set: list[SmoothTestFunction], cfl: float) -> LevelRecord:
    """One level of ``lw_study``: one march feeding all the sums."""
    validate(mesh, raise_on_failure=True)
    stp, grid, u0 = plan(mesh, problem, cfl)
    quality = compute_quality(mesh)
    for phi in phi_set:
        check_support_margin(mesh, grid, phi)
    seminorm = _SeminormSums(mesh, grid)
    pairing = _PairingSums(mesh, grid, phi_set, u0, problem.flux.flux)
    gap = _GapSums(mesh, grid, phi_set, problem.u0, problem.flux.flux)
    blocks = _StepBlocks(stp, [seminorm, pairing, gap])
    lo, hi = march(stp, grid, u0, blocks)
    blocks.flush()
    flux = problem.flux
    if lo < flux.u_range[0] or hi > flux.u_range[1]:
        raise InvariantViolation(
            f"history reaches [{lo:.6g}, {hi:.6g}], outside the state range "
            f"[{flux.u_range[0]:g}, {flux.u_range[1]:g}] on which c_f="
            f"{flux.c_f:.6g} of {flux.name!r} holds, so the R envelopes of "
            + ", ".join(repr(p.name) for p in phi_set) + " are not sound"
        )
    sem = seminorm.result()
    decomps = pairing.decompositions()
    envelopes = [
        residual_envelope_check(dec, sem, flux.c_f, effective_c_phi(phi, quality))
        for phi, dec in zip(phi_set, decomps)
    ]
    return LevelRecord(
        level=lvl, h=mesh.h_max, dt=float(grid.deltas[0]), quality=quality,
        seminorms=sem, decompositions=decomps, weak_gaps=gap.gaps(),
        envelopes=envelopes,
    )
