"""Explicit cell-centered finite-volume marching for scalar conservation laws.

One step of the scheme updates every cell mean by the net numerical flux
through its faces:

    u_K'  =  u_K - (dt / |K|) * sum_{faces of K} |sigma| * F_sigma . n_K

Face fluxes are computed once per face and accumulated with opposite signs
into the two adjacent cells, so the update conserves mass on periodic
domains by construction.  Of the two boundary conditions, ``periodic``
identifies opposite box faces, ``outflow`` closes boundary faces with the
physical flux of the inside state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flux import NumericalFlux
from .mesh import Mesh, MeshError, far_neighbors
from .operators import InvariantViolation, TimeGrid
from .reports import open_file
from .translations import IntegrableFunction, _cell_values, project_l1

__all__ = [
    "Problem",
    "SpaceTimeField",
    "Stepper",
    "BlowUpError",
    "select_dt",
    "plan",
    "march",
    "solve",
    "solve_to_file",
    "read_history",
]

N_MIN_STEPS = 4  # fallback step count when nothing moves
BLOWUP_FACTOR = 1e6
# rounding slack of the maximum principle, relative to max |u^0|
MAX_PRINCIPLE_SLACK = 1e-12


class BlowUpError(RuntimeError):
    """The iteration left any physically plausible range."""


@dataclass(frozen=True)
class Problem:
    """A conservation-law initial-value problem on a box domain."""

    flux: NumericalFlux
    u0: IntegrableFunction
    t_final: float
    boundary: str = "periodic"

    def __post_init__(self):
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive and finite, "
                             f"got {self.t_final!r}")
        if self.boundary not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary condition {self.boundary!r}")


@dataclass(frozen=True)
class SpaceTimeField:
    """Full scheme history: values[n] is the cell field at time node t_n."""

    mesh: Mesh
    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, n_cells)
    boundary: str = "periodic"
    flux: NumericalFlux | None = None  # flux the history was produced with

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_steps + 1, self.mesh.n_cells)
        if v.shape != expected:
            raise ValueError(f"expected history shape {expected}, got {v.shape}")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# edge construction
# ---------------------------------------------------------------------------


def _pair_periodic_faces(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Match boundary faces across the box by translated centroids.

    Returns (low, high): every boundary face whose normal points down its
    dominant axis, in face order, and the face its centroid lands on when
    shifted by one period along that axis.  Centroids match after rounding
    to a grid of 1e-9 times the box size.
    """
    lo, hi = mesh.box
    period = hi - lo
    quant = max(float(np.max(period)), 1.0) * 1e-9

    bdry = np.flatnonzero(~mesh.interior)
    normal = mesh.face_normal[bdry]
    axis = np.argmax(np.abs(normal), axis=1)
    is_low = normal[np.arange(bdry.size), axis] <= 0  # pair from the low side only
    low = bdry[is_low]
    target = mesh.face_centroid[low].copy()
    target[np.arange(low.size), axis[is_low]] += period[axis[is_low]]
    keys = np.round(np.concatenate([mesh.face_centroid[bdry], target]) / quant)
    _, code = np.unique(keys.astype(np.int64), axis=0, return_inverse=True)
    code = code.ravel()
    face_of = np.full(code.size, -1)
    face_of[code[: bdry.size]] = bdry
    high = face_of[code[bdry.size :]]
    if np.any(high < 0):
        f = int(low[np.argmax(high < 0)])
        raise MeshError(
            f"no periodic partner for boundary face {f} "
            f"at {mesh.face_centroid[f]}"
        )
    a, b = mesh.face_area[low], mesh.face_area[high]
    bad = np.abs(b - a) > 1e-12 * np.maximum(a, b)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise MeshError(
            f"periodic faces {low[i]} and {high[i]} have mismatched areas"
        )
    covered = np.zeros(mesh.n_faces, dtype=bool)
    covered[low] = covered[high] = True
    unpaired = bdry[~covered[bdry]]
    if unpaired.size:
        raise MeshError(f"unpaired boundary faces: {unpaired[:5].tolist()}")
    return low, high


class Stepper:
    """Precomputed flux topology for one mesh / flux / boundary triple.

    The edges are the mesh-interior faces in face order (the first
    ``n_interior``), then on periodic meshes one edge per identified pair of
    boundary faces.  Their normal speeds b . n are computed once, here.

    ``stencil_states`` is the stepper's own (2, E) buffer, (4, E) for a
    three-point stencil: ``edge_fluxes(u)`` gathers u at ``edge_K``,
    ``edge_L`` (then ``edge_KK``, ``edge_LL``) into its rows with one
    ``take`` and hands the flux views of them.  So after a step of u^n the
    buffer holds u^n's stencil states until the next step, and
    ``interior_jumps`` hands the streamed seminorm their face jumps.
    """

    def __init__(self, mesh: Mesh, flux: NumericalFlux, boundary: str = "periodic"):
        if flux.dim != mesh.dim:
            raise ValueError(
                f"flux dimension {flux.dim} does not match mesh dimension {mesh.dim}"
            )
        self.mesh = mesh
        self.flux = flux

        int_ids = np.flatnonzero(mesh.interior)
        edge_faces = int_ids
        self.n_interior = int_ids.size
        self.edge_L = mesh.face_L[int_ids]
        if boundary == "periodic":
            # flux from the low face's cell through the identified face
            # towards the high face's cell, oriented by the low face's
            # outward normal
            low, high = _pair_periodic_faces(mesh)
            edge_faces = np.concatenate([int_ids, low])
            self.edge_L = np.concatenate([self.edge_L, mesh.face_K[high]])
            self.outflow_K = np.array([], dtype=int)
            self.outflow_area = np.array([])
            self.outflow_normal = np.zeros((0, mesh.dim))
        elif boundary == "outflow":
            bmask = ~mesh.interior
            self.outflow_K = mesh.face_K[bmask]
            self.outflow_area = mesh.face_area[bmask]
            self.outflow_normal = mesh.face_normal[bmask]
        else:
            raise ValueError(f"unknown boundary condition {boundary!r}")
        self.edge_K = mesh.face_K[edge_faces]
        self.edge_area = mesh.face_area[edge_faces]
        self.edge_bn = flux.flux.normal_speed(mesh.face_normal[edge_faces])

        self._scatter = np.concatenate([self.edge_K, self.edge_L, self.outflow_K])
        self._weights = np.empty(self._scatter.size)  # divergence's scratch

        stencil = [self.edge_K, self.edge_L]
        if flux.stencil == 3:
            self.edge_KK, self.edge_LL = far_neighbors(
                mesh, self.edge_K, self.edge_L, boundary == "periodic"
            )
            stencil += [self.edge_KK, self.edge_LL]
        else:
            self.edge_KK = None
            self.edge_LL = None
        self._stencil_ids = np.concatenate(stencil)
        # checked once, so that the per-step take may "clip", which with an
        # output buffer copies no temporary, and never clips
        if self._stencil_ids.size and not (
                0 <= self._stencil_ids.min()
                and self._stencil_ids.max() < mesh.n_cells):
            raise MeshError(f"an edge names a cell outside 0..{mesh.n_cells - 1}")
        self.stencil_states = np.empty((len(stencil), self.edge_K.size))
        self._flat_states = self.stencil_states.reshape(-1)
        self._rows = tuple(self.stencil_states)
        # the interior edges come first, in face order
        self._interior_rows = tuple(self.stencil_states[:2, :self.n_interior])

    def edge_fluxes(self, u: np.ndarray) -> np.ndarray:
        """The normal flux through every edge, from the states of u that
        this call gathers into ``stencil_states``."""
        u.take(self._stencil_ids, out=self._flat_states, mode="clip")
        if self.edge_KK is None:
            uK, uL = self._rows
            return self.flux.evaluate(uK, uL, self.edge_bn)
        uK, uL, uKK, uLL = self._rows
        return self.flux.evaluate(uK, uL, self.edge_bn, uKK=uKK, uLL=uLL)

    def interior_jumps(self, out: np.ndarray) -> np.ndarray:
        """Write u_K - u_L on the interior edges, in face order, into
        ``out``, from the states the last ``edge_fluxes`` call gathered."""
        uK, uL = self._interior_rows
        return np.subtract(uK, uL, out=out)

    def divergence(self, u: np.ndarray, fv: np.ndarray) -> np.ndarray:
        """Per-cell net outward flux sum_{sigma} |sigma| F_sigma . n_K, from
        the edge fluxes ``fv = edge_fluxes(u)``."""
        ne = fv.size
        weights = self._weights
        # two 1-d calls: one broadcast multiply into a (2, E) view of the
        # buffer was measured slower, by the cost of numpy's nd iterator
        flow = np.multiply(self.edge_area, fv, out=weights[:ne])
        np.negative(flow, out=weights[ne:2 * ne])
        if self.outflow_K.size:
            phys = self.flux.flux.value(u[self.outflow_K])
            bf = np.einsum("fd,fd->f", phys, self.outflow_normal)
            np.multiply(self.outflow_area, bf, out=weights[2 * ne:])
        # bincount adds in index order: each cell sums its K edges in edge
        # order, then its L edges, then its outflow faces
        return np.bincount(self._scatter, weights=weights,
                           minlength=self.mesh.n_cells)

    def step(self, u: np.ndarray, dt: float, fv: np.ndarray) -> np.ndarray:
        """u - dt * divergence(u, fv) / |K|, evaluated in that order in
        place on the fresh divergence array, which is returned."""
        out = self.divergence(u, fv)
        out *= dt
        out /= self.mesh.cell_volume
        return np.subtract(u, out, out=out)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def select_dt(mesh: Mesh, u: np.ndarray, flux: NumericalFlux, cfl: float,
              t_final: float) -> float:
    """CFL time step: cfl * min_K |K| / sum_{faces of K} |sigma| lambda_sigma.

    lambda_sigma is the flux's wave-speed bound between the adjacent states
    (the inside state alone on boundary faces).  The step is capped at
    t_final / N_MIN_STEPS, which is also the step when nothing moves.
    Raises ValueError when ``u`` does not hold one value per cell, when a
    wave speed is not finite, or when a cell's sum overflows so that the
    step is not positive.
    """
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    u = _cell_values(mesh, u)
    K = mesh.face_K
    L = np.where(mesh.face_L >= 0, mesh.face_L, mesh.face_K)
    lam = np.asarray(flux.wave_speed(u[K], u[L], mesh.face_normal), dtype=float)
    if not np.all(np.isfinite(lam)):
        f = int(np.argmax(~np.isfinite(lam)))
        raise ValueError(f"wave speed {lam[f]:g} of {flux.name!r} on face {f} "
                         f"is not finite")
    flow = mesh.face_area * lam
    # bincount adds in index order, K faces then L faces, as two
    # sequential np.add.at calls would
    per_cell = np.bincount(
        np.concatenate([K, mesh.face_L[mesh.interior]]),
        weights=np.concatenate([flow, flow[mesh.interior]]),
        minlength=mesh.n_cells)
    moving = per_cell > 0
    if not np.any(moving):
        return t_final / N_MIN_STEPS
    dt = cfl * float(np.min(mesh.cell_volume[moving] / per_cell[moving]))
    if not dt > 0:
        k = int(np.argmax(per_cell))
        raise ValueError(f"CFL step {dt!r} of {flux.name!r} is not positive: "
                         f"the wave-speed sum of cell {k} is {per_cell[k]:g}")
    return min(dt, t_final / N_MIN_STEPS)


def plan(mesh: Mesh, problem: Problem,
         cfl: float = 0.45) -> tuple[Stepper, TimeGrid, np.ndarray]:
    """The stepper, the uniform time grid and the initial cell means of a run.

    The CFL step from the initial data is shrunk to an integer divider of
    the horizon, so every step is identical and the final node lands on
    t_final exactly.
    """
    u0 = project_l1(mesh, problem.u0)
    dt0 = select_dt(mesh, u0, problem.flux, cfl, problem.t_final)
    n_steps = max(1, int(math.ceil(problem.t_final / dt0 - 1e-12)))
    grid = TimeGrid.uniform(problem.t_final, n_steps)
    return Stepper(mesh, problem.flux, problem.boundary), grid, u0


def march(stp: Stepper, grid: TimeGrid, u0: np.ndarray,
          on_step: Callable) -> tuple[float, float]:
    """The time loop: step ``u0`` over every slab of ``grid``.

    Every step has the length t_final / n_steps, so ``grid`` must be
    ``TimeGrid.uniform(t_final, n_steps)`` node for node; any other grid
    raises ValueError.  After step n it calls ``on_step(n, u^n, u^{n+1},
    fv)`` with ``fv`` the edge fluxes the step used (aligned with the
    stepper's edges, interior faces first); ``stp.stencil_states`` then
    holds u^n's stencil states, until the next step gathers u^{n+1}'s.
    Returns the min and max of u over every time node.  Raises BlowUpError if any cell value exceeds 1e6
    times the initial sup bound.  For a monotone flux it raises InvariantViolation, naming the
    step and the cell, when a state leaves [min u^0, max u^0] by more than
    MAX_PRINCIPLE_SLACK times max |u^0|: under the CFL condition every
    update is then a convex combination of old states, so a state outside
    the initial range means the step was too long.
    """
    dt = grid.t_final / grid.n_steps
    if not np.array_equal(grid.nodes,
                          TimeGrid.uniform(grid.t_final, grid.n_steps).nodes):
        raise ValueError(
            f"march takes uniform time grids only: every step is t_final / "
            f"n_steps = {dt:.6g}, but the slabs of this grid range from "
            f"{grid.deltas.min():.6g} to {grid.dt_max:.6g}")
    lo, hi = float(np.min(u0)), float(np.max(u0))
    sup0 = max(-lo, hi)
    guard = BLOWUP_FACTOR * (sup0 if sup0 > 0 else 1.0)
    monotone = stp.flux.monotone
    slack = MAX_PRINCIPLE_SLACK * sup0
    floor, ceil = lo - slack, hi + slack
    u = u0
    for n in range(grid.n_steps):
        fv = stp.edge_fluxes(u)
        u_next = stp.step(u, dt, fv)
        # min and max catch NaN (comparisons with it are false) and inf
        lo_n = float(np.minimum.reduce(u_next))
        hi_n = float(np.maximum.reduce(u_next))
        if not (-guard <= lo_n and hi_n <= guard):
            bad = int(np.argmax(np.abs(np.where(np.isfinite(u_next), u_next, np.inf))))
            raise BlowUpError(
                f"solution escaped the guard {guard:.3e} at step {n + 1} "
                f"(cell {bad})"
            )
        if monotone and not (floor <= lo_n and hi_n <= ceil):
            bad = int(np.argmin(u_next) if lo_n < floor else np.argmax(u_next))
            raise InvariantViolation(
                f"maximum principle broken at step {n + 1} (cell {bad}): "
                f"u = {u_next[bad]:.17g} outside the initial range "
                f"[{np.min(u0):.17g}, {np.max(u0):.17g}] of the monotone flux "
                f"{stp.flux.name!r}, so the step breaks the CFL condition"
            )
        lo, hi = min(lo, lo_n), max(hi, hi_n)
        on_step(n, u, u_next, fv)
        u = u_next
    return lo, hi


def solve(mesh: Mesh, problem: Problem, cfl: float = 0.45) -> SpaceTimeField:
    """March the scheme to exactly t = t_final and keep the full history.

    ``plan`` picks the time grid and ``march`` runs the steps; see both.
    """
    stp, grid, u0 = plan(mesh, problem, cfl)
    history = np.empty((grid.n_steps + 1, mesh.n_cells))
    history[0] = u0

    def record(n, u, u_next, fv):
        history[n + 1] = u_next

    march(stp, grid, u0, record)
    return SpaceTimeField(mesh=mesh, grid=grid, values=history,
                          boundary=problem.boundary, flux=problem.flux)


# ---------------------------------------------------------------------------
# history files: one .npy array (numpy's own format, no pickle)
# ---------------------------------------------------------------------------

_READ_BYTES = 1 << 20  # size of the blocks read_history reads


def solve_to_file(mesh: Mesh, problem: Problem, path,
                  cfl: float = 0.45) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """``solve`` that streams the history to ``path`` as it marches and
    returns the grid, u^0 and u^N.  The file is one float64 ``.npy`` array
    (N + 1, 1 + cells) whose row n is t_n then u^n, byte for byte what
    ``np.save`` of the whole table writes, and appears once complete."""
    stp, grid, u0 = plan(mesh, problem, cfl)
    final = [u0]
    with open_file(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.dtype(np.float64).str, "fortran_order": False,
            "shape": (grid.n_steps + 1, 1 + mesh.n_cells)})
        fh.write(grid.nodes[:1])
        fh.write(u0)

        def write_row(n, u, u_next, fv):
            fh.write(grid.nodes[n + 1:n + 2])
            fh.write(u_next)
            final[0] = u_next

        march(stp, grid, u0, write_row)
    return grid, u0, final[0]


def _lowest_bad_row(finite: np.ndarray, bad: int, first_row: int = 0) -> int:
    """The lower of ``bad`` and the first row whose entry of ``finite`` is
    False, the entries counting rows from ``first_row``."""
    return bad if finite.all() else min(bad, first_row + int(np.argmin(finite)))


def read_history(path) -> tuple[TimeGrid, np.ndarray]:
    """Inverse of solve_to_file: the time grid and the states, as arrays of
    their own, from a path.  ``np.load`` maps the file only for its header
    and size; the times and the states are then read from the header's
    offset straight into their arrays, a row block of about 1 MB at a time
    (a Fortran-order table: the time column, then a block of about 1 MB of
    cell columns at a time), so the states are held once, and each block is
    checked for finiteness as it lands.
    Raises ValueError on an ``lwfv-history v1`` text file, on an empty or
    cut header, on a file shorter than its header says (the map finds it
    before allocating, a read that comes up short after it), on anything
    but a 2-d float64 array of at least two rows and two columns (pickled
    data is never unpickled), on a non-finite time or state, naming the
    row, and on times that ``TimeGrid`` refuses."""
    with open(path, "rb") as fh:
        if fh.read(8) == b"lwfv-his":
            raise ValueError("lwfv-history v1 text files are no longer read: "
                             "rerun lwfv solve to write history.npy")
    cannot = f"history file '{path}' cannot be read"
    short = "it is shorter than its header says"
    try:
        table = np.load(path, mmap_mode="r", allow_pickle=False)
    except (EOFError, ValueError) as e:
        why = short if "greater than file size" in str(e) else e
        raise ValueError(f"{cannot}: {why}") from None
    if table.dtype != np.float64 or table.ndim != 2 or min(table.shape) < 2:
        raise ValueError(f"a history is a 2-d float64 array of at least "
                         f"two rows and two columns, got {table.dtype} "
                         f"{table.shape}")
    (n_rows, width), offset = table.shape, table.offset
    fortran = not table.flags.c_contiguous
    del table  # unmapped with none of its pages read
    nodes = np.empty(n_rows)
    states = np.empty((n_rows, width - 1), order="F" if fortran else "C")

    def read_into(fh, arr):
        if fh.readinto(arr) != arr.nbytes:
            raise ValueError(f"{cannot}: {short}")

    # the lowest row holding a non-finite time or state, checked a block
    # at a time as it lands and reported once the whole file is read
    bad = n_rows
    with open(path, "rb") as fh:
        fh.seek(offset)
        if fortran:  # the time column, then a block of cell columns at a time
            read_into(fh, nodes)
            bad = _lowest_bad_row(np.isfinite(nodes), bad)
            block = max(1, _READ_BYTES // (8 * n_rows))
            for c0 in range(0, width - 1, block):
                part = states.T[c0:c0 + block]
                read_into(fh, part)
                bad = _lowest_bad_row(np.isfinite(part).all(axis=0), bad)
        else:  # rows t_n, u^n
            block = max(1, _READ_BYTES // (8 * width))
            buf = np.empty((min(block, n_rows), width))
            for r0 in range(0, n_rows, block):
                part = buf[:min(block, n_rows - r0)]
                read_into(fh, part)
                bad = _lowest_bad_row(np.isfinite(part).all(axis=1), bad, r0)
                nodes[r0:r0 + len(part)] = part[:, 0]
                states[r0:r0 + len(part)] = part[:, 1:]
    if bad < n_rows:
        raise ValueError(f"history row {bad} holds a time or "
                         f"a state that is not finite")
    return TimeGrid(nodes=nodes), states
