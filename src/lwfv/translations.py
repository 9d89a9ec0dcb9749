"""L1 projections and translation seminorms.

A cell field is an (n_cells,) array of cell values u_K on a mesh.  Its
translation seminorm weights each interior face jump by the dual-volume
measure: T(u) = sum_sigma |D_sigma| |u_K - u_L|.  It is controlled both by
the L1 norm of the field (via the mesh regularity parameters) and, for
projections of Lipschitz data, by the mesh size, which is what makes
families of discrete solutions translation-compact.  The space-time
variant adds time jumps weighted by cell measures; ``consistency`` sums it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .mesh import Mesh, MeshFamily, _blocks, compute_quality, refine
from .operators import InvariantViolation

__all__ = [
    "IntegrableFunction",
    "interval_indicator",
    "smooth_function",
    "project_l1",
    "translation_seminorm",
    "SpacetimeSeminorm",
    "translation_decay_study",
    "DecayRow",
    "uniform_decay_study",
    "UniformDecayResult",
]

@dataclass(frozen=True)
class IntegrableFunction:
    """A scalar function of space with projection metadata.

    ``fn`` is the whole function.  Data with an ``interval`` [a, b] (1d
    only) are the indicator of [a, b] plus a smooth remainder fn - 1_[a,b]:
    cell means take the indicator's part exactly and the remainder, like
    all of data without an interval, by the Gauss cell rule.  ``lipschitz``
    and ``l1_norm`` are optional declared constants consumed by the
    seminorm bounds.
    """

    fn: Callable
    lipschitz: float | None = None
    l1_norm: float | None = None
    name: str = ""
    interval: tuple[float, float] | None = None


def smooth_function(fn: Callable, lipschitz: float | None = None,
                    name: str = "") -> IntegrableFunction:
    return IntegrableFunction(fn=fn, lipschitz=lipschitz, name=name)


def _indicator(x, interval: tuple[float, float]) -> np.ndarray:
    """1_[a,b] at the points x (..., 1)."""
    a, b = interval
    x = np.asarray(x, dtype=float)[..., 0]
    return ((x >= a) & (x <= b)).astype(float)


def interval_indicator(a: float, b: float, name: str = "") -> IntegrableFunction:
    """Indicator of [a, b] on a 1d domain; projected by exact intersection."""
    if not b > a:
        raise ValueError("empty interval")
    return IntegrableFunction(
        fn=lambda x: _indicator(x, (a, b)), l1_norm=b - a,
        name=name or f"indicator[{a},{b}]", interval=(a, b),
    )


def _interval_part(verts: np.ndarray, u: IntegrableFunction):
    """The part [lo, hi] of each cell of the batch inside the interval of u
    (empty where lo >= hi).  Raises ValueError on cells that are not
    intervals: interval data are 1d only."""
    if verts.shape[2] != 1:
        raise ValueError(f"interval datum {u.name!r} is 1d only, "
                         f"the cells are {verts.shape[2]}d")
    a, b = u.interval
    return (np.maximum(verts.min(axis=1)[:, 0], a),
            np.minimum(verts.max(axis=1)[:, 0], b))


def _remainder(u: IntegrableFunction, pts: np.ndarray) -> np.ndarray:
    """u less the indicator of its interval at the points: all of u for data
    without one, exactly 0.0 for a plain ``interval_indicator``."""
    vals = np.asarray(u.fn(pts), dtype=float)
    if u.interval is None:
        return vals
    return vals - _indicator(pts, u.interval)


def _part_rule(verts: np.ndarray, u: IntegrableFunction):
    """A Gauss rule on each cell's part inside the interval of u:
    ``(rows, pts, w)``, with the cells that meet it as ``rows``."""
    lo, hi = _interval_part(verts, u)
    rows = np.flatnonzero(hi > lo)
    pts, w = quadrature.interval_rule(lo[rows], hi[rows], quadrature.GAUSS_ORDER)
    return rows, pts, w


def _cell_integrals(verts: np.ndarray, u: IntegrableFunction) -> np.ndarray:
    """Integral of u over every cell of a vertex batch (n_cells, n_vertices,
    d): the Gauss cell rule on the remainder of u, plus the length of
    K ∩ [a, b] for the indicator of its interval."""
    pts, w = quadrature.cell_rule(verts)
    rest = quadrature.rowdot(w, _remainder(u, pts))
    if u.interval is None:
        return rest
    lo, hi = _interval_part(verts, u)
    return np.maximum(0.0, hi - lo) + rest


def project_l1(mesh: Mesh, u: IntegrableFunction) -> np.ndarray:
    """The (n_cells,) cell means of u.

    Smooth data, and the smooth remainder of interval data, use Gauss
    quadrature exact to degree 2 * GAUSS_ORDER - 1 on intervals and
    rectangles (degree 5 on triangles); the indicator part of interval data,
    which are 1d only, is the exact length of each cell's intersection with
    the interval, and interval data raise ValueError on a 2d mesh.  The
    cells are integrated a block of ``BLOCK_ROWS`` (:mod:`lwfv.mesh`) at a
    time, and u is called on one block's points.
    """
    means = np.empty(mesh.n_cells)
    for s in _blocks(mesh.n_cells):
        means[s] = _cell_integrals(mesh.cell_vertices[s], u) / mesh.cell_volume[s]
    return means


def _cell_values(mesh: Mesh, values) -> np.ndarray:
    """``values`` as floats; a ValueError unless one per cell of ``mesh``."""
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_cells,):
        raise ValueError(f"expected {mesh.n_cells} cell values, got shape {v.shape}")
    return v


def _interior_jumps(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """u_K - u_L on the interior faces in face order, for stored states
    ``values`` (..., n_cells)."""
    mask = mesh.interior
    return np.subtract(values.take(mesh.face_K[mask], axis=-1),
                       values.take(mesh.face_L[mask], axis=-1))


def translation_seminorm(mesh: Mesh, values: np.ndarray) -> float:
    """Sum over interior faces of |D_sigma| |u_K - u_L|, for the
    (n_cells,) cell values ``values``."""
    jumps = np.abs(_interior_jumps(mesh, _cell_values(mesh, values)))
    return float(np.dot(mesh.face_dsig[mesh.interior], jumps))


@dataclass(frozen=True)
class SpacetimeSeminorm:
    space_part: float
    time_part: float


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayRow:
    level: int
    h: float
    T_value: float
    bound_lipschitz: float
    bound_l1: float


def translation_decay_study(family: MeshFamily, u: IntegrableFunction,
                            levels: int) -> list[DecayRow]:
    """T(u) under refinement with its two upper bounds per level.

    The Lipschitz bound 2 * M h |Omega| applies when u declares a Lipschitz
    constant (reported as nan otherwise) and is asserted; the L1 bound
    N_E * theta * |u|_L1 always applies and is asserted.
    """
    meshes = refine(family, levels)
    rows: list[DecayRow] = []
    for lvl, mesh in enumerate(meshes):
        qual = compute_quality(mesh)
        values = project_l1(mesh, u)
        t_val = translation_seminorm(mesh, values)
        l1 = (u.l1_norm if u.l1_norm is not None
              else float(np.dot(mesh.cell_volume, np.abs(values))))
        bound_l1 = qual.n_faces_max * qual.theta * l1
        if not t_val <= bound_l1 * (1.0 + 1e-9):
            raise InvariantViolation(
                f"family {family.name!r}, level {lvl}: T = {t_val:.6e} "
                f"exceeds L1 bound {bound_l1:.6e}"
            )
        if u.lipschitz is not None:
            bound_lip = 2.0 * u.lipschitz * mesh.h_max * mesh.domain_measure
            if not t_val <= bound_lip * (1.0 + 1e-9):
                raise InvariantViolation(
                    f"family {family.name!r}, level {lvl}: T = {t_val:.6e} "
                    f"exceeds Lipschitz bound {bound_lip:.6e}"
                )
        else:
            bound_lip = math.nan
        rows.append(
            DecayRow(level=lvl, h=mesh.h_max, T_value=t_val,
                     bound_lipschitz=bound_lip, bound_l1=bound_l1)
        )
    return rows


@dataclass(frozen=True)
class UniformDecayResult:
    """Seminorm matrix of a converging sequence: rows by level, columns by
    sequence index, plus the limit column."""

    levels: list[int]
    hs: list[float]
    matrix: np.ndarray  # (levels, len(sequence))
    limit_column: np.ndarray  # (levels,)


def uniform_decay_study(
    family: MeshFamily,
    sequence: Sequence[IntegrableFunction],
    limit: IntegrableFunction,
    levels: int,
    deltas_l1: Sequence[float],
) -> UniformDecayResult:
    """Translation seminorms of a whole converging sequence under refinement.

    ``deltas_l1`` gives the L1 distances |u_p - limit|, and the uniform
    bound T(u_p) <= N_E * theta * |u_p - limit|_L1 + T(limit) is asserted
    for every level and index (with 1e-9 relative slack).
    """
    meshes = refine(family, levels)
    mat = np.zeros((levels, len(sequence)))
    lim_col = np.zeros(levels)
    hs = []
    for lvl, mesh in enumerate(meshes):
        qual = compute_quality(mesh)
        lim_col[lvl] = translation_seminorm(mesh, project_l1(mesh, limit))
        for p, u_p in enumerate(sequence):
            mat[lvl, p] = translation_seminorm(mesh, project_l1(mesh, u_p))
            bound = qual.n_faces_max * qual.theta * deltas_l1[p] + lim_col[lvl]
            if not mat[lvl, p] <= bound * (1.0 + 1e-9):
                raise InvariantViolation(
                    f"family {family.name!r}, level {lvl}: T[{lvl}][{p}] = "
                    f"{mat[lvl, p]:.6e} exceeds uniform bound {bound:.6e}"
                )
        hs.append(mesh.h_max)
    return UniformDecayResult(
        levels=list(range(levels)),
        hs=hs,
        matrix=mat,
        limit_column=lim_col,
    )
