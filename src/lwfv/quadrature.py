"""Deterministic quadrature rules used for cell means and reference integrals.

All rules return (points, weights) with weights summing to the measure of the
integration domain, so ``weights @ f(points)`` approximates the integral and
``weights @ f(points) / measure`` the mean.
"""
from __future__ import annotations

import functools
import math

import numpy as np
# numpy imports numpy.polynomial lazily; here it loads with this module
# rather than inside the first call that needs a rule
from numpy.polynomial import legendre

GAUSS_ORDER = 4  # points per axis of the interval and rectangle cell rules

# Degree-5 rule on the reference triangle (7 points: centroid plus two
# three-point orbits).  Barycentric coordinates and weights as fractions of
# the triangle area.
_SQRT15 = math.sqrt(15.0)
_TRI_A = (6.0 - _SQRT15) / 21.0
_TRI_B = (6.0 + _SQRT15) / 21.0
_TRI_WA = (155.0 - _SQRT15) / 1200.0
_TRI_WB = (155.0 + _SQRT15) / 1200.0
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_TRI_A, _TRI_A, 1 - 2 * _TRI_A],
        [_TRI_A, 1 - 2 * _TRI_A, _TRI_A],
        [1 - 2 * _TRI_A, _TRI_A, _TRI_A],
        [_TRI_B, _TRI_B, 1 - 2 * _TRI_B],
        [_TRI_B, 1 - 2 * _TRI_B, _TRI_B],
        [1 - 2 * _TRI_B, _TRI_B, _TRI_B],
    ]
)
_TRI_WEIGHTS = np.array([9 / 40, _TRI_WA, _TRI_WA, _TRI_WA, _TRI_WB, _TRI_WB, _TRI_WB])


@functools.cache
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], computed once per ``npts`` (each rule
    is an eigenvalue solve).  Every caller shares the cached arrays, so they
    are read-only."""
    x, w = legendre.leggauss(npts)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def rowdot(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-cell sums w[i] . vals[i] of a batched rule's weights (n_cells,
    n_points) against values at its points; each row is one BLAS dot, equal
    to a dot over that cell alone on OpenBLAS's SkylakeX kernel but not under
    OPENBLAS_CORETYPE=Prescott (ROADMAP direction 11)."""
    return (w[:, None, :] @ vals[:, :, None])[:, 0, 0]


def interval_rule(a: np.ndarray, b: np.ndarray, npts: int):
    """Gauss rule on every interval [a[i], b[i]]."""
    x, w = gauss_legendre(npts)
    half = 0.5 * (b - a)[:, None]
    pts = a[:, None] + half * (x + 1.0)
    return pts[:, :, None], w * half


def _rectangle_rule(lo: np.ndarray, hi: np.ndarray, npts: int):
    """Tensor Gauss rule on every axis-aligned rectangle [lo[i], hi[i]]."""
    x, w = gauss_legendre(npts)
    half = 0.5 * (hi - lo)  # (n, 2)
    ax = lo[:, :, None] + half[:, :, None] * (x + 1.0)  # (n, 2, npts)
    aw = w * half[:, :, None]
    n = lo.shape[0]
    pts = np.stack([np.repeat(ax[:, 0], npts, axis=1),
                    np.tile(ax[:, 1], npts)], axis=-1)
    wts = (aw[:, 0, :, None] * aw[:, 1, None, :]).reshape(n, npts * npts)
    return pts, wts


def triangle_rule(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree-5 rule on every triangle of ``verts`` (n, 3, 2)."""
    verts = np.asarray(verts, dtype=float)
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
    area = 0.5 * np.abs((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
                        - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1]))
    return _TRI_BARY @ verts, _TRI_WEIGHTS * area[:, None]


def cell_rule(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature over every cell of a batch of vertex arrays.

    ``verts`` is (n_cells, n_vertices, d); the result is points (n_cells,
    n_points, d) and weights (n_cells, n_points).  Intervals and
    axis-aligned rectangles get tensor Gauss rules of GAUSS_ORDER points per
    axis; triangles get the degree-5 rule.
    """
    verts = np.asarray(verts, dtype=float)
    if verts.shape[2] == 1:
        return interval_rule(verts.min(axis=1)[:, 0], verts.max(axis=1)[:, 0], GAUSS_ORDER)
    if verts.shape[1] == 3:
        return triangle_rule(verts)
    if verts.shape[1] == 4:
        return _rectangle_rule(verts.min(axis=1), verts.max(axis=1), GAUSS_ORDER)
    raise ValueError(f"unsupported cell geometry with {verts.shape[1]} vertices")
