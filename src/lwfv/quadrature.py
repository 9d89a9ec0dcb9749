"""Deterministic quadrature rules used for cell means and reference integrals.

All rules return (points, weights) with weights summing to the measure of the
integration domain, so ``rowdot(weights, f(points))`` approximates the
integral.  No rule and no sum here calls BLAS.

The two Gauss-Legendre rules lwfv uses, 4 points per cell axis and 6 per
time slab, are a table of the doubles that numpy's
``numpy.polynomial.legendre.leggauss`` returns, so ``import lwfv`` loads no
``numpy.polynomial``; a test compares them with ``leggauss`` byte for byte.
"""
from __future__ import annotations

import math

import numpy as np

GAUSS_ORDER = 4  # points per axis of the interval and rectangle cell rules

# Degree-5 rule on the reference triangle (7 points: centroid plus two
# three-point orbits).  Barycentric coordinates and weights as fractions of
# the triangle area.
_SQRT15 = math.sqrt(15.0)
_TRI_A = (6.0 - _SQRT15) / 21.0
_TRI_B = (6.0 + _SQRT15) / 21.0
_TRI_WA = (155.0 - _SQRT15) / 1200.0
_TRI_WB = (155.0 + _SQRT15) / 1200.0

_TRI_BARY = np.array([[1 / 3, 1 / 3, 1 / 3]] + [
    orbit for a in (_TRI_A, _TRI_B)
    for orbit in ([a, a, 1 - 2 * a], [a, 1 - 2 * a, a], [1 - 2 * a, a, a])])
_TRI_WEIGHTS = np.array([9 / 40, *[_TRI_WA] * 3, *[_TRI_WB] * 3])


def _read_only(*values: float) -> np.ndarray:
    """A read-only array of ``values``: the table's arrays are shared."""
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


# nodes and weights on [-1, 1] by number of points: leggauss(4) for the cell
# rules (GAUSS_ORDER), leggauss(6) for the time slabs of the weak gap
_GAUSS_LEGENDRE = {
    4: (_read_only(-0.8611363115940526, -0.33998104358485626,
                   0.33998104358485626, 0.8611363115940526),
        _read_only(0.34785484513745357, 0.6521451548625464,
                   0.6521451548625464, 0.34785484513745357)),
    6: (_read_only(-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                   0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        _read_only(0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                   0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
}


def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the ``npts``-point rule, 4 or 6; any
    other ``npts`` raises KeyError.  Every caller shares the table's arrays,
    so they are read-only."""
    return _GAUSS_LEGENDRE[npts]


def rowdot(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sums of ``w * vals`` over the last axis (a rule's points), with ``w``
    broadcast against ``vals``: every weighted quadrature sum of lwfv.  Each
    row is summed in one fixed order, numpy's einsum loop over a C-contiguous
    row, which calls no BLAS and is built for numpy's baseline instruction
    set; so a row sums to the same bits alone or in any batch, on every CPU.
    Strided operands are copied, as einsum sums strided rows in another order."""
    return np.einsum("...q,...q->...", np.ascontiguousarray(w), np.ascontiguousarray(vals))


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
    """Degree-5 rule on every triangle of ``verts`` (n, 3, 2).  A point is
    b0 v0 + b1 v1 + b2 v2, summed in that order, and stored point-major."""
    v0, v1, v2 = (np.ascontiguousarray(verts[:, i], dtype=float) for i in range(3))
    area = 0.5 * np.abs((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
                        - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1]))
    pts = np.empty((len(_TRI_BARY),) + v0.shape)
    for p, (b0, b1, b2) in zip(pts, _TRI_BARY):
        p[:] = b0 * v0
        p += b1 * v1
        p += b2 * v2
    return pts.transpose(1, 0, 2), _TRI_WEIGHTS * area[:, None]


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
