"""Exactness checks for the cell quadrature rules.

Expected values are closed-form monomial integrals, written out as exact
fractions in the asserts.
"""
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from lwfv.quadrature import cell_rule, gauss_legendre, rowdot, triangle_rule


def _apply(rule, fn):
    """Integral over the single cell of a one-cell batch."""
    pts, w = rule
    return float(w[0] @ fn(pts[0]))


@pytest.mark.parametrize("npts", [4, 6])
def test_gauss_legendre_is_leggauss_computed_once_and_read_only(npts):
    x, w = gauss_legendre(npts)
    want_x, want_w = leggauss(npts)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert gauss_legendre(npts)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_legendre_refuses_an_order_outside_its_table():
    # only the cell rule's 4 points and the time slab's 6 are tabulated
    for npts in (1, 5, 7):
        with pytest.raises(KeyError):
            gauss_legendre(npts)


def test_interval_rule_polynomial_exactness():
    verts = np.array([[0.25], [0.75]])
    # int_{1/4}^{3/4} x^5 dx = (0.75^6 - 0.25^6)/6
    exact = (0.75**6 - 0.25**6) / 6.0
    got = _apply(cell_rule(verts[None]), lambda p: p[:, 0] ** 5)
    assert got == pytest.approx(exact, rel=1e-14)


def test_rectangle_rule_tensor_exactness():
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.25], [0.0, 0.25]])
    # int x^3 y^2 over [0,1/2]x[0,1/4] = (1/64)(1/192) / ... = (0.5^4/4)(0.25^3/3)
    exact = (0.5**4 / 4.0) * (0.25**3 / 3.0)
    got = _apply(cell_rule(verts[None]), lambda p: p[:, 0] ** 3 * p[:, 1] ** 2)
    assert got == pytest.approx(exact, rel=1e-14)


def test_triangle_rule_degree_five():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # int over unit simplex of x^a y^b = a! b! / (a+b+2)!
    import math

    for a, b in [(0, 0), (1, 0), (2, 1), (3, 2), (5, 0), (2, 3)]:
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        got = _apply(triangle_rule(verts[None]), lambda p: p[:, 0] ** a * p[:, 1] ** b)
        assert got == pytest.approx(exact, rel=1e-13), (a, b)


def test_triangle_rule_affine_invariance():
    # same polynomial integrated over a mapped triangle must match the
    # change-of-variables value
    verts = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    pts, w = triangle_rule(verts[None])
    area = float(np.sum(w))
    v0, v1, v2 = verts
    exact_area = 0.5 * abs(
        (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    )
    assert area == pytest.approx(exact_area, rel=1e-14)
    got = _apply((pts, w), lambda p: p[:, 0] + 2.0 * p[:, 1])
    centroid = verts.mean(axis=0)
    assert got == pytest.approx(exact_area * (centroid[0] + 2.0 * centroid[1]), rel=1e-13)


@pytest.mark.parametrize("verts", [
    np.array([[[0.0], [0.3]], [[0.3], [0.45]], [[0.45], [1.0]]]),
    np.array([[[0.0, 0.0], [0.5, 0.0], [0.5, 0.25], [0.0, 0.25]],
              [[0.5, 0.25], [1.0, 0.25], [1.0, 1.0], [0.5, 1.0]]]),
    np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
              [[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]]]),
])
def test_batched_rules_treat_every_cell_alone(verts):
    # row i of a batch is exactly the rule of cell i on its own
    pts, w = cell_rule(verts)
    for i in range(len(verts)):
        p1, w1 = cell_rule(verts[i : i + 1])
        assert np.array_equal(pts[i], p1[0]) and np.array_equal(w[i], w1[0])


@pytest.mark.parametrize("npts", [6, 7, 16])
def test_rowdot_sums_a_row_alike_alone_in_a_batch_and_strided(npts):
    # the fixed order is per row: neither the batch around a row, nor the
    # layout of its operands, nor weights broadcast over a column axis may
    # change its bits
    rng = np.random.default_rng(npts)
    w, vals = rng.random((50, npts)), rng.standard_normal((50, npts, 2))
    columns = rowdot(w[:, None], np.moveaxis(vals, -1, 1))  # (50, 2)
    assert np.allclose(columns, np.sum(w[:, :, None] * vals, axis=1), rtol=1e-13)
    for k in range(2):
        contiguous = np.ascontiguousarray(vals[..., k])
        assert rowdot(w, contiguous).tobytes() == columns[:, k].tobytes()
        assert rowdot(w, vals[..., k]).tobytes() == columns[:, k].tobytes()
        assert rowdot(np.asfortranarray(w), contiguous).tobytes() == columns[:, k].tobytes()
        for i in (0, 17, 49):
            assert rowdot(w[i], contiguous[i]) == columns[i, k]
