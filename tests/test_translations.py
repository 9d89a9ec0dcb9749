"""L1 projections, the dual-weighted jump seminorm, and decay studies.

The indicator example is exact rational arithmetic; the space-time value
is a hand sum over a 4-cell, 2-slab grid (worked in oracles.py terms).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwfv import (
    IntegrableFunction,
    InvariantViolation,
    cartesian_2d_family,
    interval_indicator,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    polynomial_bump,
    project_l1,
    smooth_function,
    uniform_1d_family,
)
from lwfv import mesh as mesh_module
from lwfv.consistency import _SeminormSums
from lwfv.operators import TimeGrid
from lwfv.translations import (
    _cell_integrals,
    translation_decay_study,
    translation_seminorm,
    uniform_decay_study,
)

from oracles import (
    brute_jump_seminorm,
    brute_spacetime_seminorm,
    cell_edges_1d,
    dense_cell_means_1d,
    indicator_cell_means,
    sorted_cell_order,
)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_indicator_projection_exact_rational():
    m = uniform_1d_family(10).build(0)
    f = project_l1(m, interval_indicator(0.25, 0.65))
    lo, hi = cell_edges_1d(m)
    expect = [float(v) for v in indicator_cell_means(lo, hi, 0.25, 0.65)]
    order = sorted_cell_order(m)
    assert np.allclose(f[order], expect, rtol=0, atol=1e-12)
    # interior overlap cells sit exactly at 1/2
    assert f[order][2] == pytest.approx(0.5, abs=1e-12)


def test_smooth_projection_matches_dense_midpoint_means():
    m = uniform_1d_family(10).build(2)
    sine = smooth_function(
        lambda x: np.sin(2 * np.pi * x[..., 0]), lipschitz=2 * np.pi, name="sine"
    )
    f = project_l1(m, sine)
    lo, hi = cell_edges_1d(m)
    dense = dense_cell_means_1d(np.append(lo, hi[-1]), lambda x: np.sin(2 * np.pi * x),
                                nsub=512)
    assert np.max(np.abs(f - dense)) <= 1e-8


@pytest.mark.parametrize("name, level, datum", [
    ("uniform-1d", 9, "sine_datum_1d"),
    ("nonuniform-1d", 9, "indicator"),
    ("uniform-1d", 9, "indicator-plus-cosine"),
    ("cartesian-2d", 4, "sine_datum_2d"),
    ("triangular-2d", 4, "sine_datum_2d"),
])
def test_blocked_projection_is_the_whole_mesh_projection(families, request, name,
                                                         level, datum):
    m = families[name].build(level)
    assert m.n_cells > mesh_module.BLOCK_ROWS
    if datum == "indicator":
        u = interval_indicator(0.25, 0.65)
    elif datum == "indicator-plus-cosine":
        u = IntegrableFunction(
            fn=lambda x: np.cos(3.0 * x[..., 0]) + ((x[..., 0] >= 0.3) & (x[..., 0] <= 0.71)),
            interval=(0.3, 0.71))
    else:
        u = request.getfixturevalue(datum)
    whole = _cell_integrals(m.cell_vertices, u) / m.cell_volume
    assert project_l1(m, u).tobytes() == whole.tobytes()


@pytest.mark.parametrize("family", [cartesian_2d_family(4),
                                    perturbed_triangular_2d_family(4)],
                         ids=["cartesian", "triangular"])
def test_projection_of_indicator_on_2d_meshes_raises(family):
    # indicator data are 1d only: the exact intersection reads a cell's x
    # extent alone, which on level 0 of the triangulation means cell means
    # up to 11.4 and a mass of 4.3 where the true mass is 0.5
    with pytest.raises(ValueError, match="1d only"):
        project_l1(family.build(0), interval_indicator(0.2, 0.7))


# ---------------------------------------------------------------------------
# seminorms against brute-force loops
# ---------------------------------------------------------------------------


def test_translation_seminorm_indicator_hand_value():
    # means 0,0,1/2,1,1,1,1/2,0,0,0; four jumps of 1/2 against interior
    # dual measure h = 0.1 each: T = 0.1 * 2 = 0.2
    m = uniform_1d_family(10).build(0)
    f = project_l1(m, interval_indicator(0.25, 0.65))
    T = translation_seminorm(m, f)
    assert T == pytest.approx(0.2, rel=1e-12)
    assert T == pytest.approx(brute_jump_seminorm(m, f), rel=1e-14)


def test_translation_seminorm_matches_brute_on_2d():
    m = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1)
    rng = np.random.default_rng(5)
    f = rng.uniform(-1.0, 1.0, m.n_cells)
    assert translation_seminorm(m, f) == pytest.approx(
        brute_jump_seminorm(m, f), rel=1e-13
    )


@pytest.mark.parametrize("size", [9, 11])
def test_translation_seminorm_rejects_an_array_of_another_length(size):
    # a longer array would be read silently, a shorter one fail on an index
    m = uniform_1d_family(10).build(0)
    with pytest.raises(ValueError, match=f"expected 10 cell values, got shape \\({size},\\)"):
        translation_seminorm(m, np.zeros(size))


def test_spacetime_seminorm_hand_value():
    m = uniform_1d_family(4).build(0)
    order = sorted_cell_order(m)
    vals_sorted = np.array([[0, 1, 0, 2], [1, 1, 2, 2], [0, 3, 2, 1.0]])
    vals = np.empty_like(vals_sorted)
    vals[:, order] = vals_sorted
    grid = TimeGrid(nodes=np.array([0.0, 0.2, 0.5]))
    jumps = vals[:-1, m.face_K[m.interior]] - vals[:-1, m.face_L[m.interior]]
    sums = _SeminormSums(m, grid)
    sums.block(0, vals[:-1], np.diff(vals, axis=0), None, jumps)
    sn = sums.result()
    # hand: space = 0.2*(1/4)*4 + 0.3*(1/4)*... = 11/40, time = 9/40
    assert sn.space_part == pytest.approx(0.275, rel=1e-13)
    assert sn.time_part == pytest.approx(0.225, rel=1e-13)
    bs, bt = brute_spacetime_seminorm(m, np.diff(grid.nodes), vals)
    assert sn.space_part == pytest.approx(bs, rel=1e-14)
    assert sn.time_part == pytest.approx(bt, rel=1e-14)


# ---------------------------------------------------------------------------
# decay studies
# ---------------------------------------------------------------------------


def test_decay_study_bounds_and_halving():
    fam = uniform_1d_family(10)
    sine = smooth_function(
        lambda x: np.sin(2 * np.pi * x[..., 0]), lipschitz=2 * np.pi, name="sine"
    )
    rows = translation_decay_study(fam, sine, 4)
    for r in rows:
        # Lipschitz datum: T <= 2 * M * h * |domain|
        assert r.bound_lipschitz == pytest.approx(2.0 * 2 * np.pi * r.h, rel=1e-12)
        assert r.T_value <= r.bound_lipschitz
        assert r.T_value <= r.bound_l1
    ratios = [b.T_value / a.T_value for a, b in zip(rows, rows[1:])]
    for q in ratios:
        assert 0.4 <= q <= 0.6
    assert rows[-1].T_value <= 0.25 * rows[0].T_value


def test_decay_study_indicator_quarter_ratio():
    rows = translation_decay_study(uniform_1d_family(10),
                                   interval_indicator(0.25, 0.65), 4)
    assert rows[-1].T_value <= 0.25 * rows[0].T_value
    for r in rows:
        assert r.T_value <= r.bound_l1


def test_uniform_decay_study_rows():
    fam = uniform_1d_family(10)
    sine = smooth_function(
        lambda x: np.sin(2 * np.pi * x[..., 0]), lipschitz=2 * np.pi, name="sine"
    )
    bump = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    # L1 of the bump: amplitude * 2*halfwidth * (32/35) / 2 = 24/175
    bl1 = 0.5 * 0.6 * (32.0 / 35.0) / 2.0
    ps = [1, 2, 4, 8, 16]
    seq = [
        smooth_function(lambda x, p=p: sine.fn(x) + bump.value(x, 0.0) / p,
                        name=f"u{p}")
        for p in ps
    ]
    res = uniform_decay_study(fam, seq, sine, 3, deltas_l1=[bl1 / p for p in ps])
    mat = np.asarray(res.matrix)
    assert mat.shape == (3, len(ps))
    # perturbation shrinks with p, so each row decreases toward the limit
    assert np.all(mat[:, -1] <= mat[:, 0] + 1e-12)
    assert np.all(mat.max(axis=1) >= np.asarray(res.limit_column) - 1e-12)


def test_uniform_decay_constant_sequence_equals_limit():
    fam = uniform_1d_family(10)
    sine = smooth_function(
        lambda x: np.sin(2 * np.pi * x[..., 0]), lipschitz=2 * np.pi, name="sine"
    )
    res = uniform_decay_study(fam, [sine, sine], sine, 2, deltas_l1=[0.0, 0.0])
    mat = np.asarray(res.matrix)
    for j in range(mat.shape[1]):
        assert np.allclose(mat[:, j], res.limit_column, rtol=1e-14)


def _sine(lipschitz=2 * np.pi, nan_above=np.inf):
    """sin(2 pi x), NaN on x > nan_above, declaring both constants the
    decay studies bound T by."""
    def fn(x):
        x = x[..., 0]
        return np.where(x > nan_above, np.nan, np.sin(2 * np.pi * x))

    return IntegrableFunction(fn=fn, lipschitz=lipschitz, l1_norm=2 / np.pi,
                              name="sine")


@pytest.mark.parametrize("datum, verdict", [
    (_sine(nan_above=0.9), r"T = nan exceeds L1 bound \S+$"),
    (_sine(lipschitz=np.nan), r"T = \S+ exceeds Lipschitz bound nan$"),
], ids=["nan-T", "nan-lipschitz"])
def test_decay_study_refuses_a_nan_comparison(datum, verdict):
    # a NaN meets no bound, so neither T = nan nor a NaN bound passes
    with pytest.raises(InvariantViolation,
                       match=r"^family 'uniform_1d\(n0=10\)', level 0: " + verdict):
        translation_decay_study(uniform_1d_family(10), datum, 2)


def test_uniform_decay_study_refuses_a_nan_seminorm():
    with pytest.raises(InvariantViolation,
                       match=r"^family 'uniform_1d\(n0=10\)', level 0: "
                             r"T\[0\]\[0\] = nan exceeds uniform bound"):
        uniform_decay_study(uniform_1d_family(10), [_sine(nan_above=0.9)],
                            _sine(), 2, deltas_l1=[0.1])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=-4.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_seminorm_scaling_property(scale, seed):
    m = uniform_1d_family(8).build(0)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, m.n_cells)
    base = translation_seminorm(m, v)
    scaled = translation_seminorm(m, scale * v)
    assert scaled == pytest.approx(abs(scale) * base, rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_seminorm_triangle_inequality(seed):
    m = nonuniform_1d_family(8, ratio=2.0).build(0)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, m.n_cells)
    b = rng.uniform(-1.0, 1.0, m.n_cells)
    Ta = translation_seminorm(m, a)
    Tb = translation_seminorm(m, b)
    Tab = translation_seminorm(m, a + b)
    assert Tab <= Ta + Tb + 1e-12


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-5.0, max_value=5.0))
def test_seminorm_vanishes_on_constants(c):
    m = uniform_1d_family(12).build(0)
    assert translation_seminorm(m, np.full(m.n_cells, c)) == 0.0
