"""Discrete gradients on dual volumes, their sup bound, weak pairings, and
the declared sups of the test functions.

The affine-gradient values below are hand evaluations of the defining
face formula area/dual * (value jump) * normal; the study gaps were
produced once by the reference-quadrature oracle and frozen.
"""
import dataclasses
import math

import numpy as np
import pytest

from lwfv import (
    cartesian_2d_family,
    perturbed_triangular_2d_family,
    uniform_1d_family,
)
from lwfv.cli import resolve_u0
from lwfv.mesh import MeshError, MeshFamily, build_uniform_1d, compute_quality
from lwfv.operators import (
    InvariantViolation,
    SmoothTestFunction,
    TimeGrid,
    _numeric_sup,
    bump_corpus_spacetime,
    bump_corpus_spatial,
    discrete_gradient,
    gradient_weakstar_study,
    polynomial_bump,
    sup_bound_check,
    vector_corpus,
    weak_pairing,
)
from lwfv.reports import fit_decay_slope


def _time_constant(name, dim, w, grad_w, grad_sup):
    # support technicality waived: the affine exactness check needs a
    # function that is linear across the whole domain
    big = (np.full(dim, -10.0), np.full(dim, 10.0))
    return SmoothTestFunction(
        name=name,
        dim=dim,
        w=w,
        grad_w=grad_w,
        g=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        dg=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        support=big,
        t_cut=np.inf,
        grad_sup=grad_sup,
        dt_sup=0.0,
    )


def _affine_x(dim):
    return _time_constant(
        "affine-x", dim,
        w=lambda x: np.asarray(x)[..., 0],
        grad_w=lambda x: np.broadcast_to(np.eye(dim)[0], np.asarray(x).shape).copy(),
        grad_sup=1.0,
    )


def _constant(dim, c=3.5):
    return _time_constant(
        "const", dim,
        w=lambda x: np.full(np.asarray(x).shape[:-1], c),
        grad_w=lambda x: np.zeros(np.asarray(x).shape),
        grad_sup=0.0,
    )


# ---------------------------------------------------------------------------
# pointwise gradient values
# ---------------------------------------------------------------------------


def test_constant_gives_zero_gradient(families):
    for fam in families.values():
        m = fam.build(0)
        g = discrete_gradient(m, _constant(m.dim))
        assert np.all(g == 0.0)


def test_affine_gradient_1d_uniform_is_one():
    m = uniform_1d_family(10).build(0)
    g = discrete_gradient(m, _affine_x(1))
    inner = g[m.interior]
    # area/dual * jump = (1/h) * h = 1 on every interior face
    assert np.allclose(inner[:, 0] * np.sign(m.face_normal[m.interior, 0]), 1.0,
                       rtol=1e-12)
    assert np.all(g[~m.interior] == 0.0)


def test_affine_gradient_cartesian_vertical_faces():
    # h = 1/4 squares with cone duals: |sigma| h / |D_sigma| = 2, so the
    # face gradient of x carries magnitude 2 along the normal, not 1; the
    # factor is what the dual-volume partition forces in two dimensions
    m = cartesian_2d_family(4).build(0)
    g = discrete_gradient(m, _affine_x(2))
    vert = m.interior & (np.abs(m.face_normal[:, 0]) > 0.5)
    horz = m.interior & (np.abs(m.face_normal[:, 0]) < 0.5)
    signed = g[vert, 0] * np.sign(m.face_normal[vert, 0])
    assert np.allclose(signed, 2.0, rtol=1e-12)
    assert np.allclose(g[vert, 1], 0.0, atol=1e-13)
    assert np.all(np.abs(g[horz]) <= 1e-13)


def test_gradient_antisymmetric_in_labeling(families):
    # flipping which side is K flips both the jump and the normal, so the
    # stored vector must not depend on labeling; equivalently the field is
    # a function of the face only, checked here via re-evaluation
    m = families["triangular-2d"].build(0)
    phi = bump_corpus_spatial(2)[0]
    g1 = discrete_gradient(m, phi)
    g2 = discrete_gradient(m, phi)
    assert np.array_equal(g1, g2)


def test_boundary_faces_zero_for_corpus(families):
    for fam in families.values():
        m = fam.build(0)
        for phi in bump_corpus_spatial(m.dim):
            g = discrete_gradient(m, phi)
            assert np.all(g[~m.interior] == 0.0)


# ---------------------------------------------------------------------------
# sup bound
# ---------------------------------------------------------------------------


def test_sup_bound_holds_on_all_family_phi_combos(families):
    for fam in families.values():
        m = fam.build(1)
        q = compute_quality(m)
        for phi in bump_corpus_spatial(m.dim):
            ratio = sup_bound_check(discrete_gradient(m, phi), q, phi)
            assert ratio <= 1.0 + 1e-12


def test_sup_bound_check_raises_on_inflated_field():
    m = uniform_1d_family(10).build(0)
    phi = bump_corpus_spatial(1)[0]
    g = discrete_gradient(m, phi)
    with pytest.raises(InvariantViolation):
        sup_bound_check(10.0 * g, compute_quality(m), phi)


def test_sup_bound_check_raises_on_a_nan_entry():
    # np.max of the face norms is NaN, which no bound holds
    m = uniform_1d_family(10).build(0)
    phi = bump_corpus_spatial(1)[0]
    g = discrete_gradient(m, phi)
    g[3, 0] = np.nan
    with pytest.raises(InvariantViolation, match="exceeds"):
        sup_bound_check(g, compute_quality(m), phi)


# ---------------------------------------------------------------------------
# weak-star pairing study
# ---------------------------------------------------------------------------


def test_weakstar_study_frozen_gaps_triangular():
    fam = perturbed_triangular_2d_family(4, jitter=0.3, seed=0)
    phi = bump_corpus_spatial(2)[0]
    rows = gradient_weakstar_study(fam, phi, vector_corpus(2), levels=3)
    gaps = [r.gap for r in rows if r.psi_name == "psi-a"]
    frozen = [0.088670141925638268, 0.013418944994773543, 0.0029948944483927653]
    assert np.allclose(gaps, frozen, rtol=1e-9)
    for r in rows:
        assert r.gap <= r.apriori_bound * (1.0 + 1e-9)


def _stray_anchor_family():
    """uniform_1d(16), but level 1 has the anchor of cell 3 in cell 4."""
    def build(m):
        mesh = build_uniform_1d(16 * 2**m)
        if m != 1:
            return mesh
        anchors = mesh.cell_center.copy()
        anchors[3] = mesh.cell_center[4]
        return dataclasses.replace(mesh, cell_center=anchors)

    return MeshFamily("stray-anchor", build)


def test_weakstar_study_validates_every_level():
    with pytest.raises(MeshError, match=r"^family 'stray-anchor', level 1: mesh "
                                        r"validation failed: anchor_inside$"):
        gradient_weakstar_study(_stray_anchor_family(), bump_corpus_spatial(1)[0],
                                vector_corpus(1)[:1], levels=3)


def test_weakstar_study_refuses_a_nan_gap():
    # a psi whose w is NaN pairs to NaN, and a NaN gap meets no bound
    psi = vector_corpus(1)[0]
    w_nan = dataclasses.replace(psi.components[0],
                                w=lambda x: np.full(x.shape[:-1], np.nan))
    nan_psi = dataclasses.replace(psi, name="psi-nan", components=(w_nan,))
    with pytest.raises(InvariantViolation,
                       match=r"^family 'uniform_1d\(n0=10\)', level 0: weak "
                             r"pairing gap nan exceeds a-priori bound .* "
                             r"\(psi psi-nan\)$"):
        gradient_weakstar_study(uniform_1d_family(10), bump_corpus_spatial(1)[0],
                                [nan_psi], levels=2)


def test_weakstar_gap_decays_on_uniform_families():
    for fam in (uniform_1d_family(10), cartesian_2d_family(4)):
        dim = fam.build(0).dim
        phi = bump_corpus_spatial(dim)[0]
        rows = gradient_weakstar_study(fam, phi, vector_corpus(dim)[:1], levels=4)
        hs = [r.h for r in rows]
        gaps = [r.gap for r in rows]
        assert fit_decay_slope(hs, gaps) >= 0.9


def test_weak_pairing_order2_exact_for_affine_psi():
    # an affine vector field is integrated exactly by the dual rule;
    # here: pair against psi(x) = (x0, 0) and compare with the direct sum
    # over the cone halves of every dual volume, the triangle with apex at
    # the cell anchor over the face: area times g_sigma . psi(centroid)
    m = cartesian_2d_family(4).build(1)
    phi = bump_corpus_spatial(2)[0]
    g = discrete_gradient(m, phi)
    comp = _affine_x(2)
    psi = dataclasses.replace(
        vector_corpus(2)[0], components=(comp, _constant(2, 0.0)), name="affine"
    )
    direct = 0.0
    for f in range(m.n_faces):
        nx, ny = m.face_normal[f]
        half = 0.5 * m.face_area[f] * np.array([-ny, nx])
        a, b = m.face_centroid[f] - half, m.face_centroid[f] + half
        for c in (m.face_K[f], m.face_L[f]):
            if c < 0:
                continue
            x = m.cell_center[c]
            area = 0.5 * abs((a[0] - x[0]) * (b[1] - x[1])
                             - (a[1] - x[1]) * (b[0] - x[0]))
            direct += area * g[f, 0] * (x[0] + a[0] + b[0]) / 3.0
    assert abs(direct) > 1e-3
    assert weak_pairing(m, g, psi) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# test-function corpus contracts
# ---------------------------------------------------------------------------


def test_corpus_vanishes_outside_support(families):
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        for phi in bump_corpus_spatial(dim):
            lo, hi = phi.support
            pad = 0.5 * (np.asarray(hi) - np.asarray(lo))
            x = rng.uniform(np.asarray(lo) - pad, np.asarray(hi) + pad, (4000, dim))
            vals = phi.value(x, 0.0)
            outside = np.any((x < lo) | (x > hi), axis=-1)
            assert np.all(vals[outside] == 0.0)


def test_corpus_declared_sups_hold_by_sampling():
    rng = np.random.default_rng(11)
    for dim in (1, 2):
        for phi in bump_corpus_spacetime(dim, 0.5):
            lo, hi = phi.support
            x = rng.uniform(lo, hi, (4000, dim))
            t = rng.uniform(0.0, 0.5, 4000)
            gn = np.linalg.norm(phi.grad(x, t), axis=-1)
            assert np.max(gn) <= phi.grad_sup * (1.0 + 1e-9)
            assert np.max(np.abs(phi.dt(x, t))) <= phi.dt_sup * (1.0 + 1e-9)


SUP_FACTOR = 1.0 + 1e-9  # the margin every declared sup carries
ROUNDING = 4 * np.finfo(float).eps


def _nelder_mead_max(f, lo, hi, n=61):
    """Max of f over a box by the best of an n^d grid polished with scipy's
    Nelder-Mead: an optimiser the package does not use, as the reference."""
    from scipy import optimize

    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(lo.size)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    vals = f(pts)
    best = int(np.argmax(vals))
    res = optimize.minimize(lambda x: -float(f(x.reshape(1, -1))[0]), pts[best],
                            method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return max(float(vals[best]), -float(res.fun))


def _grad_norm(phi):
    return lambda x: np.linalg.norm(phi.grad_w(x), axis=-1)


def _time_max(fun, phi):
    """Reference max of |fun(t)| over [0, t_cut]."""
    return _nelder_mead_max(lambda t: np.abs(fun(t[:, 0])), 0.0, phi.t_cut)


def _jacobian_norm(psi):
    # max of the spectral norm and |div|, as vector_corpus declares it
    def f(x):
        rows = [c.grad(x, 0.0) for c in psi.components]
        spec = np.linalg.norm(np.stack(rows, axis=-2), ord=2, axis=(-2, -1))
        div = np.abs(sum(rows[i][..., i] for i in range(psi.dim)))
        return np.maximum(spec, div)
    return f


def _declared_and_reference_sups(dim):
    pairs = {}
    for phi in bump_corpus_spatial(dim):
        pairs[f"{phi.name}/grad"] = (
            phi.grad_sup, _nelder_mead_max(_grad_norm(phi), *phi.support) * SUP_FACTOR)
    for phi in bump_corpus_spacetime(dim, 0.5):
        w_max = _nelder_mead_max(lambda x: np.abs(phi.w(x)), *phi.support)
        pairs[f"{phi.name}/grad"] = (
            phi.grad_sup, _nelder_mead_max(_grad_norm(phi), *phi.support)
            * SUP_FACTOR * _time_max(phi.g, phi))
        pairs[f"{phi.name}/dt"] = (phi.dt_sup, w_max * _time_max(phi.dg, phi) * SUP_FACTOR)
    for psi in vector_corpus(dim):
        lo = np.min([c.support[0] for c in psi.components], axis=0)
        hi = np.max([c.support[1] for c in psi.components], axis=0)
        pairs[f"{psi.name}/jacobian"] = (
            psi.jacobian_sup, _nelder_mead_max(_jacobian_norm(psi), lo, hi) * SUP_FACTOR)
    # the CLI's `bump` datum: its Lipschitz constant is the bump's grad_sup
    halfwidth = 0.3 if dim == 1 else 0.26
    bump = polynomial_bump([0.45] * dim, [halfwidth] * dim, k=3, amplitude=0.5)
    assert resolve_u0("bump", dim).lipschitz == bump.grad_sup
    pairs["cli-bump/grad"] = (
        bump.grad_sup, _nelder_mead_max(_grad_norm(bump), *bump.support) * SUP_FACTOR)
    return pairs


@pytest.mark.parametrize("dim", [1, 2])
def test_declared_sups_match_nelder_mead(dim):
    pairs = _declared_and_reference_sups(dim)
    assert len(pairs) == 3 + 8 + 2 + 1
    for name, (declared, ref) in pairs.items():
        assert abs(declared / ref - 1.0) <= 1e-12, (name, declared, ref)
        assert declared >= ref * (1.0 - ROUNDING), (name, declared, ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_dt_sup_bounds_the_polished_time_derivative(dim):
    # a max of |g'| over 20 001 samples, even times 1 + 1e-9, falls
    # 1.2e-9 to 4.9e-9 short of max |g'| on every phi here
    for phi in bump_corpus_spacetime(dim, 0.5):
        center = 0.5 * (phi.support[0] + phi.support[1])
        amplitude = abs(float(phi.w(center[None, :])[0]))
        assert phi.dt_sup >= amplitude * _time_max(phi.dg, phi), phi.name


def _counted(f, calls):
    def g(x):
        calls.append(len(x))
        return f(x)
    return g


@pytest.mark.parametrize("dim", [1, 2])
def test_polish_stops_at_a_smooth_maximum_once_rounding_is_reached(dim):
    # the grid plus 23 rounds polished every sup to the rounding of the box's
    # coordinates; a smooth maximum reaches the rounding of f in about 12
    bump = polynomial_bump([0.5] * dim, [0.29] * dim, k=4)
    calls = []
    sup = _numeric_sup(_counted(_grad_norm(bump), calls), *bump.support)
    assert len(calls) <= 1 + 15, len(calls)
    assert sup >= _nelder_mead_max(_grad_norm(bump), *bump.support) * (1.0 - ROUNDING)


def test_polish_runs_on_at_a_kink():
    # the drops to a kink's neighbours shrink like the spacing, so the stop
    # never fires early there: the max of 1 - |x - 1/3| is found to rounding
    calls = []
    f = lambda x: 1.0 - np.abs(x[:, 0] - 1.0 / 3.0)  # noqa: E731
    sup = _numeric_sup(_counted(f, calls), np.zeros(1), np.ones(1))
    assert sup >= 1.0 - ROUNDING and len(calls) > 1 + 20


def _profile_slope_max(k):
    """max over s of |d/ds (1 - s^2)^k|, attained at s^2 = 1 / (2k - 1)."""
    s2 = 1.0 / (2 * k - 1)
    return 2 * k * math.sqrt(s2) * (1.0 - s2) ** (k - 1)


@pytest.mark.parametrize("halfwidth, k, amplitude", [
    # the 1d bumps of the spatial, space-time and vector corpora and the
    # CLI's bump datum and translation bump
    (0.32, 4, 1.0), (0.22, 3, 1.5), (0.28, 5, 0.8), (0.3, 4, 1.0),
    (0.24, 3, 1.4), (0.22, 5, 0.9), (0.28, 4, 1.0), (0.25, 3, 1.2),
    (0.3, 3, 0.5), (0.24, 3, 1.0), (0.3, 2, -2.0),
])
def test_1d_bump_sups_match_closed_form(halfwidth, k, amplitude):
    slope = abs(amplitude) * _profile_slope_max(k)
    bump = polynomial_bump([0.5], [halfwidth], k=k, amplitude=amplitude)
    exact = slope / halfwidth
    assert exact <= bump.grad_sup <= exact * SUP_FACTOR * (1.0 + ROUNDING)
    t_cut = 0.4
    decaying = polynomial_bump([0.5], [halfwidth], k=k, amplitude=amplitude,
                               time_profile="decay", t_cut=t_cut)
    assert exact <= decaying.grad_sup <= exact * SUP_FACTOR * (1.0 + ROUNDING)
    exact_dt = slope / t_cut
    assert exact_dt <= decaying.dt_sup <= exact_dt * SUP_FACTOR * (1.0 + ROUNDING)


def test_spacetime_corpus_time_cut():
    for phi in bump_corpus_spacetime(1, 0.5):
        assert phi.t_cut < 0.5
        x = np.array([[0.5]])
        assert phi.value(x, phi.t_cut + 1e-12)[0] == 0.0
        assert phi.value(x, 0.499)[0] == 0.0


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------


def test_time_grid_uniform_hits_t_final_exactly():
    g = TimeGrid.uniform(0.7, 7)
    assert g.nodes[-1] == 0.7
    assert g.n_steps == 7
    assert np.all(np.diff(g.nodes) > 0)
    assert float(np.sum(g.deltas)) == pytest.approx(0.7, rel=1e-15)


def test_time_grid_rejects_non_monotone():
    with pytest.raises(ValueError):
        TimeGrid(nodes=np.array([0.0, 0.5, 0.3]))


def test_time_grid_rejects_non_finite_nodes():
    # nan <= 0 is False, so a NaN slab passes a check for non-positive ones
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(nodes=np.array([0.0, 0.5, bad]))
