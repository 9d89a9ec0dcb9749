"""Residual decomposition, self-check identity, envelopes, and weak gaps.

The constant-state gap values are pure quadrature residue (the flux term
integrates a gradient over the whole domain); they were produced once and
frozen, and must reproduce bit-for-bit on reruns of the same build.
"""
import dataclasses

import numpy as np
import pytest

from lwfv import (
    Problem,
    polynomial_bump,
    project_l1,
    smooth_function,
    solve,
    uniform_1d_family,
    upwind_linear,
)
from lwfv.consistency import (
    check_support_margin,
    effective_c_phi,
    lw_study,
    residual_envelope_check,
    scheme_pairing,
    weak_gap,
)
from lwfv.flux import burgers, rusanov
from lwfv.mesh import compute_quality, perturbed_triangular_2d_family
from lwfv.operators import InvariantViolation, TimeGrid, bump_corpus_spacetime
from lwfv.solver import SpaceTimeField
from lwfv.translations import spacetime_translation_seminorm
from lwfv.reports import fit_decay_slope


def _bump_datum():
    b = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    return smooth_function(lambda x: b.value(x, 0.0), lipschitz=b.grad_sup,
                           name="bump")


def _const_datum(c=0.7):
    return smooth_function(lambda x: np.full(x.shape[:-1], c), lipschitz=0.0,
                           name="const")


@pytest.fixture(scope="module")
def advection_run():
    m = uniform_1d_family(10).build(1)
    f = solve(m, Problem(flux=upwind_linear([1.0]), u0=_bump_datum(),
                         t_final=0.5), cfl=0.5)
    return m, f


# ---------------------------------------------------------------------------
# the five-term identity
# ---------------------------------------------------------------------------


def test_master_identity_on_mixed_runs():
    phis = bump_corpus_spacetime(1, 0.5)
    runs = []
    for lvl in (0, 1):
        m = uniform_1d_family(10).build(lvl)
        runs.append(solve(m, Problem(flux=upwind_linear([1.0]),
                                     u0=_bump_datum(), t_final=0.5), cfl=0.5))
        runs.append(solve(m, Problem(flux=rusanov(burgers((1.0,))),
                                     u0=_bump_datum(), t_final=0.5), cfl=0.45))
    checked = 0
    for f in runs:
        for phi in phis:
            d = scheme_pairing(f, phi)
            assert abs(d.master_residual) <= 1e-10
            # the telescoping splits behind the master sum
            assert d.t1 == pytest.approx(d.t1_1 + d.t1_2 + d.r1,
                                         rel=1e-10, abs=1e-13 * d.scale)
            assert d.t2 == pytest.approx(d.t2_tilde + d.r,
                                         rel=1e-10, abs=1e-13 * d.scale)
            checked += 1
    assert checked >= 6


def test_zero_test_function_gives_zero_terms(advection_run):
    m, f = advection_run
    zero = polynomial_bump([0.5], [0.25], k=3, amplitude=0.0,
                           time_profile="decay", t_cut=0.35)
    d = scheme_pairing(f, zero)
    assert (d.t1_1, d.t1_2, d.r1, d.t2_tilde, d.r) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert weak_gap(f, zero, u0=_bump_datum()) == 0.0


def test_decomposition_abs_masses_dominate_terms(advection_run):
    m, f = advection_run
    phi = bump_corpus_spacetime(1, 0.5)[0]
    d = scheme_pairing(f, phi)
    assert d.r1_abs >= abs(d.r1)
    assert d.r_abs >= abs(d.r)


# ---------------------------------------------------------------------------
# weak gap
# ---------------------------------------------------------------------------


def test_constant_state_gap_is_quadrature_residue():
    frozen = [
        0.00013072934885391407,
        4.0012064068645214e-05,
        2.103959409527345e-06,
        6.243798085225905e-07,
    ]
    u0 = _const_datum()
    phis = bump_corpus_spacetime(1, 0.5)
    for lvl, expect in enumerate(frozen):
        m = uniform_1d_family(10).build(lvl)
        f = solve(m, Problem(flux=upwind_linear([1.0]), u0=u0, t_final=0.5),
                  cfl=0.5)
        got = max(weak_gap(f, p, u0=u0) for p in phis)
        assert got == pytest.approx(expect, rel=1e-9)
    assert frozen[-1] <= 0.01 * frozen[0]


def test_injected_exact_solution_gap_decays():
    # cell means of the exactly transported datum are not a scheme solution,
    # but their weak gap must still vanish under refinement at first order
    b = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    u0 = smooth_function(lambda x: b.value(x, 0.0), lipschitz=b.grad_sup,
                         name="u0")
    phis = bump_corpus_spacetime(1, 0.5)
    hs, gaps = [], []
    for lvl in range(4):
        m = uniform_1d_family(10).build(lvl)
        nsteps = 20 * 2**lvl
        grid = TimeGrid.uniform(0.5, nsteps)
        vals = np.empty((nsteps + 1, m.n_cells))
        for i, t in enumerate(grid.nodes):
            shifted = smooth_function(
                lambda x, t=t: b.value(x - np.array([t]), 0.0), name="sh"
            )
            vals[i] = project_l1(m, shifted).values
        fld = SpaceTimeField(mesh=m, grid=grid, values=vals,
                             boundary="periodic", flux=upwind_linear([1.0]))
        hs.append(m.h_max)
        gaps.append(max(weak_gap(fld, p, u0=u0) for p in phis))
    assert fit_decay_slope(hs, gaps) >= 0.9


def test_separable_and_generic_paths_agree(advection_run):
    m, f = advection_run
    phi = bump_corpus_spacetime(1, 0.5)[0]
    assert phi.separable is not None
    g_fast = weak_gap(f, phi, u0=_bump_datum())
    g_slow = weak_gap(f, dataclasses.replace(phi, separable=None),
                      u0=_bump_datum())
    assert g_slow == pytest.approx(g_fast, rel=1e-12)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_envelopes_hold_with_effective_constant(advection_run):
    m, f = advection_run
    q = compute_quality(m)
    sn = spacetime_translation_seminorm(m, f.grid, f.values)
    for phi in bump_corpus_spacetime(1, 0.5):
        d = scheme_pairing(f, phi)
        rep = residual_envelope_check(
            d, sn, c_f=f.flux.c_f, c_phi=effective_c_phi(phi, q),
            stencil_factor=2.0,
        )
        assert rep.ok and rep.r1_ok and rep.r_ok
        assert abs(d.r1) <= rep.r1_bound * (1.0 + 1e-9) + 1e-12 * d.r1_abs
        assert abs(d.r) <= rep.r_bound * (1.0 + 1e-9) + 1e-12 * d.r_abs


def test_envelope_breach_detected(advection_run):
    m, f = advection_run
    q = compute_quality(m)
    sn = spacetime_translation_seminorm(m, f.grid, f.values)
    phi = bump_corpus_spacetime(1, 0.5)[0]
    d = scheme_pairing(f, phi)
    tiny = 1e-3 * effective_c_phi(phi, q)
    rep = residual_envelope_check(d, sn, c_f=f.flux.c_f, c_phi=tiny,
                                  stencil_factor=2.0, raise_on_breach=False)
    assert not rep.ok
    with pytest.raises(InvariantViolation):
        residual_envelope_check(d, sn, c_f=f.flux.c_f, c_phi=tiny,
                                stencil_factor=2.0)


def test_effective_constant_formula():
    m = uniform_1d_family(10).build(0)
    q = compute_quality(m)
    phi = bump_corpus_spacetime(1, 0.5)[0]
    assert effective_c_phi(phi, q) == max(phi.dt_sup,
                                          q.theta_grad * phi.grad_sup)


# ---------------------------------------------------------------------------
# support margins
# ---------------------------------------------------------------------------


def test_support_margin_rejects_wide_support(advection_run):
    m, f = advection_run
    wide = polynomial_bump([0.5], [0.49], k=3, time_profile="decay", t_cut=0.3)
    with pytest.raises(ValueError):
        check_support_margin(m, f.grid, wide)


def test_support_margin_rejects_late_cut(advection_run):
    m, f = advection_run
    late = polynomial_bump([0.5], [0.2], k=3, time_profile="decay", t_cut=0.499)
    with pytest.raises(ValueError):
        check_support_margin(m, f.grid, late)


def test_support_margin_accepts_corpus(advection_run):
    m, f = advection_run
    for phi in bump_corpus_spacetime(1, 0.5):
        check_support_margin(m, f.grid, phi)


# ---------------------------------------------------------------------------
# the study driver
# ---------------------------------------------------------------------------


def test_lw_study_shape_and_determinism():
    fam = uniform_1d_family(10)
    pr = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)
    phis = bump_corpus_spacetime(1, 0.5)[:2]
    rep1 = lw_study(fam, pr, phis, levels=3, cfl=0.5)
    rep2 = lw_study(fam, pr, phis, levels=3, cfl=0.5)
    rows1, rows2 = rep1.rows(), rep2.rows()
    assert len(rows1) == 3 * 2
    assert rows1 == rows2
    assert set(rep1.slopes) == {"weak_gap", "R1", "R"}
    gaps = rep1.gap_profile()
    assert len(gaps) == 3
    assert gaps[-1] < gaps[0]


def test_lw_study_rows_carry_envelope_bounds():
    fam = uniform_1d_family(10)
    pr = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)
    phis = bump_corpus_spacetime(1, 0.5)[:2]
    rep = lw_study(fam, pr, phis, levels=2, cfl=0.5)
    for row in rep.rows():
        assert abs(row.master_residual) <= 1e-10
        assert abs(row.r1) <= row.r1_envelope * (1.0 + 1e-9) + 1e-11
        assert abs(row.r) <= row.r_envelope * (1.0 + 1e-9) + 1e-11
        assert isinstance(row.r1_envelope, float)
