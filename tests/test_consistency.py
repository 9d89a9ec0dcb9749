"""Residual decomposition, self-check identity, envelopes, and weak gaps.

The constant-state gap values are pure quadrature residue (the flux term
integrates a gradient over the whole domain); they were produced once and
frozen, and must reproduce bit-for-bit on reruns of the same build.

``lw_study`` streams each level in one pass over time, and it is the only
path from a run to the five terms, the seminorm and the weak gap.  Its
references are the three scalar-loop oracles of ``oracles.py``, run on the
history ``solve`` stores: the five terms, the seminorm and the weak gap.
``weak_gap`` and ``spacetime_translation_seminorm``, the entry points for a
stored history, are checked against the same oracles.

Where the host allows it, ``lw_study`` runs its coarser levels in a forked
child; the split tests compare that path with the sequential loop bit for
bit, in results and in errors, and check that no child is left behind.
"""
import atexit
import dataclasses
import functools
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lwfv import (
    Problem,
    interval_indicator,
    nonuniform_1d_family,
    polynomial_bump,
    project_l1,
    smooth_function,
    solve,
    uniform_1d_family,
    upwind_linear,
)
from lwfv import consistency, quadrature
from lwfv.consistency import (
    check_support_margin,
    effective_c_phi,
    lw_study,
    residual_envelope_check,
    spacetime_translation_seminorm,
    weak_gap,
)
from lwfv.flux import (
    NumericalFlux,
    burgers,
    linear_advection,
    muscl_three_point,
    rusanov,
)
from lwfv.mesh import compute_quality, perturbed_triangular_2d_family
from lwfv.operators import InvariantViolation, TimeGrid, bump_corpus_spacetime
from lwfv.solver import BlowUpError, SpaceTimeField, plan
from lwfv.translations import GAUSS_ORDER, _datum_rule
from lwfv.reports import fit_decay_slope

from oracles import (
    brute_flux_pairing_terms,
    brute_spacetime_seminorm,
    brute_volume_pairing_terms,
    brute_weak_gap,
)
from test_operators import _affine_x


def _bump_datum():
    b = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    return smooth_function(lambda x: b.value(x, 0.0), lipschitz=b.grad_sup,
                           name="bump")


def _const_datum(c=0.7):
    return smooth_function(lambda x: np.full(x.shape[:-1], c), lipschitz=0.0,
                           name="const")


def _advection():
    return Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)


@pytest.fixture(scope="module")
def advection_run():
    m = uniform_1d_family(10).build(1)
    return m, solve(m, _advection(), cfl=0.5)


@pytest.fixture(scope="module")
def advection_record():
    """Level 1 of the study on the mesh and run of ``advection_run``."""
    rep = lw_study(uniform_1d_family(10), _advection(),
                   bump_corpus_spacetime(1, 0.5), levels=2, cfl=0.5)
    return rep.levels[1]


# ---------------------------------------------------------------------------
# the five-term identity
# ---------------------------------------------------------------------------


def test_master_identity_on_mixed_runs():
    phis = bump_corpus_spacetime(1, 0.5)
    burgers_run = Problem(flux=rusanov(burgers((1.0,))), u0=_bump_datum(),
                          t_final=0.5)
    checked = 0
    for problem, cfl in ((_advection(), 0.5), (burgers_run, 0.45)):
        rep = lw_study(uniform_1d_family(10), problem, phis, levels=2, cfl=cfl)
        for d in (d for rec in rep.levels for d in rec.decompositions):
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
    rec = lw_study(uniform_1d_family(10), _advection(), [zero], levels=2,
                   cfl=0.5).levels[1]
    d = rec.decompositions[0]
    assert (d.t1_1, d.t1_2, d.r1, d.t2_tilde, d.r) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert weak_gap(f, zero, u0=_bump_datum()) == 0.0


def test_decomposition_abs_masses_dominate_terms(advection_record):
    d = advection_record.decompositions[0]
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


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_envelopes_hold_with_effective_constant(advection_run, advection_record):
    m, f = advection_run
    q = compute_quality(m)
    sn = advection_record.seminorms
    for phi, d in zip(bump_corpus_spacetime(1, 0.5),
                      advection_record.decompositions):
        r1_bound, r_bound = residual_envelope_check(
            d, sn, c_f=f.flux.c_f, c_phi=effective_c_phi(phi, q))
        assert abs(d.r1) <= r1_bound * (1.0 + 1e-9) + 1e-12 * d.r1_abs
        assert abs(d.r) <= r_bound * (1.0 + 1e-9) + 1e-12 * d.r_abs


def test_envelope_breach_detected(advection_run, advection_record):
    m, f = advection_run
    q = compute_quality(m)
    sn = advection_record.seminorms
    phi = bump_corpus_spacetime(1, 0.5)[0]
    d = advection_record.decompositions[0]
    tiny = 1e-3 * effective_c_phi(phi, q)
    with pytest.raises(InvariantViolation):
        residual_envelope_check(d, sn, c_f=f.flux.c_f, c_phi=tiny)


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
    assert len(rep1.levels) == 3
    for rec in rep1.levels:
        assert len(rec.decompositions) == len(rec.weak_gaps) == len(rec.envelopes) == 2
    assert rep1.levels == rep2.levels
    assert set(rep1.slopes) == {"weak_gap", "R1", "R"}
    gaps = rep1.gap_profile()
    assert len(gaps) == 3
    assert gaps[-1] < gaps[0]


def test_lw_study_rows_carry_envelope_bounds():
    fam = uniform_1d_family(10)
    pr = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)
    phis = bump_corpus_spacetime(1, 0.5)[:2]
    rep = lw_study(fam, pr, phis, levels=2, cfl=0.5)
    for rec in rep.levels:
        for d, (r1_envelope, r_envelope) in zip(rec.decompositions, rec.envelopes):
            assert abs(d.master_residual) <= 1e-10
            assert abs(d.r1) <= r1_envelope * (1.0 + 1e-9) + 1e-11
            assert abs(d.r) <= r_envelope * (1.0 + 1e-9) + 1e-11
            assert isinstance(r1_envelope, float)


def test_lw_study_rejects_history_outside_c_f_range():
    # Rusanov derives c_f on [-2, 2]; data reaching 2.5 leaves it, so the R
    # envelope would rest on an unsound constant
    hot = smooth_function(lambda x: 2.0 + 0.5 * np.sin(2.0 * np.pi * x[..., 0]),
                          lipschitz=np.pi, name="hot")
    problem = Problem(flux=rusanov(burgers((1.0,))), u0=hot, t_final=0.5)
    phis = bump_corpus_spacetime(1, 0.5)
    with pytest.raises(InvariantViolation, match="outside the state range") as exc:
        lw_study(uniform_1d_family(10), problem, phis, levels=2, cfl=0.45)
    msg = str(exc.value)
    assert "uniform_1d(n0=10)" in msg and "level 0" in msg
    assert all(phi.name in msg for phi in phis)


def test_lw_study_rates_each_level_once(rated_cells):
    # refine rates every level for its regularity band and the study reads
    # the same qualities again; the mesh keeps them, so each is computed once
    problem = Problem(flux=rusanov(burgers((1.0,))),
                      u0=interval_indicator(0.1, 0.45), t_final=0.5)
    report = lw_study(uniform_1d_family(16), problem,
                      bump_corpus_spacetime(1, 0.5), levels=4, cfl=0.45)
    assert rated_cells == [16, 32, 64, 128]
    assert [rec.quality.n_faces_max for rec in report.levels] == [2] * 4


def test_lw_study_flux_check_stays_in_declared_range():
    # c_f = 1.5 holds on [0, 1], where these data stay; a check that samples
    # states outside that range rejects a sound flux
    problem = Problem(flux=rusanov(burgers((1.0,)), u_range=(0.0, 1.0)),
                      u0=interval_indicator(0.1, 0.45), t_final=0.5)
    report = lw_study(uniform_1d_family(16), problem,
                      bump_corpus_spacetime(1, 0.5), levels=2, cfl=0.45)
    assert len(report.levels) == 2


def test_lw_study_names_family_and_level_of_a_broken_maximum_principle():
    # a Rusanov flux that understates its wave speed fourfold gets, at
    # cfl = 0.9, a time step 3.6 times the one the CFL condition allows
    fl = rusanov(burgers((1.0,)))
    slow = dataclasses.replace(
        fl, wave_speed=lambda a, b, n: 0.25 * fl.wave_speed(a, b, n))
    problem = Problem(flux=slow, u0=interval_indicator(0.1, 0.45), t_final=0.5)
    with pytest.raises(InvariantViolation, match="maximum principle broken") as exc:
        lw_study(uniform_1d_family(64), problem, bump_corpus_spacetime(1, 0.5),
                 levels=2, cfl=0.9)
    msg = str(exc.value)
    assert "uniform_1d(n0=64)" in msg and "level 0" in msg and "step" in msg


def test_lw_study_errors_name_family_level_and_phi():
    fam = uniform_1d_family(10)
    pr = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)
    phi = bump_corpus_spacetime(1, 0.5)[0]
    # understated derivative sups make the envelopes too tight
    liar = dataclasses.replace(phi, dt_sup=1e-6 * phi.dt_sup,
                               grad_sup=1e-6 * phi.grad_sup, name="liar")
    with pytest.raises(InvariantViolation, match="envelope breached") as exc:
        lw_study(fam, pr, [phi, liar], levels=2, cfl=0.5)
    msg = str(exc.value)
    assert "uniform_1d(n0=10)" in msg and "level 0" in msg and "'liar'" in msg


# ---------------------------------------------------------------------------
# the streamed study against the scalar oracles
# ---------------------------------------------------------------------------


def _sine_2d():
    return smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[..., 0])
        * np.sin(2.0 * np.pi * x[..., 1]),
        lipschitz=0.5 * np.pi * np.sqrt(2.0), name="sine-2d")


ORACLE_CASES = {
    "nonuniform-1d": lambda: (
        nonuniform_1d_family(10, ratio=2.0),
        Problem(flux=rusanov(burgers((1.0,))), u0=interval_indicator(0.1, 0.45),
                t_final=0.5),
        0.45),
    "triangulated-2d": lambda: (
        perturbed_triangular_2d_family(4, jitter=0.3, seed=0),
        Problem(flux=rusanov(burgers((0.6, 0.8))), u0=_sine_2d(), t_final=0.4),
        0.45),
    "1d-periodic-rusanov": lambda: (
        uniform_1d_family(16),
        Problem(flux=rusanov(burgers((1.0,))), u0=interval_indicator(0.1, 0.45),
                t_final=0.5),
        0.45),
    "1d-outflow-upwind": lambda: (
        uniform_1d_family(10),
        Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5,
                boundary="outflow"),
        0.5),
    "1d-three-point-muscl": lambda: (
        uniform_1d_family(10),
        Problem(flux=muscl_three_point([1.0]), u0=_bump_datum(), t_final=0.5),
        0.5),
    "1d-outflow-muscl": lambda: (
        uniform_1d_family(10),
        Problem(flux=muscl_three_point([1.0]), u0=_bump_datum(), t_final=0.5,
                boundary="outflow"),
        0.5),
}
# families with faces where |D_K,s| != |D_L,s|, so a dual weighting that
# drops or swaps the two sides changes T2_tilde and R
UNEVEN_DUAL_CASES = ("nonuniform-1d", "triangulated-2d")
TERMS = ("t1_1", "t1_2", "r1", "t2_tilde", "r", "t1", "t2", "r1_abs", "r_abs")


@functools.cache
def _oracle_run(case):
    """The study of an oracle case and the stored history of each level."""
    family, problem, cfl = ORACLE_CASES[case]()
    phis = bump_corpus_spacetime(family.build(0).dim, problem.t_final)
    rep = lw_study(family, problem, phis, levels=2, cfl=cfl)
    fields = [solve(family.build(rec.level), problem, cfl=cfl)
              for rec in rep.levels]
    return problem, phis, rep, fields


def _flux_oracle(field, phis):
    return brute_flux_pairing_terms(field.mesh, field.grid.deltas, field.values,
                                    field.flux, phis, field.grid.nodes,
                                    field.boundary)


def _volume_oracle(field, phis):
    return brute_volume_pairing_terms(field.mesh, field.values, phis,
                                      field.grid.nodes)


def _assert_terms_match(rec, oracle):
    """Every oracle term of every decomposition, within 1e-12 of the sum of
    the magnitudes of its summands."""
    for dec, want in zip(rec.decompositions, oracle):
        for name, (value, mass) in want.items():
            assert abs(getattr(dec, name) - value) <= 1e-12 * mass, \
                (rec.level, dec.phi_id, name, getattr(dec, name), value)


def _assert_gaps_match(rec, field, phis, u0):
    """The streamed gaps against ``weak_gap`` on the stored history.  A gap
    is the cancellation |a + b + c|, so its relative rounding is larger than
    that of a term."""
    for phi, gap in zip(phis, rec.weak_gaps):
        assert gap == pytest.approx(weak_gap(field, phi, u0=u0),
                                    rel=1e-10), (rec.level, phi.name)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_flux_pairing_terms_match_scalar_oracle(case):
    problem, phis, rep, fields = _oracle_run(case)
    for rec, field in zip(rep.levels, fields):
        if case in UNEVEN_DUAL_CASES:
            inner = field.mesh.interior
            assert np.any(field.mesh.face_dk[inner] != field.mesh.face_dl[inner])
        oracle = _flux_oracle(field, phis)
        assert {*oracle[0]} == {"t2", "t2_tilde", "r", "r_abs"}
        _assert_terms_match(rec, oracle)
        _assert_gaps_match(rec, field, phis, problem.u0)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_volume_pairing_terms_match_scalar_oracle(case):
    # step counts that are no multiple of the block size, so the last block
    # of every level is a partial one
    problem, phis, rep, fields = _oracle_run(case)
    for rec, field in zip(rep.levels, fields):
        steps = field.grid.n_steps
        assert steps > consistency.BLOCK_STEPS and steps % consistency.BLOCK_STEPS
        oracle = _volume_oracle(field, phis)
        assert {*oracle[0]} == set(TERMS) - {"t2", "t2_tilde", "r", "r_abs"}
        _assert_terms_match(rec, oracle)
        space, time = brute_spacetime_seminorm(field.mesh, field.grid.deltas,
                                               field.values)
        assert rec.seminorms.space_part == pytest.approx(space, rel=1e-12)
        assert rec.seminorms.time_part == pytest.approx(time, rel=1e-12)
        assert spacetime_translation_seminorm(field.mesh, field.grid,
                                              field.values) == rec.seminorms


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_weak_gap_matches_scalar_oracle(case):
    problem, phis, rep, fields = _oracle_run(case)
    for rec, field in zip(rep.levels, fields):
        for phi, gap in zip(phis, rec.weak_gaps):
            want, mass = brute_weak_gap(field.mesh, field.grid.nodes, field.values,
                                        problem.flux.flux, phi, problem.u0)
            stored = weak_gap(field, phi, u0=problem.u0)
            for got in (gap, stored):
                assert abs(got - want) <= 1e-12 * mass, \
                    (rec.level, phi.name, got, want, mass)


def test_lw_study_level_allocates_less_than_its_history():
    family = uniform_1d_family(200)
    problem = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5)
    phis = bump_corpus_spacetime(1, 0.5)
    _, grid, u0 = plan(family.build(0), problem, 0.45)
    history_bytes = (grid.n_steps + 1) * u0.size * u0.itemsize
    tracemalloc.start()
    try:
        # check_flux=False: the flux check samples 20000 state pairs, which
        # is work of the flux, not of the level
        lw_study(family, problem, phis, levels=1, cfl=0.45, check_flux=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.n_steps > 200
    assert peak < history_bytes, (peak, history_bytes)


@pytest.mark.parametrize("block_steps", [1, 7])
def test_lw_study_does_not_depend_on_the_block_size(monkeypatch, block_steps):
    family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
    phis = bump_corpus_spacetime(1, problem.t_final)
    ref = lw_study(family, problem, phis, levels=2, cfl=cfl)
    monkeypatch.setattr(consistency, "BLOCK_STEPS", block_steps)
    got = lw_study(family, problem, phis, levels=2, cfl=cfl)
    for a, b in zip(ref.levels, got.levels):
        for part in ("space_part", "time_part"):
            assert getattr(b.seminorms, part) == pytest.approx(
                getattr(a.seminorms, part), rel=1e-12)
        for da, db, ga, gb in zip(a.decompositions, b.decompositions,
                                  a.weak_gaps, b.weak_gaps):
            for t in TERMS:
                assert abs(getattr(db, t) - getattr(da, t)) <= 1e-12 * da.scale, \
                    (a.level, da.phi_id, t)
            assert gb == pytest.approx(ga, rel=1e-12)


def test_lw_study_names_family_and_level_of_a_blow_up():
    # a consistent central flux with negative dissipation grows every mode
    # until the guard of march fires
    def antidiff(uK, uL, bn, uKK=None, uLL=None):
        uK = np.asarray(uK, float)
        uL = np.asarray(uL, float)
        return 0.5 * (uK + uL) * bn + 25.0 * (uL - uK)

    bad = NumericalFlux(
        name="antidiffusive", flux=linear_advection([1.0]), stencil=2,
        c_f=100.0, evaluate=antidiff,
        wave_speed=lambda a, b, n: np.abs(np.asarray(n, float)[..., 0]),
    )
    problem = Problem(flux=bad, u0=_bump_datum(), t_final=5.0)
    with pytest.raises(BlowUpError, match="escaped the guard") as exc:
        lw_study(uniform_1d_family(10), problem, bump_corpus_spacetime(1, 5.0),
                 levels=2, cfl=0.9)
    msg = str(exc.value)
    assert "uniform_1d(n0=10)" in msg and "level 0" in msg and "step" in msg


# ---------------------------------------------------------------------------
# the weak gap's columns on the support boxes only
# ---------------------------------------------------------------------------


def _all_cells_gap_columns(mesh, phis, u0, flux):
    """The weak gap's columns with every test function evaluated on every
    cell: ``(cells, w_integral, b_grad_w, c_term)`` of ``_GapSums``."""
    pts, wq = quadrature.cell_rule(mesh.cell_vertices, GAUSS_ORDER)
    W = np.column_stack([quadrature.rowdot(wq, p.w(pts)) for p in phis])
    GW = np.stack([(wq[:, None, :] @ p.grad_w(pts))[:, 0] for p in phis], axis=-1)
    cells = np.flatnonzero(np.any(W != 0.0, axis=1) | np.any(GW != 0.0, axis=(1, 2)))
    rows, pts0, wu = _datum_rule(mesh.cell_vertices, u0, (pts, wq))
    per_cell = np.zeros((mesh.n_cells, len(phis)))
    per_cell[rows] = np.column_stack(
        [quadrature.rowdot(wu, p.value(pts0, 0.0)) for p in phis])
    return (cells, W[cells], np.einsum("d,cdp->cp", flux.direction, GW[cells]),
            np.cumsum(per_cell, axis=0)[-1])


@pytest.mark.parametrize("case", ["2d-smooth-datum", "1d-indicator-datum",
                                  "whole-box-phi"])
def test_gap_columns_equal_an_all_cells_evaluation(case):
    if case == "2d-smooth-datum":
        family, problem, cfl = ORACLE_CASES["triangulated-2d"]()
        phis = bump_corpus_spacetime(2, problem.t_final)
    elif case == "1d-indicator-datum":
        family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
        phis = bump_corpus_spacetime(1, problem.t_final)
    else:
        family, problem, cfl = ORACLE_CASES["triangulated-2d"]()
        phis = [_affine_x(2), *bump_corpus_spacetime(2, problem.t_final)]
    for level in range(3):
        mesh = family.build(level)
        grid = plan(mesh, problem, cfl)[1]
        sums = consistency._GapSums(mesh, grid, phis, problem.u0, problem.flux.flux)
        want = _all_cells_gap_columns(mesh, phis, problem.u0, problem.flux.flux)
        got = (sums.cells, sums.w_integral, sums.b_grad_w, sums.c_term)
        for name, a, b in zip(("cells", "w_integral", "b_grad_w", "c_term"), got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (level, name)


# ---------------------------------------------------------------------------
# two processes per study
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SPLIT_SCENARIOS = {
    "advection-1d": (lambda: (
        uniform_1d_family(10),
        Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5),
        0.5), 4),
    "burgers-riemann-1d": (lambda: ORACLE_CASES["1d-periodic-rusanov"](), 4),
    "burgers-2d": (lambda: (
        perturbed_triangular_2d_family(4, jitter=0.3, seed=0),
        Problem(flux=rusanov(burgers((1.0 / np.sqrt(2.0),) * 2)), u0=_sine_2d(),
                t_final=0.4),
        0.45), 3),
}


def _bits(obj):
    """Every leaf of a report as (type, bytes), so that -0.0 differs from 0.0
    and a float from a numpy scalar."""
    if dataclasses.is_dataclass(obj):
        return [_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [_bits(x) for x in obj]
    if isinstance(obj, dict):
        return [(k, _bits(v)) for k, v in obj.items()]
    if isinstance(obj, (float, np.floating)):
        return type(obj), np.float64(obj).tobytes()
    return type(obj), obj


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host has, and the number of forks so
    far (a spy on ``os.fork``)."""
    calls = []
    fork = os.fork

    def spy():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", spy)
    return calls


def _sequential(monkeypatch, study):
    """``study()`` on the sequential path: one usable CPU, no fork."""
    def no_fork():
        raise AssertionError("os.fork called on one CPU")

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        m.setattr(os, "fork", no_fork)
        return study()


def _outcome(study):
    """The report of ``study()``, or the type and message it raises."""
    try:
        return study()
    except Exception as exc:
        return type(exc), str(exc)


@needs_fork
@pytest.mark.parametrize("scenario", sorted(SPLIT_SCENARIOS))
def test_lw_study_split_is_bit_identical_to_the_sequential_loop(
        monkeypatch, forks, scenario):
    make, levels = SPLIT_SCENARIOS[scenario]
    family, problem, cfl = make()
    phis = bump_corpus_spacetime(family.build(0).dim, problem.t_final)

    def study():
        return lw_study(family, problem, phis, levels=levels, cfl=cfl)

    split = study()
    assert len(forks) == 1
    sequential = _sequential(monkeypatch, study)
    assert len(split.levels) == levels
    assert _bits(split) == _bits(sequential)
    _assert_no_child()


def _late_cut_phi():
    # t_cut 0.48 of a t_final 0.5 run: the support margin wants t_cut <=
    # 0.5 - 2 dt, which fails at levels 0 and 1 of uniform_1d(16) only
    return polynomial_bump([0.5], [0.2], k=3, time_profile="decay", t_cut=0.48,
                           name="late-cut")


def _liar_phi():
    # understated derivative sups breach the envelopes on every level
    phi = bump_corpus_spacetime(1, 0.5)[0]
    return dataclasses.replace(phi, dt_sup=1e-6 * phi.dt_sup,
                               grad_sup=1e-6 * phi.grad_sup, name="liar")


@needs_fork
@pytest.mark.parametrize("planted", ["support-margin", "envelope-breach",
                                     "levels-1-and-3", "finest-only"])
def test_lw_study_split_raises_the_lowest_failing_level(monkeypatch, forks, planted):
    family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
    phis = bump_corpus_spacetime(1, problem.t_final)
    if planted == "support-margin":
        phis = [*phis, _late_cut_phi()]
    elif planted == "envelope-breach":
        phis = [*phis, _liar_phi()]
    else:
        failing = {"levels-1-and-3": {1, 3}, "finest-only": {3}}[planted]
        level = consistency._study_level

        def planted_failure(lvl, *args):
            if lvl in failing:
                raise InvariantViolation(f"planted at {lvl}")
            return level(lvl, *args)

        monkeypatch.setattr(consistency, "_study_level", planted_failure)

    def study():
        return _outcome(lambda: lw_study(family, problem, phis, levels=4, cfl=cfl))

    split = study()
    assert len(forks) == 1
    assert split == _sequential(monkeypatch, study)
    kind, message = split
    assert kind is (ValueError if planted == "support-margin" else InvariantViolation)
    assert {"support-margin": "'late-cut' must vanish",
            "envelope-breach": "level 0: residual envelope breached for 'liar'",
            "levels-1-and-3": "level 1: planted at 1",
            "finest-only": "level 3: planted at 3"}[planted] in message
    _assert_no_child()


class TwoArgs(Exception):
    """Pickles, but loading calls TwoArgs(message) and fails."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@needs_fork
@pytest.mark.parametrize("planted", ["unpicklable", "unloadable", "dies",
                                     "interrupted"])
def test_lw_study_split_reports_a_lost_child_and_leaves_none(
        monkeypatch, forks, planted):
    family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
    phis = bump_corpus_spacetime(1, problem.t_final)
    caller = os.getpid()
    level = consistency._study_level

    class Local(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    def planted_failure(lvl, *args):
        in_child = os.getpid() != caller
        if planted == "unpicklable" and lvl == 0:
            raise Local("no way back")
        if planted == "unloadable" and lvl == 0:
            raise TwoArgs("no way", "back")
        if planted == "dies" and in_child:
            os._exit(7)
        if planted == "interrupted":
            if in_child:
                time.sleep(60)
            raise KeyboardInterrupt
        return level(lvl, *args)

    monkeypatch.setattr(consistency, "_study_level", planted_failure)
    want = {"unpicklable": (RuntimeError, r"raised .*Local: no way back"),
            "unloadable": (RuntimeError, "raised TwoArgs: no way: back"),
            "dies": (RuntimeError, "exit status 7"),
            "interrupted": (KeyboardInterrupt, None)}[planted]
    t0 = time.monotonic()
    with pytest.raises(want[0], match=want[1]):
        lw_study(family, problem, phis, levels=3, cfl=cfl)
    assert len(forks) == 1
    assert time.monotonic() - t0 < 30.0  # the interrupted caller kills its child
    _assert_no_child()


@needs_fork
def test_lw_study_child_flushes_nothing_and_runs_no_exit_handler(tmp_path, forks):
    family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
    caller = os.getpid()
    marker = tmp_path / "exit-handler-ran"

    def handler():
        if os.getpid() != caller:
            marker.write_text("child")

    atexit.register(handler)
    log = open(tmp_path / "log", "w", encoding="utf-8")
    log.write("once\n")  # still in the buffer when the child is forked
    try:
        lw_study(family, problem, bump_corpus_spacetime(1, problem.t_final),
                 levels=2, cfl=cfl)
    finally:
        atexit.unregister(handler)
        log.close()
    assert len(forks) == 1
    assert (tmp_path / "log").read_text(encoding="utf-8") == "once\n"
    assert not marker.exists()


@needs_fork
@pytest.mark.parametrize("blocker", ["one-level", "one-cpu", "live-thread", "no-fork"])
def test_lw_study_does_not_fork_unless_the_split_conditions_hold(monkeypatch, blocker):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    if blocker == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif blocker == "no-fork":
        monkeypatch.delattr(os, "fork")
    family, problem, cfl = ORACLE_CASES["1d-periodic-rusanov"]()
    phis = bump_corpus_spacetime(1, problem.t_final)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if blocker == "live-thread":
        thread.start()
    try:
        report = lw_study(family, problem, phis, cfl=cfl,
                          levels=1 if blocker == "one-level" else 2)
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert len(report.levels) == (1 if blocker == "one-level" else 2)
