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
"""
import dataclasses
import functools
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
from lwfv import consistency
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
from lwfv.reports import fit_decay_slope

from oracles import (
    brute_flux_pairing_terms,
    brute_spacetime_seminorm,
    brute_volume_pairing_terms,
    brute_weak_gap,
)


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
