"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each criterion is a single test so the pass/fail ledger is one line per
guarantee under ``pytest -v``.  Bounds are recomputed here from raw mesh
quantities wherever possible instead of trusting the library's own report
fields, so a regression in the bound bookkeeping cannot hide itself.
The three refinement studies are module fixtures shared by the identity,
envelope, and decay criteria; their wall-clock cost is accounted to the
decay criterion's budget.
"""
import math
import time

import numpy as np
import pytest

from lwfv.consistency import lw_study
from lwfv.flux import (
    burgers,
    check_flux_contract,
    linear_advection,
    muscl_three_point,
    rusanov,
    upwind_linear,
)
from lwfv.mesh import (
    compute_quality,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    uniform_1d_family,
)
from lwfv.operators import (
    bump_corpus_spacetime,
    bump_corpus_spatial,
    discrete_gradient,
    gradient_weakstar_study,
    sup_bound_check,
    vector_corpus,
)
from lwfv.solver import Problem, solve
from lwfv.translations import (
    interval_indicator,
    smooth_function,
    translation_decay_study,
    uniform_decay_study,
)

from oracles import brute_l1_error, burgers_characteristic_values, cell_edges_1d


def report(line: str) -> None:
    print(line)


def fitted_slope(hs, values) -> float:
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# shared refinement studies (cost charged to the decay criterion)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study_linear_smooth(bump_datum_1d):
    t0 = time.monotonic()
    problem = Problem(flux=upwind_linear([1.0]), u0=bump_datum_1d,
                      t_final=0.5, boundary="periodic")
    rep = lw_study(uniform_1d_family(10), problem,
                   bump_corpus_spacetime(1, 0.5), levels=4, cfl=0.5)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def study_burgers_2d(sine_datum_2d):
    t0 = time.monotonic()
    d = 1.0 / math.sqrt(2.0)
    problem = Problem(flux=rusanov(burgers((d, d))), u0=sine_datum_2d,
                      t_final=0.4, boundary="periodic")
    rep = lw_study(perturbed_triangular_2d_family(4, jitter=0.3, seed=0),
                   problem, bump_corpus_spacetime(2, 0.4), levels=4, cfl=0.45)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def study_burgers_riemann():
    t0 = time.monotonic()
    problem = Problem(flux=rusanov(burgers((1.0,))),
                      u0=interval_indicator(0.1, 0.45),
                      t_final=0.5, boundary="periodic")
    rep = lw_study(uniform_1d_family(16), problem,
                   bump_corpus_spacetime(1, 0.5), levels=4, cfl=0.45)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def all_study_rows(study_linear_smooth, study_burgers_2d, study_burgers_riemann):
    rows = []
    for rep, _ in (study_linear_smooth, study_burgers_2d, study_burgers_riemann):
        rows.extend(d for rec in rep.levels for d in rec.decompositions)
    return rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_sup_bound(families):
    t0 = time.monotonic()
    worst = 0.0
    combos = 0
    for name, fam in families.items():
        dim = fam.build(0).dim
        for level in (0, 1):
            mesh = fam.build(level)
            quality = compute_quality(mesh)
            for phi in bump_corpus_spatial(dim):
                ratio = sup_bound_check(discrete_gradient(mesh, phi), quality, phi)
                worst = max(worst, ratio)
                combos += 1
                assert ratio <= 1.0 + 1e-12, (name, level, phi.name, ratio)
    elapsed = time.monotonic() - t0
    assert combos >= 12
    assert elapsed < 10.0
    report(f"[criterion 1] PASS gradient sup bound: {combos} mesh/test-function "
           f"combos, worst ratio {worst:.12f} <= 1+1e-12, {elapsed:.1f}s")


def test_criterion_2_weakstar_gradient_convergence(families):
    t0 = time.monotonic()
    uniform_names = {"uniform-1d", "cartesian-2d"}
    slopes = {}
    checked = 0
    for name, fam in families.items():
        dim = fam.build(0).dim
        phi = bump_corpus_spatial(dim)[0]
        psis = vector_corpus(dim)
        sup_by_name = {p.name: p.jacobian_sup for p in psis}
        study = gradient_weakstar_study(fam, phi, psis, levels=4)
        omega = fam.build(0).domain_measure
        for row in study:
            bound = ((1.0 + row.theta_grad) * phi.grad_sup
                     * sup_by_name[row.psi_name] * omega * row.h)
            assert row.gap <= bound * (1.0 + 1e-12), (name, row)
            checked += 1
        if name in uniform_names:
            for psi in psis:
                rows = [r for r in study if r.psi_name == psi.name]
                s = fitted_slope([r.h for r in rows], [r.gap for r in rows])
                slopes[f"{name}/{psi.name}"] = s
                assert s >= 0.9, (name, psi.name, s)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    worst_slope = min(slopes.values())
    report(f"[criterion 2] PASS weak-star gradient convergence: {checked} "
           f"level rows within the a-priori bound, uniform-family slopes "
           f">= {worst_slope:.3f} (need 0.9), {elapsed:.1f}s")


def test_criterion_3_translation_seminorm_decay(families, sine_datum_1d):
    t0 = time.monotonic()
    fam_1d = families["uniform-1d"]
    fam_tri = families["triangular-2d"]

    # Lipschitz data: T <= 2 M h |domain| on every level, both dimensions
    omega = fam_1d.build(0).domain_measure
    for row in translation_decay_study(fam_1d, sine_datum_1d, levels=4):
        bound = 2.0 * sine_datum_1d.lipschitz * row.h * omega
        assert row.T_value <= bound * (1.0 + 1e-12), ("uniform-1d", row)
    tri_datum = smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0])
        * np.sin(2 * np.pi * x[..., 1]),
        lipschitz=0.25 * 2 * np.pi * math.sqrt(2.0), name="sine-2d")
    omega = fam_tri.build(0).domain_measure
    for row in translation_decay_study(fam_tri, tri_datum, levels=3):
        bound = 2.0 * tri_datum.lipschitz * row.h * omega
        assert row.T_value <= bound * (1.0 + 1e-12), ("triangular-2d", row)

    # indicator datum: the seminorm must fall to a quarter over 4 halvings
    ind_rows = translation_decay_study(fam_1d, interval_indicator(0.25, 0.65),
                                       levels=4)
    assert ind_rows[-1].T_value <= 0.25 * ind_rows[0].T_value

    # converging sequence u_p = u + bump/p: row-wise uniform bound
    from lwfv.operators import polynomial_bump

    bump = polynomial_bump([0.5], [0.24], k=3)
    lo, hi = 0.26, 0.74
    xs = np.linspace(lo, hi, 4001)[:, None]
    bump_l1 = float(np.trapezoid(np.abs(bump.value(xs, 0.0)), dx=(hi - lo) / 4000))
    ps = list(range(1, 17))
    seq = []
    for p in ps:
        def fn(x, p=p):
            return (np.asarray(sine_datum_1d.fn(x), dtype=float)
                    + bump.value(x, 0.0) / p)
        seq.append(smooth_function(
            fn, lipschitz=sine_datum_1d.lipschitz + bump.grad_sup / p,
            name=f"u+bump/{p}"))
    deltas = [bump_l1 / p for p in ps]
    uni = uniform_decay_study(fam_1d, seq, sine_datum_1d, levels=4,
                              deltas_l1=deltas)
    for i, lvl in enumerate(uni.levels):
        q = compute_quality(fam_1d.build(lvl))
        for j, p in enumerate(ps):
            bound = q.n_faces_max * q.theta * deltas[j] + uni.limit_column[i]
            assert uni.matrix[i][j] <= bound * (1.0 + 1e-9), (lvl, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"[criterion 3] PASS translation seminorm decay: Lipschitz bound "
           f"held on 7 level rows, indicator ratio "
           f"{ind_rows[-1].T_value / ind_rows[0].T_value:.4f} <= 0.25, "
           f"uniform bound held for p=1..16 on 4 levels, {elapsed:.1f}s")


def test_criterion_4_flux_hypotheses():
    t0 = time.monotonic()
    fluxes = [
        upwind_linear([1.0]),
        upwind_linear([0.8, -0.6]),
        muscl_three_point([1.0]),
        rusanov(burgers((1.0,))),
        rusanov(burgers((0.6, 0.8))),
        rusanov(linear_advection([1.0, 0.5])),
    ]
    for f in fluxes:
        # bit-exact conservativity, consistency to 1e-14 and the jump bound
        rep = check_flux_contract(f)
        assert rep.n_samples >= 10_000
        assert rep.failed == (), (f.name, rep)
        assert rep.max_ratio <= f.c_f * (1.0 + 1e-9), (f.name, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(f"[criterion 4] PASS flux hypotheses: {len(fluxes)} fluxes pass "
           f"bit-exact conservativity, 1e-14 consistency, and jump-bound "
           f"sampling at >= 10^4 pairs, {elapsed:.1f}s")


def test_criterion_5_conservation_and_constants(families, bump_datum_1d,
                                                sine_datum_2d):
    t0 = time.monotonic()
    fam_1d = families["uniform-1d"]
    fam_tri = families["triangular-2d"]
    runs = [
        (fam_1d.build(2), Problem(flux=upwind_linear([1.0]), u0=bump_datum_1d,
                                  t_final=0.5, boundary="periodic"), 0.5),
        (fam_1d.build(1), Problem(flux=muscl_three_point([1.0]),
                                  u0=bump_datum_1d, t_final=0.5,
                                  boundary="periodic"), 0.45),
        (fam_tri.build(1), Problem(flux=rusanov(burgers((0.6, 0.8))),
                                   u0=sine_datum_2d, t_final=0.3,
                                   boundary="periodic"), 0.45),
    ]
    worst_drift = 0.0
    for mesh, problem, cfl in runs:
        field = solve(mesh, problem, cfl=cfl)
        masses = field.values @ mesh.cell_volume
        drift = float(np.max(np.abs(masses - masses[0]))) / abs(masses[0])
        worst_drift = max(worst_drift, drift)
        assert drift <= 1e-12, (problem.flux.name, drift)

    const = smooth_function(lambda x: np.full(x.shape[:-1], 0.4),
                            lipschitz=0.0, name="const")
    worst_dev = 0.0
    for mesh, flux in [(fam_1d.build(1), upwind_linear([1.0])),
                       (fam_1d.build(1), muscl_three_point([1.0])),
                       (fam_1d.build(1), rusanov(burgers((1.0,)))),
                       (fam_tri.build(0), rusanov(burgers((0.6, 0.8))))]:
        field = solve(mesh, Problem(flux=flux, u0=const, t_final=0.25,
                                    boundary="periodic"), cfl=0.45)
        dev = float(np.max(np.abs(field.values - 0.4)))
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-14, (flux.name, dev)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"[criterion 5] PASS conservation and constants: worst relative "
           f"mass drift {worst_drift:.2e} <= 1e-12, worst constant-state "
           f"deviation {worst_dev:.2e} <= 1e-14, {elapsed:.1f}s")


def test_criterion_6_master_identity(all_study_rows):
    assert len(all_study_rows) >= 6
    worst = 0.0
    for row in all_study_rows:
        scale = max(abs(row.t1_1), abs(row.t1_2), abs(row.r1),
                    abs(row.t2_tilde), abs(row.r))
        residual = abs(row.t1_1 + row.t1_2 + row.r1 + row.t2_tilde + row.r)
        assert residual <= 1e-10 * max(scale, 1e-30), row
        # the library's own bookkeeping must agree with the recomputation
        assert abs(row.master_residual) <= 1e-10 * max(scale, 1e-30), row
        if scale > 0:
            worst = max(worst, residual / scale)
    report(f"[criterion 6] PASS master identity: {len(all_study_rows)} runs, "
           f"worst relative residual {worst:.2e} <= 1e-10")


def test_criterion_7_residual_envelopes(study_linear_smooth, study_burgers_2d,
                                       study_burgers_riemann):
    # the bounds recomputed from their ingredients, not read from the
    # report: |R1| <= c_phi * time part and |R| <= c_f * c_phi * space part,
    # with c_phi = max(sup |d_t phi|, theta_grad * sup |grad phi|), for
    # every stencil width.  The MUSCL study (indicator datum, outflow,
    # nonuniform cells) has the smallest measured margin of a three-point
    # flux under the R bound.
    d = 1.0 / math.sqrt(2.0)
    muscl = muscl_three_point([1.0])
    muscl_problem = Problem(flux=muscl, u0=interval_indicator(0.2, 0.55),
                            t_final=0.5, boundary="outflow")
    study_muscl = lw_study(nonuniform_1d_family(10), muscl_problem,
                           bump_corpus_spacetime(1, 0.5), levels=4, cfl=0.45)
    studies = [
        (study_linear_smooth[0], upwind_linear([1.0]), bump_corpus_spacetime(1, 0.5)),
        (study_burgers_2d[0], rusanov(burgers((d, d))), bump_corpus_spacetime(2, 0.4)),
        (study_burgers_riemann[0], rusanov(burgers((1.0,))),
         bump_corpus_spacetime(1, 0.5)),
        (study_muscl, muscl, bump_corpus_spacetime(1, 0.5)),
    ]
    runs = 0
    worst_r1 = 0.0
    worst_r = 0.0
    for rep, flux, phis in studies:
        assert rep.flux_name == flux.name
        for rec in rep.levels:
            sem = rec.seminorms
            assert [dec.phi_id for dec in rec.decompositions] == [p.name for p in phis]
            assert len(rec.envelopes) == len(phis)
            for phi, dec, envelope in zip(phis, rec.decompositions, rec.envelopes):
                c_phi = max(phi.dt_sup, rec.quality.theta_grad * phi.grad_sup)
                r1_bound = c_phi * sem.time_part
                r_bound = flux.c_f * c_phi * sem.space_part
                assert math.isfinite(r1_bound) and r1_bound >= 0.0
                assert math.isfinite(r_bound) and r_bound >= 0.0
                # the report must carry the same bounds it checked against
                r1_envelope, r_envelope = envelope
                assert r1_envelope == pytest.approx(r1_bound, rel=1e-12), dec
                assert r_envelope == pytest.approx(r_bound, rel=1e-12), dec
                assert abs(dec.r1) <= r1_bound * (1.0 + 1e-9), dec
                assert abs(dec.r) <= r_bound * (1.0 + 1e-9), dec
                if r1_bound > 0:
                    worst_r1 = max(worst_r1, abs(dec.r1) / r1_bound)
                if r_bound > 0:
                    worst_r = max(worst_r, abs(dec.r) / r_bound)
                runs += 1
    report(f"[criterion 7] PASS residual envelopes: {runs} "
           f"runs, worst |R1|/bound {worst_r1:.3f}, worst |R|/bound "
           f"{worst_r:.3f} (both <= 1+1e-9)")


def test_criterion_8_weak_consistency_gap_decay(study_linear_smooth,
                                                study_burgers_2d,
                                                study_burgers_riemann):
    rep_a, t_a = study_linear_smooth
    rep_b, t_b = study_burgers_2d
    rep_c, t_c = study_burgers_riemann

    gaps_a = rep_a.gap_profile()
    assert all(b < a for a, b in zip(gaps_a, gaps_a[1:])), gaps_a
    ratio_a = gaps_a[-1] / gaps_a[0]
    assert ratio_a <= 0.15, gaps_a

    gaps_b = rep_b.gap_profile()
    assert all(b < a for a, b in zip(gaps_b, gaps_b[1:])), gaps_b
    ratio_b = gaps_b[-1] / gaps_b[0]
    assert ratio_b <= 0.25, gaps_b

    gaps_c = rep_c.gap_profile()
    assert all(b < a for a, b in zip(gaps_c, gaps_c[1:])), gaps_c
    slope_c = rep_c.slopes["weak_gap"]
    assert slope_c >= 0.4, (gaps_c, slope_c)

    total = t_a + t_b + t_c
    assert total < 600.0
    report(f"[criterion 8] PASS weak-consistency gap decay: smooth advection "
           f"final/coarsest {ratio_a:.4f} <= 0.15, 2d Burgers {ratio_b:.4f} "
           f"<= 0.25, Riemann slope {slope_c:.3f} >= 0.4, total {total:.0f}s")


def test_criterion_9_solver_accuracy_oracles(sine_datum_1d):
    t0 = time.monotonic()
    fam = uniform_1d_family(32)

    # full-period advection returns the initial cell means exactly
    errs_adv = []
    hs = []
    for level in range(4):
        mesh = fam.build(level)
        problem = Problem(flux=upwind_linear([1.0]), u0=sine_datum_1d,
                          t_final=1.0, boundary="periodic")
        field = solve(mesh, problem, cfl=0.5)
        errs_adv.append(brute_l1_error(mesh, field.values[-1], field.values[0]))
        hs.append(mesh.h_max)
    slope_adv = fitted_slope(hs, errs_adv)
    assert slope_adv >= 0.7, (hs, errs_adv, slope_adv)

    # pre-shock Burgers against the characteristics oracle
    u0 = lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x)  # noqa: E731
    u0p = lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x)  # noqa: E731
    errs_bur = []
    for level in range(4):
        mesh = fam.build(level)
        problem = Problem(flux=rusanov(burgers((1.0,))), u0=sine_datum_1d,
                          t_final=0.3, boundary="periodic")
        field = solve(mesh, problem, cfl=0.5)
        lo, hi = cell_edges_1d(mesh)
        nsub = 16
        offs = (np.arange(nsub) + 0.5) / nsub
        pts = lo[:, None] + (hi - lo)[:, None] * offs[None, :]
        vals = burgers_characteristic_values(u0, u0p, 0.3, pts.ravel())
        exact_means = vals.reshape(pts.shape).mean(axis=1)
        errs_bur.append(brute_l1_error(mesh, field.values[-1], exact_means))
    slope_bur = fitted_slope(hs, errs_bur)
    assert slope_bur >= 0.7, (hs, errs_bur, slope_bur)
    elapsed = time.monotonic() - t0
    report(f"[criterion 9] PASS solver accuracy: advection one-period slope "
           f"{slope_adv:.3f}, pre-shock Burgers slope {slope_bur:.3f} "
           f"(both >= 0.7), {elapsed:.1f}s")
