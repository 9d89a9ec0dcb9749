"""Numerical fluxes: conservativity to the bit, consistency, jump bounds.

The frozen example value is hand arithmetic: central Burgers flux between
0 and 2 is (0 + 2)/2 = 1 with dissipation (2/2)*(2-0) = 2, so -1.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwfv.flux import (
    PROPERTIES,
    NumericalFlux,
    _halton_states,
    _sampled_range,
    _unit_normals,
    burgers,
    check_flux_contract,
    linear_advection,
    muscl_three_point,
    rusanov,
    upwind_linear,
)

ALL_FLUXES = [
    upwind_linear([1.0]),
    upwind_linear([0.7, -0.3]),
    muscl_three_point([1.0]),
    rusanov(burgers((1.0,))),
    rusanov(burgers((0.6, 0.8))),
    rusanov(linear_advection([1.0, 0.5])),
]


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_halton_states_match_scipy_bit_for_bit(dims):
    # the reference only: the package itself does not import scipy.stats
    from scipy.stats import qmc

    for n in (1, 2, 7, 5000, 20000, 65537):
        ref = qmc.Halton(d=dims, scramble=False).random(n)
        got = _halton_states((0.0, 1.0), n, dims)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref), n
        assert np.array_equal(_halton_states((-2.0, 3.0), n, dims), -2.0 + 5.0 * ref), n


def test_rusanov_burgers_frozen_example():
    fl = rusanov(burgers((1.0,)))
    got = fl.evaluate(np.array([0.0]), np.array([2.0]), np.array([1.0]))
    assert float(got[0]) == -1.0


def test_rusanov_burgers_probe_is_local():
    # the face (0.1, 0.2): central (0.005 + 0.02)/2 = 0.0125, dissipation
    # max(0.1, 0.2)/2 * 0.1 = 0.01, so 0.0025 whatever shares the call
    fl = rusanov(burgers((1.0,)))
    alone = fl.evaluate(np.array([0.1]), np.array([0.2]), np.array([1.0]))
    beside = fl.evaluate(np.array([0.1, 5.0]), np.array([0.2, 5.0]), np.ones(2))
    assert float(alone[0]) == pytest.approx(0.0025, rel=1e-15)
    assert float(beside[0]) == float(alone[0])


@pytest.mark.parametrize("F", [linear_advection([1.0, 0.5]), burgers((1.0,)),
                               burgers((0.6, 0.8))], ids=lambda F: F.name)
def test_deriv_bound_is_symmetric_bit_for_bit(F):
    # Rusanov passes a face's two states unsorted, so deriv_bound(a, b) must
    # equal the bound on the sorted pair to the bit, signed zeros included
    states = _halton_states((-2.0, 2.0), 2000, 2)
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [-0.0, 1.5],
                      [0.0, -1.5]])
    a, b = np.concatenate([states, -states, zeros]).T
    assert np.any(np.signbit(a) & (a == 0.0))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    sorted_bound = np.broadcast_to(F.deriv_bound(lo, hi), a.shape)
    for x, y in ((a, b), (b, a)):
        got = np.broadcast_to(F.deriv_bound(x, y), a.shape)
        assert got.tobytes() == sorted_bound.tobytes()
    # and the flux equals the formula on the sorted pair
    g = F.profile
    fl = rusanov(F)
    for n in _unit_normals(F.dim):
        bn = F.normal_speed(n)
        old = 0.5 * (g(a) + g(b)) * bn - 0.5 * sorted_bound * (b - a) + 0.0
        assert fl.evaluate(a, b, bn).tobytes() == old.tobytes()


def _formula(fl, uK, uL, bn, uKK, uLL):
    """The stock fluxes as one expression each, allocating as they go."""
    F = fl.flux
    if fl.name.startswith("rusanov"):
        lam = F.deriv_bound(uK, uL)
        return 0.5 * (F.profile(uK) + F.profile(uL)) * bn - 0.5 * lam * (uL - uK) + 0.0
    if fl.stencil == 3:
        def minmod(a, b):
            same = a * b > 0.0
            return np.where(same, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
        uK, uL = uK + 0.5 * minmod(uK - uKK, uL - uK), uL + 0.5 * minmod(uL - uLL, uK - uL)
    return np.where(bn >= 0.0, bn * uK, bn * uL) + 0.0


@pytest.mark.parametrize("fl", ALL_FLUXES, ids=lambda fl: fl.name)
def test_flux_keeps_the_views_it_is_handed_and_equals_its_formula(fl):
    # the solver hands evaluate views of one stencil buffer, which the
    # seminorm reads after the step; linear advection's profile returns its
    # input, so rusanov must not write into what g returns.  Signed zeros,
    # equal pairs and extrema make every branch of the limiter run
    rng = np.random.default_rng(11)
    n_faces = 256
    buf = rng.uniform(-2.0, 2.0, (4, n_faces))
    buf[:, :8] = [[0.0, -0.0, 1.0, 1.0, -1.0, 0.5, 2.0, -2.0]] * 4
    buf[1, 8:16] = buf[0, 8:16]
    buf[2, 16:24] = buf[0, 16:24]
    ang = rng.uniform(0.0, 2.0 * np.pi, n_faces)
    normals = (np.sign(np.cos(ang))[:, None] if fl.dim == 1
               else np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    bn = fl.flux.normal_speed(normals)
    before = buf.tobytes()
    uK, uL, uKK, uLL = buf
    extra = {"uKK": uKK, "uLL": uLL} if fl.stencil == 3 else {}
    got = fl.evaluate(uK, uL, bn, **extra)
    assert buf.tobytes() == before
    assert got.tobytes() == _formula(fl, uK, uL, bn, uKK, uLL).tobytes()


@pytest.mark.parametrize("fl", ALL_FLUXES, ids=lambda fl: fl.name)
def test_face_flux_depends_on_its_own_stencil_only(fl):
    # even faces keep their states while the odd faces get new ones, some
    # far outside the sampled range; the even fluxes must not move a bit,
    # and each must equal the face evaluated alone
    rng = np.random.default_rng(5)
    n_faces = 64
    ang = rng.uniform(0.0, 2.0 * np.pi, n_faces)
    normals = (np.sign(np.cos(ang))[:, None] if fl.dim == 1
               else np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    states = rng.uniform(-2.0, 2.0, (4, n_faces))
    other = states.copy()
    odd = np.arange(1, n_faces, 2)
    other[:, odd] = rng.uniform(-5.0, 5.0, (4, odd.size))
    other[:, odd[::4]] = 5.0

    def flux_of(s, normal):
        extra = {"uKK": s[2], "uLL": s[3]} if fl.stencil == 3 else {}
        return fl.evaluate(s[0], s[1], fl.flux.normal_speed(normal), **extra)

    base = flux_of(states, normals)
    moved = flux_of(other, normals)
    even = np.arange(0, n_faces, 2)
    assert np.array_equal(base[even].view(np.int64), moved[even].view(np.int64))
    for f in even[:8]:
        alone = flux_of(states[:, f:f + 1], normals[f:f + 1])
        assert alone[0] == base[f] and np.signbit(alone[0]) == np.signbit(base[f])


def test_monotone_declared_by_the_two_point_fluxes():
    assert upwind_linear([1.0]).monotone
    assert rusanov(burgers((1.0,))).monotone
    assert rusanov(linear_advection([1.0, 0.5])).monotone
    assert not muscl_three_point([1.0]).monotone


@pytest.mark.parametrize("F", [burgers((1.0,)), burgers((0.6, 0.8)),
                               linear_advection([1.0, 0.5])],
                         ids=["burgers-1d", "burgers-2d", "advection-2d"])
@pytest.mark.parametrize("shape", [(9,), (5, 7)], ids=["cells", "steps-cells"])
def test_flux_value_is_profile_times_direction_bit_for_bit(F, shape):
    u = np.random.default_rng(0).uniform(-2.0, 2.0, shape)
    got = F.value(u)
    want = F.profile(u)[..., None] * F.direction
    assert got.shape == shape + (F.dim,)
    assert got.tobytes() == want.tobytes()


def test_upwind_picks_donor_side():
    fl = upwind_linear([1.0])
    bn = np.array([1.0])
    assert float(fl.evaluate(np.array([3.0]), np.array([-7.0]), bn)[0]) == 3.0
    assert float(fl.evaluate(np.array([3.0]), np.array([-7.0]), -bn)[0]) == 7.0


def test_conservativity_bit_exact_all_fluxes():
    rng = np.random.default_rng(2)
    for fl in ALL_FLUXES:
        rep = check_flux_contract(fl, n_samples=5000)
        assert "conservativity" not in rep.failed, (fl.name, rep.witness)
        # evaluate takes b . n, so the flip n -> -n reaches it only through
        # normal_speed, which must negate bit for bit on its own
        n = rng.normal(size=(500, fl.dim))
        n = np.concatenate([n / np.linalg.norm(n, axis=1)[:, None],
                            np.eye(fl.dim)])
        speed = fl.flux.normal_speed
        assert speed(-n).tobytes() == (-speed(n)).tobytes(), fl.name


def test_consistency_all_fluxes():
    for fl in ALL_FLUXES:
        rep = check_flux_contract(fl, n_samples=5000)
        assert "consistency" not in rep.failed, fl.name


def test_jump_bound_all_fluxes():
    for fl in ALL_FLUXES:
        rep = check_flux_contract(fl, n_samples=20000)
        assert rep.n_samples >= 10000
        assert rep.ok, (fl.name, rep.failed, rep.max_ratio, rep.witness)
        assert rep.max_ratio <= fl.c_f * (1.0 + 1e-9)


def _per_normal_hypothesis_iii(flux, n_samples):
    """The jump bound of check_flux_contract with F(a), F(b) and |a - b|
    recomputed for every normal, as a loop over normals would naively do."""
    dims = 2 if flux.stencil == 2 else 4
    u_range = _sampled_range(flux)
    states = _halton_states(u_range, n_samples, dims)
    scale = max(abs(u_range[0]), abs(u_range[1]), 1.0)
    keep = np.abs(states[:, 0] - states[:, 1]) > 1e-12 * scale
    a, b = states[keep, 0], states[keep, 1]
    uKK = states[keep, 2] if dims == 4 else None
    uLL = states[keep, 3] if dims == 4 else None
    tol = flux.c_f * (1.0 + 1e-9)
    worst, witness = -1.0, None
    for n in _unit_normals(flux.dim):
        fval = flux.evaluate(a, b, flux.flux.normal_speed(n), uKK=uKK, uLL=uLL)
        r = np.maximum(np.abs(fval - flux.flux.value(a) @ n),
                       np.abs(fval - flux.flux.value(b) @ n)) / np.abs(a - b)
        i = int(np.argmax(r))
        if r[i] > worst:
            worst = float(r[i])
            witness = (float(a[i]), float(b[i]), n.copy(), float(r[i]))
    return worst, tol, witness if worst > tol else None, int(a.size)


def _per_normal_consistency(flux, n_samples):
    """The consistency of check_flux_contract with F(u) recomputed for
    every normal."""
    states = _halton_states(_sampled_range(flux), n_samples, 1)[:, 0]
    worst, witness = 0.0, None
    for n in _unit_normals(flux.dim):
        fval = flux.evaluate(states, states, flux.flux.normal_speed(n),
                             uKK=states, uLL=states)
        exact = flux.flux.value(states) @ n
        r = np.abs(fval - exact) / np.maximum(np.abs(exact), 1.0)
        i = int(np.argmax(r))
        if r[i] > worst:
            worst = float(r[i])
            witness = (float(states[i]), float(states[i]), n.copy(), float(r[i]))
    return worst, 1e-14, witness if worst > 1e-14 else None, int(states.size)


def _same(x, y):
    if isinstance(x, tuple):
        return (isinstance(y, tuple) and len(x) == len(y)
                and all(_same(p, q) for p, q in zip(x, y)))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return type(x) is type(y) and x == y


def _skewed(fl):
    """fl with its face fluxes off by one part in 1e12: inconsistent, and
    with its jump-bound constant understated 4x."""
    def evaluate(*args, **kwargs):
        return fl.evaluate(*args, **kwargs) * (1.0 + 1e-12)

    return dataclasses.replace(fl, name=f"skewed[{fl.name}]", c_f=0.25 * fl.c_f,
                               evaluate=evaluate)


def _drifting(fl):
    """fl plus 1e-10 (b . n): conservative and within its jump bound, but
    inconsistent."""
    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        return fl.evaluate(uK, uL, bn, uKK=uKK, uLL=uLL) + 1e-10 * bn

    return dataclasses.replace(fl, name=f"drifting[{fl.name}]", evaluate=evaluate)


def _nan_where(fl, where):
    """fl with NaN on the faces whose first state satisfies ``where``."""
    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        out = fl.evaluate(uK, uL, bn, uKK=uKK, uLL=uLL)
        return np.where(where(np.asarray(uK)), np.nan, out)

    return dataclasses.replace(fl, name=f"nan[{fl.name}]", evaluate=evaluate)


def _one_sided():
    F = linear_advection([1.0])

    def one_sided(uK, uL, bn, uKK=None, uLL=None):
        # deliberately not antisymmetric: always bills the K side
        return F.profile(np.asarray(uK, float)) * bn

    return NumericalFlux(name="one-sided", flux=F, stencil=2, c_f=1.0,
                         evaluate=one_sided, wave_speed=lambda a, b, n: 1.0)


# fluxes that break the contract, each with the properties it breaks
BROKEN_FLUXES = {
    "one-sided": (_one_sided, ("conservativity",)),
    "drifting": (lambda: _drifting(rusanov(burgers((1.0,)))), ("consistency",)),
    "all-nan": (lambda: _nan_where(rusanov(burgers((1.0,))), lambda u: u == u),
                PROPERTIES),
    "nan-above-1.5": (lambda: _nan_where(rusanov(burgers((1.0,))),
                                         lambda u: u > 1.5), PROPERTIES),
}


@pytest.mark.parametrize("fl", ALL_FLUXES + [_skewed(ALL_FLUXES[0]),
                                             _skewed(ALL_FLUXES[4]),
                                             _drifting(ALL_FLUXES[4])],
                         ids=lambda fl: fl.name)
def test_checkers_match_a_per_normal_recomputation(fl):
    # the check evaluates the physical flux once and projects it on each
    # normal; its jump-bound fields, and the witness of the first property
    # it names, must equal the per-normal loops' bit for bit
    rep = check_flux_contract(fl, n_samples=4000)
    refs = {"jump bound": _per_normal_hypothesis_iii(fl, 4000),
            "consistency": _per_normal_consistency(fl, 4000)}
    assert rep.name == fl.name
    assert rep.failed == tuple(p for p, ref in refs.items() if ref[2] is not None)
    worst, tol, _, n = refs["jump bound"]
    assert _same((rep.max_ratio, rep.tolerance, rep.n_samples), (worst, tol, n))
    assert _same(rep.witness, refs[rep.failed[0]][2] if rep.failed else None)
    assert rep.failed == {"skewed": ("jump bound", "consistency"),
                          "drifting": ("consistency",)}.get(
                              fl.name.split("[")[0], ())


def test_fluxes_declare_where_c_f_holds():
    # rusanov derives c_f on its u_range; |b| bounds a linear flux's jumps
    # for any states
    assert rusanov(burgers((1.0,))).u_range == (-2.0, 2.0)
    assert rusanov(burgers((1.0,)), u_range=(-1.0, 3.0)).u_range == (-1.0, 3.0)
    assert upwind_linear([1.0]).u_range == (-np.inf, np.inf)
    assert muscl_three_point([1.0]).u_range == (-np.inf, np.inf)


def test_c_f_of_a_huge_finite_velocity_is_finite():
    # |b| squared overflows for |b| above about 1.3e154, but |b| does not
    assert upwind_linear([1e200]).c_f == 1e200
    assert muscl_three_point([-1e200]).c_f == 1e200
    assert upwind_linear([3 * 2.0**600, 4 * 2.0**600]).c_f == 5 * 2.0**600


@pytest.mark.parametrize("make", [
    pytest.param(lambda: upwind_linear([np.nan]), id="upwind-nan"),
    pytest.param(lambda: upwind_linear([np.inf, 0.0]), id="upwind-inf"),
    pytest.param(lambda: muscl_three_point([np.nan]), id="muscl-nan"),
    # finite direction, but max|F'| on u_range = (-2, 2) overflows
    pytest.param(lambda: rusanov(burgers((1e308,))), id="rusanov-burgers-1e308"),
])
def test_non_finite_c_f_rejected_at_construction(make):
    with pytest.raises(ValueError, match="c_f .* not finite"):
        make()


@pytest.mark.parametrize("fl, lo, hi", [
    (rusanov(burgers((1.0,)), u_range=(0.0, 1.0)), 0.0, 1.0),
    (upwind_linear([1.0]), -2.0, 2.0),  # c_f holds for any state
])
def test_checkers_sample_the_declared_state_range(fl, lo, hi):
    seen = []

    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        seen.extend(np.ravel(x) for x in (uK, uL, uKK, uLL) if x is not None)
        return fl.evaluate(uK, uL, bn, uKK=uKK, uLL=uLL)

    check_flux_contract(NumericalFlux(
        name=fl.name, flux=fl.flux, stencil=fl.stencil, c_f=fl.c_f,
        evaluate=evaluate, wave_speed=fl.wave_speed, u_range=fl.u_range),
        n_samples=500)
    states = np.concatenate(seen)
    assert lo <= states.min() and states.max() <= hi
    assert states.min() < lo + 0.1 and states.max() > hi - 0.1


def test_jump_bound_checker_catches_understated_constant():
    honest = upwind_linear([1.0])
    lying = NumericalFlux(
        name="understated",
        flux=honest.flux,
        stencil=2,
        c_f=0.25,
        evaluate=honest.evaluate,
        wave_speed=honest.wave_speed,
    )
    rep = check_flux_contract(lying, n_samples=5000)
    assert rep.failed == ("jump bound",)
    a, b, n, ratio = rep.witness
    assert ratio > 0.25


@pytest.mark.parametrize("name", sorted(BROKEN_FLUXES))
def test_contract_check_names_what_a_broken_flux_breaks(name):
    # a NaN flux fails every property: each comparison fails on NaN
    make, failed = BROKEN_FLUXES[name]
    rep = check_flux_contract(make())
    assert rep.failed == failed and not rep.ok
    assert rep.witness is not None
    assert np.isnan(rep.max_ratio) == name.endswith(("nan", "1.5"))
    if name == "nan-above-1.5":
        a, b, n, ratio = rep.witness
        assert a > 1.5 and np.isnan(ratio)


def test_muscl_face_state_stays_in_convex_hull():
    # far states only enter through the limited slope, clamped so the face
    # state is between the adjacent cell values; sample and verify
    fl = muscl_three_point([1.0])
    rng = np.random.default_rng(9)
    a, b, kk, ll = rng.uniform(-2.0, 2.0, (4, 4000))
    vals = fl.evaluate(a, b, np.ones(4000), uKK=kk, uLL=ll)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)


def test_wave_speed_bounds_reported_speeds():
    fl = rusanov(burgers((1.0,)))
    a = np.array([0.3, -1.5])
    b = np.array([0.9, 0.2])
    n = np.ones((2, 1))
    lam = np.asarray(fl.wave_speed(a, b, n), dtype=float)
    assert np.all(lam >= np.abs(a) - 1e-12) and np.all(lam >= np.abs(b) - 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
    speed=st.floats(min_value=-3.0, max_value=3.0),
)
def test_upwind_conservativity_property(a, b, speed):
    fl = upwind_linear([speed])
    n = np.array([[1.0]])
    fwd = float(fl.evaluate(np.array([a]), np.array([b]), fl.flux.normal_speed(n))[0])
    bwd = float(fl.evaluate(np.array([b]), np.array([a]), fl.flux.normal_speed(-n))[0])
    assert fwd == -bwd


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
)
def test_rusanov_burgers_jump_bound_property(a, b):
    fl = rusanov(burgers((1.0,)))
    val = float(fl.evaluate(np.array([a]), np.array([b]), np.array([1.0]))[0])
    fa = 0.5 * a * a
    fb = 0.5 * b * b
    bound = fl.c_f * abs(a - b)
    assert abs(val - fa) <= bound * (1.0 + 1e-9) + 1e-15
    assert abs(val - fb) <= bound * (1.0 + 1e-9) + 1e-15
