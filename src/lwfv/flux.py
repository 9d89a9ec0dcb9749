"""Physical flux functions and two- or three-point numerical fluxes.

Every physical flux is F(u) = g(u) b, so a face with unit normal n sees F
only through its normal speed b . n (``FluxFunction.normal_speed``), and
every numerical flux takes that speed rather than the normal:
``evaluate(uK, uL, bn)`` returns the scalar normal component through faces
whose normal speeds are ``bn``.  A caller whose normals never change (the
solver's edges) computes bn once.  The contracts that the consistency
analysis relies on (``check_flux_contract`` samples the first three),
with bn = normal_speed(n):

* conservativity: evaluate(a, b, bn) == -evaluate(b, a, normal_speed(-n))
  exactly (normal_speed negates bit for bit, and so does every flux; the
  only slack is the sign of zero),
* consistency: evaluate(u, u, bn) equals F(u) . n,
* a jump bound: both |evaluate(a, b, bn) - F(a) . n| and
  |evaluate(a, b, bn) - F(b) . n| are at most c_f * |a - b|, where c_f is a
  constant the flux declares,
* locality: a face's flux depends only on the states of its own stencil,
  never on the other faces evaluated in the same call.

The check samples states in the range on which the flux declares c_f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FluxFunction",
    "NumericalFlux",
    "linear_advection",
    "burgers",
    "upwind_linear",
    "rusanov",
    "muscl_three_point",
    "FluxCheckReport",
    "check_flux_contract",
]


def _vec_label(v) -> str:
    return ",".join("%g" % float(x) for x in np.atleast_1d(v))


@dataclass(frozen=True, eq=False)
class FluxFunction:
    """A scalar conservation-law flux F(u) = g(u) b in R^d: a scalar
    ``profile`` g along a fixed ``direction`` b.

    ``value`` is vectorised: u of shape (...) maps to (..., d).
    ``deriv_bound(a, b)`` is elementwise and returns a sup bound for
    |F'(u)|_2 = |g'(u)| |b| on the interval between a and b, in either
    order: it must be symmetric bit for bit, deriv_bound(a, b) ==
    deriv_bound(b, a), so that a face's bound does not depend on its
    orientation (``check_flux_contract`` tests this through the flux's
    conservativity).
    """

    name: str
    direction: np.ndarray
    profile: Callable
    deriv_bound: Callable

    @property
    def dim(self) -> int:
        return self.direction.size

    def value(self, u):
        return self.profile(np.asarray(u, dtype=float))[..., None] * self.direction

    def normal_speed(self, n):
        """b . n for normals n of shape (..., d): the column products summed
        left to right, n[..., 0] * b[0] + n[..., 1] * b[1] + ...

        Every product and every sum negates exactly under n -> -n, so the
        result is bit-exactly antisymmetric in n.  ``n @ b`` is not: numpy
        dispatches matmul to different kernels depending on operand memory
        layout (a broadcast view of n and a materialised -n take different
        paths), and the kernels round differently.  Conservativity is
        checked with ==, hence the fuss.
        """
        n = np.asarray(n, dtype=float)
        b = self.direction
        out = n[..., 0] * b[0]
        for i in range(1, b.size):
            out = out + n[..., i] * b[i]
        return out


def linear_advection(b) -> FluxFunction:
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    speed = math.hypot(*bv)
    return FluxFunction(
        name=f"linear({_vec_label(bv)})",
        direction=bv,
        profile=lambda u: u,
        deriv_bound=lambda a, b: speed,
    )


def burgers(direction=(1.0,)) -> FluxFunction:
    dv = np.atleast_1d(np.asarray(direction, dtype=float))
    dnorm = math.hypot(*dv)

    # 0.5 * u ** 2 and max(|a|, |b|) * |d|, the last operation of each in
    # place on the array that the first allocated (scalars rebind)
    def profile(u):
        g = np.square(u)
        g *= 0.5
        return g

    def deriv_bound(a, b):
        lam = np.maximum(np.abs(a), np.abs(b))
        lam *= dnorm
        return lam

    return FluxFunction(
        name=f"burgers({_vec_label(dv)})",
        direction=dv,
        profile=profile,
        deriv_bound=deriv_bound,
    )


@dataclass(frozen=True)
class NumericalFlux:
    """A face flux with declared stencil width and jump-bound constant.

    ``evaluate(uK, uL, bn, uKK=..., uLL=...)`` is vectorised over faces,
    with ``bn = flux.normal_speed(n)`` the normal speed of each face (or
    one speed, broadcast, when all faces share a normal); the extra states
    are consumed only by three-point stencils (uKK is the cell behind K
    across its other face, uLL the cell behind L).  It must not write into
    the states: the solver hands it views of its ``stencil_states``, whose
    face jumps the streamed seminorm reads after the step.
    ``wave_speed`` bounds the normal signal speed between two states and
    feeds the time-step selection.  ``u_range`` is the state interval on
    which ``c_f`` holds; fluxes whose constant holds for any state declare
    (-inf, inf).  ``monotone`` declares a two-point flux nondecreasing in
    its first state and nonincreasing in its second, so that under the CFL
    condition of ``wave_speed`` every update is a convex combination of
    old states and the solver can enforce the maximum principle.
    """

    name: str
    flux: FluxFunction
    stencil: int
    c_f: float
    evaluate: Callable
    wave_speed: Callable
    u_range: tuple[float, float] = (-math.inf, math.inf)
    monotone: bool = False

    def __post_init__(self):
        if not math.isfinite(self.c_f):
            raise ValueError(f"jump-bound constant c_f = {self.c_f!r} of "
                             f"{self.name!r} is not finite")

    @property
    def dim(self) -> int:
        return self.flux.dim


def upwind_linear(b) -> NumericalFlux:
    """Donor-cell upwind flux for linear advection with velocity b."""
    F = linear_advection(b)
    bv = F.direction

    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        uK = np.asarray(uK, dtype=float)
        uL = np.asarray(uL, dtype=float)
        return np.where(bn >= 0.0, bn * uK, bn * uL) + 0.0

    def wave_speed(a, b_, n):
        return np.abs(F.normal_speed(n))

    return NumericalFlux(
        name=f"upwind({_vec_label(bv)})",
        flux=F,
        stencil=2,
        c_f=math.hypot(*bv),
        evaluate=evaluate,
        wave_speed=wave_speed,
        monotone=True,
    )


def rusanov(F: FluxFunction,
            u_range: tuple[float, float] = (-2.0, 2.0)) -> NumericalFlux:
    """Central flux with local dissipation (Rusanov 1961):

        F_sigma = (g(u_K) + g(u_L)) / 2 (b . n) - lambda_sigma (u_L - u_K) / 2

    for F(u) = g(u) b, with lambda_sigma = deriv_bound(u_K, u_L) taken on
    each face alone; it bounds |F'(u) . n| between the two states for any
    unit normal, and it is symmetric in them, so the face's two states need
    no sorting.  One face's flux therefore depends on its own two states
    only.

    ``wave_speed``, which feeds the time step, is global instead: the
    derivative bound over the whole range of the states it is given.  Taken
    on the initial data it is valid for the whole run: under the CFL
    condition it sets, each update is a convex combination of old states,
    so every later state stays inside the initial range, where the bound
    holds.  Local speeds at t = 0 carry no such guarantee.

    The declared jump-bound constant is the crude max |F'| + lambda_max / 2
    over ``u_range``, with lambda_max = deriv_bound(u_range) bounding every
    face's lambda_sigma there; it holds only on that range, so the flux
    records it.
    """
    g = F.profile

    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        # 0.5 * (g(uK) + g(uL)) * bn - 0.5 * lam * (uL - uK) + 0.0, in that
        # order, in place on the sum and the difference only: g and
        # deriv_bound may return their own input (linear advection's g does)
        uK = np.asarray(uK, dtype=float)
        uL = np.asarray(uL, dtype=float)
        lam = F.deriv_bound(uK, uL)
        out = np.add(g(uK), g(uL))
        out *= 0.5
        out *= bn
        diss = np.subtract(uL, uK)
        diss *= np.multiply(0.5, lam)
        out -= diss
        out += 0.0
        return out

    def wave_speed(a, b, n):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        lam = F.deriv_bound(float(np.min(np.minimum(a, b))),
                            float(np.max(np.maximum(a, b))))
        return lam * np.ones(np.broadcast(a, b).shape)

    lo, hi = u_range
    with np.errstate(over="ignore"):  # an overflow is rejected as c_f = inf
        lam_max = float(F.deriv_bound(lo, hi))
    return NumericalFlux(
        name=f"rusanov[{F.name}]",
        flux=F,
        stencil=2,
        c_f=lam_max + 0.5 * lam_max,
        evaluate=evaluate,
        wave_speed=wave_speed,
        u_range=(float(lo), float(hi)),
        monotone=True,
    )


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    same = a * b > 0.0
    return np.where(same, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def muscl_three_point(b) -> NumericalFlux:
    """Second-order upwind flux for linear advection with a minmod-limited
    reconstruction at the face.

    The face state is u_up + theta * (u_down - u_up) with theta in [0, 1/2]
    by the minmod limiter, so it stays a convex combination of the adjacent
    states and the two-point jump bound holds with c_f = |b|.
    """
    F = linear_advection(b)
    bv = F.direction

    def evaluate(uK, uL, bn, uKK=None, uLL=None):
        uK = np.asarray(uK, dtype=float)
        uL = np.asarray(uL, dtype=float)
        if uKK is None:
            uKK = uK
        if uLL is None:
            uLL = uL
        uKK = np.asarray(uKK, dtype=float)
        uLL = np.asarray(uLL, dtype=float)
        face_up_k = uK + 0.5 * _minmod(uK - uKK, uL - uK)
        face_up_l = uL + 0.5 * _minmod(uL - uLL, uK - uL)
        return np.where(bn >= 0.0, bn * face_up_k, bn * face_up_l) + 0.0

    def wave_speed(a, b_, n):
        return np.abs(F.normal_speed(n))

    return NumericalFlux(
        name=f"muscl({_vec_label(bv)})",
        flux=F,
        stencil=3,
        c_f=math.hypot(*bv),
        evaluate=evaluate,
        wave_speed=wave_speed,
    )


# ---------------------------------------------------------------------------
# the contract check
# ---------------------------------------------------------------------------


PROPERTIES = ("jump bound", "conservativity", "consistency")


@dataclass(frozen=True)
class FluxCheckReport:
    """What ``check_flux_contract`` found.

    ``failed`` names the properties that failed, in the order of
    ``PROPERTIES``, and ``witness`` is the worst sample (a, b, n, value) of
    the first of them: its value is the jump ratio, |forward + backward| or
    the relative consistency error (of b = a).  ``max_ratio`` is the worst
    jump ratio, against ``tolerance``, over ``n_samples`` state pairs.
    """

    name: str
    failed: tuple[str, ...]
    max_ratio: float
    tolerance: float
    witness: tuple | None
    n_samples: int

    @property
    def ok(self) -> bool:
        return not self.failed


def _sampled_range(flux: NumericalFlux) -> tuple[float, float]:
    """Where the check samples states: the flux's ``u_range``, or (-2, 2)
    for a flux whose c_f holds for any state."""
    lo, hi = flux.u_range
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else (-2.0, 2.0)


NORMAL_COUNT = 16  # evenly spaced unit normals the 2d checks sample


def _unit_normals(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = 2.0 * math.pi * np.arange(NORMAL_COUNT) / NORMAL_COUNT
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


_HALTON_BASES = (2, 3, 5, 7)


def _radical_inverse(base: int, n: int) -> np.ndarray:
    """The first n points of the van der Corput sequence in ``base``.

    Point i is sum_k d_k(i) base^-(k+1) over the base-``base`` digits d_k of
    i, summed from the lowest digit up, as scipy's unscrambled Halton sums
    them, so the points agree bit for bit.  Each pass appends one digit.
    """
    seq = np.zeros(1)
    b2r = 1.0 / base
    while seq.size < n:
        seq = (seq[None, :] + (np.arange(base) * b2r)[:, None]).ravel()
        b2r /= base
    return seq[:n]


def _halton_states(u_range, n_samples: int, dims: int) -> np.ndarray:
    """n_samples unscrambled Halton points (Halton 1960) in [lo, hi)^dims."""
    lo, hi = u_range
    pts = np.stack([_radical_inverse(b, n_samples)
                    for b in _HALTON_BASES[:dims]], axis=1)
    return lo + (hi - lo) * pts


def check_flux_contract(flux: NumericalFlux,
                        n_samples: int = 20000) -> FluxCheckReport:
    """Sample the jump bound, conservativity and consistency of the module
    docstring over one deterministic low-discrepancy set of states (and
    stencil extensions) in the flux's state range, at every sampled unit
    normal n, with bn = normal_speed(n) and f = evaluate(a, b, bn):

    * jump bound: max(|f - F(a) . n|, |f - F(b) . n|) / |a - b| is at most
      c_f (1 + 1e-9) on the pairs with a != b;
    * conservativity: f == -evaluate(b, a, normal_speed(-n)), with the
      stencil extensions swapped, bit for bit on every pair, so the check
      covers the antisymmetry of normal_speed too;
    * consistency: evaluate(u, u, bn), with u the first state of each pair,
      reproduces F(u) . n within 1e-14 relative.

    Each property's worst sample is the first NaN if there is one (argmax
    takes NaN for the largest value), and every comparison fails on NaN.
    """
    dims = 2 if flux.stencil == 2 else 4
    u_range = _sampled_range(flux)
    states = _halton_states(u_range, n_samples, dims)
    a, b = states[:, 0], states[:, 1]
    uKK, uLL = (states[:, 2], states[:, 3]) if dims == 4 else (None, None)
    scale = max(abs(u_range[0]), abs(u_range[1]), 1.0)
    keep = np.abs(a - b) > 1e-12 * scale
    ak, bk = a[keep], b[keep]
    jumps = np.abs(ak - bk)
    Fa, Fb, Fu = (flux.flux.value(x) for x in (ak, bk, a))

    normals = _unit_normals(flux.dim)
    tops = {p: [] for p in PROPERTIES}  # per normal: (worst value, sample)
    for n in normals:
        bn = flux.flux.normal_speed(n)
        fwd = flux.evaluate(a, b, bn, uKK=uKK, uLL=uLL)
        f = fwd[keep]
        bwd = flux.evaluate(b, a, flux.flux.normal_speed(-n), uKK=uLL, uLL=uKK)
        exact = Fu @ n
        diag = flux.evaluate(a, a, bn, uKK=a, uLL=a)
        # a sum of two doubles rounds to 0 only when it is exactly 0, so
        # |fwd + bwd| is 0 exactly where fwd == -bwd (and NaN for infinities)
        for prop, x in zip(PROPERTIES, (
                np.maximum(np.abs(f - Fa @ n), np.abs(f - Fb @ n)) / jumps,
                np.abs(fwd + bwd),
                np.abs(diag - exact) / np.maximum(np.abs(exact), 1.0))):
            i = int(np.argmax(x))
            tops[prop].append((float(x[i]), i))

    tol = flux.c_f * (1.0 + 1e-9)
    worst, failed, witness = {}, [], None
    for prop, bound, (u, v) in zip(PROPERTIES, (tol, 0.0, 1e-14),
                                   ((ak, bk), (a, b), (a, a))):
        k = int(np.argmax([value for value, _ in tops[prop]]))
        worst[prop], i = tops[prop][k]
        if not worst[prop] <= bound:
            failed.append(prop)
            witness = witness or (float(u[i]), float(v[i]), normals[k].copy(),
                                  worst[prop])
    return FluxCheckReport(
        name=flux.name, failed=tuple(failed), max_ratio=worst["jump bound"],
        tolerance=tol, witness=witness, n_samples=int(ak.size),
    )
