"""Discrete gradients on dual volumes and their weak convergence diagnostics.

The discrete gradient of a smooth function phi assigns to each interior face
the vector (|sigma| / |D_sigma|) * (phi_L - phi_K) * n, where phi_K samples
phi at the cell anchor, and zero to boundary faces.  Pairing it against a
compactly supported vector field through the dual volumes converges to the
integral of grad(phi) . psi as the mesh is refined, with an a-priori bound
proportional to the mesh size; ``gradient_weakstar_study`` measures exactly
that gap under refinement.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .mesh import (Mesh, MeshError, MeshFamily, MeshQuality, compute_quality,
                   refine, validate)

__all__ = [
    "SmoothTestFunction",
    "VectorTestFunction",
    "TimeGrid",
    "InvariantViolation",
    "polynomial_bump",
    "bump_corpus_spatial",
    "vector_corpus",
    "bump_corpus_spacetime",
    "discrete_gradient",
    "sup_bound_check",
    "weak_pairing",
    "gradient_weakstar_study",
    "GradStudyRow",
]

SUP_BOUND_TOL = 1e-12
# the space-time corpus vanishes for t >= (1 - SPACETIME_MARGIN) * t_final
SPACETIME_MARGIN = 0.2
# the weak-star reference grid is this many times finer than the finest level
REFERENCE_FACTOR = 4
# the polish of the declared sups: a (2 * POLISH_HALF + 1)^d stencil whose
# spacing shrinks by POLISH_SHRINK per round
POLISH_HALF = 4
POLISH_SHRINK = 4.0
# the polish starts from the best point of a SUP_GRID^d grid over the box
SUP_GRID = 61


class InvariantViolation(Exception):
    """A guaranteed inequality failed at runtime."""


@dataclass(frozen=True)
class TimeGrid:
    """Finite, strictly increasing time nodes t_0 = 0 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two time nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("time nodes must be finite")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", t)

    @classmethod
    def uniform(cls, t_final: float, n_steps: int) -> "TimeGrid":
        return cls(np.linspace(0.0, t_final, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def t_final(self) -> float:
        return float(self.nodes[-1])

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def dt_max(self) -> float:
        return float(self.deltas.max())


@dataclass(frozen=True)
class SmoothTestFunction:
    """A compactly supported smooth scalar function phi(x, t) = w(x) g(t).

    Sums of such products are dense in the smooth compactly supported
    functions of space and time, and the pairing and the weak gap are
    linear in phi, so this one form covers the weak formulation.  ``w`` and
    ``grad_w`` are vectorised over the leading axes of x (shape (..., d)),
    ``g`` and ``dg`` over t.  w vanishes outside the box ``support``, and g
    from t_cut on (t_cut may be +inf for time-constant functions).  The
    declared sups are upper bounds, checked in the test suite by sampling,
    against closed forms and against an independent optimiser.
    """

    name: str
    dim: int
    w: Callable
    grad_w: Callable
    g: Callable
    dg: Callable
    support: tuple[np.ndarray, np.ndarray]
    t_cut: float
    grad_sup: float
    dt_sup: float

    def value(self, x, t=0.0):
        return self.w(x) * self.g(t)

    def grad(self, x, t=0.0):
        gw = self.grad_w(x)
        gt = np.asarray(self.g(t), dtype=float)
        return gw * gt[..., None] if gt.ndim else gw * gt

    def dt(self, x, t=0.0):
        return self.w(x) * self.dg(t)


@dataclass(frozen=True)
class VectorTestFunction:
    """Compactly supported smooth vector field with declared Jacobian sup.

    ``jacobian_sup`` bounds both the Euclidean Lipschitz constant and the
    pointwise divergence, which is what the pairing estimates consume.
    """

    name: str
    dim: int
    components: tuple[SmoothTestFunction, ...]
    jacobian_sup: float

    def value(self, x):
        return np.stack([c.value(x, 0.0) for c in self.components], axis=-1)


# ---------------------------------------------------------------------------
# polynomial bump corpus
# ---------------------------------------------------------------------------


def _poly_profile(s: np.ndarray, k: int) -> np.ndarray:
    """(1 - s^2)^k clipped to |s| <= 1."""
    inside = np.abs(s) <= 1.0
    return np.where(inside, (1.0 - np.clip(s, -1, 1) ** 2) ** k, 0.0)


def _poly_profile_deriv(s: np.ndarray, k: int) -> np.ndarray:
    inside = np.abs(s) <= 1.0
    sc = np.clip(s, -1, 1)
    return np.where(inside, -2.0 * k * sc * (1.0 - sc**2) ** (k - 1), 0.0)


def _numeric_sup(f: Callable, lo: np.ndarray, hi: np.ndarray) -> float:
    """Max of a nonnegative function over a box: dense grid plus a stencil polish.

    ``f`` maps points of shape (m, d) to m values.  The best of a SUP_GRID^d grid
    seeds a (2 POLISH_HALF + 1)^d stencil clipped to the box; each round
    moves to the best value seen so far and shrinks the spacing by
    POLISH_SHRINK.  The stencil spans POLISH_HALF / POLISH_SHRINK = 1 old
    spacing beyond its centre, so a smooth maximum bracketed by the grid
    stays inside every later stencil.  Callers multiply the result by
    (1 + 1e-9) to make it a sup.
    """
    # The stop.  Near a smooth maximum x*, f = f* - a e^2 along each axis,
    # e = x - x*.  The best point x of a round of spacing s has |e| <= s / 2,
    # so it falls short of f* by a e^2 <= a s^2 / 4, while the larger of its
    # drops to the neighbours x - s and x + s is a (s^2 + 2 |e| s) >= a s^2.
    # So a quarter of the larger drop, summed over the axes, bounds the
    # shortfall, and the polish stops once that is at most eps * f(x), the
    # rounding of f itself, 4.5e6 times inside the callers' 1e-9.  At a kink
    # or a maximum on the box's side the drops shrink like s, not s^2, and
    # at the stencil's edge x has no neighbour: there the spacing falls on
    # to the rounding of the box's coordinates.
    axes = [np.linspace(lo[i], hi[i], SUP_GRID) for i in range(lo.size)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = f(pts)
    i = int(np.argmax(vals))
    x, best = pts[i], float(vals[i])
    n = 2 * POLISH_HALF + 1
    ticks = np.arange(-POLISH_HALF, POLISH_HALF + 1, dtype=float)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*[ticks] * lo.size,
                                                       indexing="ij")], axis=-1)
    axis_stride = n ** np.arange(lo.size - 1, -1, -1)  # flat-index step along each axis
    step = (hi - lo) / (SUP_GRID - 1)
    rounding = np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    while np.any(step > rounding):
        cand = np.clip(x + offsets * step, lo, hi)
        vals = f(cand)
        i = int(np.argmax(vals))
        if vals[i] > best:
            x, best = cand[i], float(vals[i])
        step = step / POLISH_SHRINK
        if all(0 < j < n - 1 for j in np.unravel_index(i, (n,) * lo.size)):
            drop = vals[i] - np.minimum(vals[i - axis_stride], vals[i + axis_stride])
            if 0.25 * np.sum(drop) <= np.finfo(float).eps * vals[i]:
                break
    return best


def polynomial_bump(
    center: Sequence[float],
    halfwidth: Sequence[float],
    k: int = 4,
    amplitude: float = 1.0,
    time_profile: str | None = None,
    t_cut: float = math.inf,
    name: str = "",
) -> SmoothTestFunction:
    """Tensor-product polynomial bump, optionally modulated in time.

    The spatial part is amplitude * prod_i (1 - s_i^2)^k with
    s_i = (x_i - c_i) / w_i, which vanishes with k-th order contact on the
    boundary of the support box.  Time profiles:

    * None: constant in time (t_cut ignored, set to +inf),
    * "decay": g(t) = (1 - (t / t_cut)^2)^k on [0, t_cut), so g(0) = 1,
    * "modulated": the decay profile times (1 - 2 t / t_cut), which changes
      sign inside the support.

    The declared sups come from :func:`_numeric_sup`: ``grad_sup`` is
    max |grad w| over the support box times max |g| over [0, t_cut], and
    ``dt_sup`` is |amplitude| (max |w|, attained at the centre) times
    max |g'| over [0, t_cut]; each spatial or time-derivative max carries a
    (1 + 1e-9) factor, so both are sups and not grid maxima.
    """
    c = np.asarray(center, dtype=float)
    w = np.asarray(halfwidth, dtype=float)
    d = c.size
    if np.any(w <= 0):
        raise ValueError("halfwidths must be positive")

    def wfun(x):
        x = np.asarray(x, dtype=float)
        s = (x - c) / w
        return amplitude * np.prod(_poly_profile(s, k), axis=-1)

    def grad_wfun(x):
        x = np.asarray(x, dtype=float)
        s = (x - c) / w
        prof = _poly_profile(s, k)
        dprof = _poly_profile_deriv(s, k) / w
        out = np.empty(x.shape)
        for i in range(d):
            others = np.prod(np.delete(prof, i, axis=-1), axis=-1)
            out[..., i] = amplitude * dprof[..., i] * others
        return out

    if time_profile is None:
        g = lambda t: np.ones_like(np.asarray(t, dtype=float))
        dg = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        t_cut_eff = math.inf
        g_abs_max = 1.0
        dg_abs_max = 0.0
    else:
        if not (t_cut > 0 and math.isfinite(t_cut)):
            raise ValueError("time profiles need a finite positive t_cut")
        if time_profile not in ("decay", "modulated"):
            raise ValueError(f"unknown time profile {time_profile!r}")
        t_cut_eff = t_cut
        modulated = time_profile == "modulated"

        # the spatial profile of s = t / t_cut, kept on [0, t_cut) only
        def g(t):
            s = np.asarray(t, dtype=float) / t_cut
            sc = np.clip(s, 0, 1)
            val = _poly_profile(sc, k)
            if modulated:
                val = val * (1.0 - 2.0 * sc)
            return np.where((s >= 0) & (s < 1), val, 0.0)

        def dg(t):
            s = np.asarray(t, dtype=float) / t_cut
            sc = np.clip(s, 0, 1)
            val = _poly_profile_deriv(sc, k)
            if modulated:
                val = val * (1.0 - 2.0 * sc) - 2.0 * _poly_profile(sc, k)
            return np.where((s >= 0) & (s < 1), val / t_cut, 0.0)

        span = (np.zeros(1), np.full(1, t_cut))
        g_abs_max = _numeric_sup(lambda t: np.abs(g(t[:, 0])), *span)
        dg_abs_max = _numeric_sup(lambda t: np.abs(dg(t[:, 0])), *span) * (1.0 + 1e-9)

    lo = c - w
    hi = c + w
    grad_norm = lambda x: np.linalg.norm(grad_wfun(x), axis=-1)
    spatial_grad_sup = _numeric_sup(grad_norm, lo, hi) * (1.0 + 1e-9)
    w_abs_sup = abs(amplitude)  # attained at the center

    return SmoothTestFunction(
        name=name or f"bump(k={k})",
        dim=d,
        w=wfun,
        grad_w=grad_wfun,
        g=g,
        dg=dg,
        support=(lo, hi),
        t_cut=t_cut_eff,
        grad_sup=spatial_grad_sup * g_abs_max,
        dt_sup=w_abs_sup * dg_abs_max,
    )


def bump_corpus_spatial(dim: int) -> list[SmoothTestFunction]:
    """Time-constant test functions supported strictly inside the unit box."""
    if dim == 1:
        return [
            polynomial_bump([0.5], [0.32], k=4, name="bump-center"),
            polynomial_bump([0.42], [0.22], k=3, amplitude=1.5, name="bump-left"),
            polynomial_bump([0.6], [0.28], k=5, amplitude=0.8, name="bump-right"),
        ]
    if dim == 2:
        return [
            polynomial_bump([0.5, 0.5], [0.29, 0.29], k=4, name="bump-center"),
            polynomial_bump([0.45, 0.55], [0.22, 0.25], k=3, amplitude=1.5,
                            name="bump-offset"),
            polynomial_bump([0.55, 0.45], [0.3, 0.21], k=5, amplitude=0.8,
                            name="bump-squeezed"),
        ]
    raise ValueError(f"no corpus for dim {dim}")


def vector_corpus(dim: int) -> list[VectorTestFunction]:
    """Compactly supported vector fields paired against discrete gradients."""
    def pack(name, comps):
        def jac_norm(x):
            rows = [c.grad(x, 0.0) for c in comps]  # each (..., d)
            J = np.stack(rows, axis=-2)  # (..., comp, d)
            spec = np.linalg.norm(J, ord=2, axis=(-2, -1))
            div = np.abs(sum(rows[i][..., i] for i in range(dim)))
            return np.maximum(spec, div)

        lo = np.min([c.support[0] for c in comps], axis=0)
        hi = np.max([c.support[1] for c in comps], axis=0)
        sup = _numeric_sup(jac_norm, lo, hi) * (1.0 + 1e-9)
        return VectorTestFunction(name=name, dim=dim, components=tuple(comps),
                                  jacobian_sup=sup)

    if dim == 1:
        return [
            pack("psi-a", [polynomial_bump([0.48], [0.3], k=4)]),
            pack("psi-b", [polynomial_bump([0.56], [0.25], k=3, amplitude=1.2)]),
        ]
    if dim == 2:
        return [
            pack(
                "psi-a",
                [
                    polynomial_bump([0.5, 0.48], [0.28, 0.3], k=4),
                    polynomial_bump([0.48, 0.55], [0.3, 0.24], k=3, amplitude=0.9),
                ],
            ),
            pack(
                "psi-b",
                [
                    polynomial_bump([0.55, 0.5], [0.24, 0.27], k=3, amplitude=1.1),
                    polynomial_bump([0.46, 0.46], [0.26, 0.26], k=5, amplitude=0.7),
                ],
            ),
        ]
    raise ValueError(f"no corpus for dim {dim}")


def bump_corpus_spacetime(dim: int, t_final: float) -> list[SmoothTestFunction]:
    """Four space-time test functions: three decaying bumps at different
    centers and scales plus one with a sign-changing time modulation.

    All vanish for t >= (1 - SPACETIME_MARGIN) * t_final so the final jump
    terms of the residual decomposition drop out on any admissible time grid.
    """
    t_cut = (1.0 - SPACETIME_MARGIN) * t_final
    if dim == 1:
        specs = [
            ([0.5], [0.3], 4, 1.0, "decay"),
            ([0.42], [0.24], 3, 1.4, "decay"),
            ([0.62], [0.22], 5, 0.9, "decay"),
            ([0.52], [0.28], 4, 1.0, "modulated"),
        ]
    elif dim == 2:
        specs = [
            ([0.5, 0.5], [0.28, 0.28], 4, 1.0, "decay"),
            ([0.44, 0.54], [0.22, 0.24], 3, 1.4, "decay"),
            ([0.58, 0.44], [0.24, 0.2], 5, 0.9, "decay"),
            ([0.5, 0.52], [0.26, 0.26], 4, 1.0, "modulated"),
        ]
    else:
        raise ValueError(f"no corpus for dim {dim}")
    out = []
    for i, (c, w, k, amp, prof) in enumerate(specs):
        out.append(
            polynomial_bump(c, w, k=k, amplitude=amp, time_profile=prof,
                            t_cut=t_cut, name=f"phi{i}-{prof}")
        )
    return out


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------


def discrete_gradient(mesh: Mesh, phi: SmoothTestFunction) -> np.ndarray:
    """The (n_faces, d) gradient of phi sampled at cell anchors at time 0.

    Interior faces carry (|sigma| / |D_sigma|) (phi_L - phi_K) n; boundary
    faces carry the zero vector.
    """
    vals = np.zeros((mesh.n_faces, mesh.dim))
    mask = mesh.interior
    pk = np.asarray(phi.value(mesh.cell_center), dtype=float)
    jump = pk[mesh.face_L[mask]] - pk[mesh.face_K[mask]]
    coeff = mesh.face_area[mask] / mesh.face_dsig[mask] * jump
    vals[mask] = coeff[:, None] * mesh.face_normal[mask]
    return vals


def sup_bound_check(grad: np.ndarray, quality: MeshQuality,
                    phi: SmoothTestFunction) -> float:
    """Worst ratio of |grad| to theta_grad * sup|grad phi| over faces.

    Raises InvariantViolation when the ratio exceeds 1 + 1e-12; the bound is
    a theorem for discrete gradients of Lipschitz functions, so a breach
    means either the array is not such a gradient or the declared sup lies.
    """
    bound = quality.theta_grad * phi.grad_sup
    sup = float(np.max(np.linalg.norm(grad, axis=-1)))
    if bound == 0.0:
        if not sup <= 0.0:
            raise InvariantViolation("nonzero field against a zero bound")
        return 0.0
    ratio = sup / bound
    if not ratio <= 1.0 + SUP_BOUND_TOL:
        raise InvariantViolation(
            f"face gradient sup {sup:.6e} exceeds "
            f"theta_grad * |grad phi|_inf = {bound:.6e} (ratio {ratio:.12f})"
        )
    return ratio


def _dual_mean_points(mesh: Mesh):
    """Quadrature points and weights approximating means over dual volumes.

    For each side, the rule combines the anchor and the face centroid with
    the cone centroid weights (1, dim) / (dim + 1), weighted by the dual
    split measures; it is exact for affine integrands on cone dual volumes.
    """
    m = mesh.n_faces
    d = mesh.dim
    xk = mesh.cell_center[mesh.face_K]
    xl = np.where(
        (mesh.face_L >= 0)[:, None],
        mesh.cell_center[np.maximum(mesh.face_L, 0)],
        mesh.face_centroid,
    )
    pts = np.stack([xk, xl, mesh.face_centroid], axis=1)  # (m, 3, d)
    wk = mesh.face_dk / mesh.face_dsig
    wl = mesh.face_dl / mesh.face_dsig
    apex = 1.0 / (d + 1.0)
    base = d / (d + 1.0)
    wts = np.stack([wk * apex, wl * apex, base * np.ones(m)], axis=1)
    return pts, wts


def weak_pairing(mesh: Mesh, grad: np.ndarray, psi: VectorTestFunction) -> float:
    """Sum over faces of |D_sigma| * grad_sigma . (mean of psi over D_sigma).

    The dual-volume mean of psi is approximated by the point rule of
    :func:`_dual_mean_points`.
    """
    pts, wts = _dual_mean_points(mesh)
    psi_vals = psi.value(pts.reshape(-1, mesh.dim)).reshape(pts.shape)
    psi_bar = np.einsum("fq,fqd->fd", wts, psi_vals)
    return float(np.einsum("f,fd,fd->", mesh.face_dsig, grad, psi_bar))


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradStudyRow:
    level: int
    h: float
    theta_grad: float
    psi_name: str
    pairing: float
    reference: float
    gap: float
    apriori_bound: float
    l1_distance: float


def _reference_pairing(phi: SmoothTestFunction, psi: VectorTestFunction,
                       box, n_ref: int, dim: int) -> float:
    """High-order quadrature of integral grad(phi) . psi over the domain box:
    the tensor product of one composite Gauss rule per axis, n_ref panels
    of 6 points (1d) or 4 points (2d) each."""
    npts = 6 if dim == 1 else 4
    axes = []
    for a, b in zip(*box):
        edges = np.linspace(a, b, n_ref + 1)
        px, wx = quadrature.interval_rule(edges[:-1], edges[1:], npts)
        axes.append((px.ravel(), wx.ravel()))
    grids = np.meshgrid(*(px for px, _ in axes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = functools.reduce(np.multiply.outer, (wx for _, wx in axes)).ravel()
    gp = phi.grad(pts, 0.0)
    pv = psi.value(pts)
    return float(np.einsum("q,qd,qd->", w, gp, pv))


def _l1_gradient_distance(mesh: Mesh, grad: np.ndarray,
                          phi: SmoothTestFunction) -> float:
    """L1 distance between the face-constant gradient (spread over dual
    volumes) and the true gradient, by the dual point rule (diagnostic)."""
    pts, wts = _dual_mean_points(mesh)
    gp = phi.grad(pts.reshape(-1, mesh.dim), 0.0).reshape(pts.shape)
    diff = np.linalg.norm(gp - grad[:, None, :], axis=-1)
    per_face = np.einsum("fq,fq->f", wts, diff)
    return float(quadrature.rowdot(mesh.face_dsig, per_face))


def gradient_weakstar_study(
    family: MeshFamily,
    phi: SmoothTestFunction,
    psi_list: Sequence[VectorTestFunction],
    levels: int,
) -> list[GradStudyRow]:
    """Measure the dual pairing of the discrete gradient against reference
    integrals under refinement, asserting the a-priori gap bound per level;
    one row per level and psi.  A level that fails ``validate`` raises a
    MeshError naming the family and the level.

    The reference integral is computed once per psi by composite Gauss
    quadrature on a grid ``REFERENCE_FACTOR`` times finer than the finest
    study level.
    """
    meshes = refine(family, levels)
    for lvl, mesh in enumerate(meshes):
        try:
            validate(mesh, raise_on_failure=True)
        except MeshError as exc:
            raise MeshError(f"family {family.name!r}, level {lvl}: {exc}") from exc
    dim = meshes[0].dim
    box = meshes[0].box
    # panels per axis of the reference grid: REFERENCE_FACTOR times the
    # effective per-axis resolution of the finest study mesh
    extent = float(np.max(box[1] - box[0]))
    axis_h = meshes[-1].h_max / math.sqrt(dim)
    n_ref = REFERENCE_FACTOR * int(math.ceil(extent / axis_h))
    refs = {
        psi.name: _reference_pairing(phi, psi, box, n_ref, dim) for psi in psi_list
    }

    omega = meshes[0].domain_measure
    rows: list[GradStudyRow] = []
    for lvl, mesh in enumerate(meshes):
        qual = compute_quality(mesh)
        grad = discrete_gradient(mesh, phi)
        sup_bound_check(grad, qual, phi)
        l1_distance = _l1_gradient_distance(mesh, grad, phi)
        for psi in psi_list:
            pairing = weak_pairing(mesh, grad, psi)
            ref = refs[psi.name]
            gap = abs(pairing - ref)
            bound = (
                (1.0 + qual.theta_grad)
                * phi.grad_sup
                * psi.jacobian_sup
                * omega
                * mesh.h_max
            )
            if not gap <= bound * (1.0 + 1e-9):
                raise InvariantViolation(
                    f"family {family.name!r}, level {lvl}: weak pairing gap "
                    f"{gap:.6e} exceeds a-priori bound {bound:.6e} (psi {psi.name})"
                )
            rows.append(
                GradStudyRow(
                    level=lvl,
                    h=mesh.h_max,
                    theta_grad=qual.theta_grad,
                    psi_name=psi.name,
                    pairing=pairing,
                    reference=ref,
                    gap=gap,
                    apriori_bound=bound,
                    l1_distance=l1_distance,
                )
            )
    return rows
