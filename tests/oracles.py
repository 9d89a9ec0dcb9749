"""Independent reference computations the tests freeze expectations against.

Everything in this file is deliberately written as plain loops over raw
mesh arrays (or exact rational arithmetic) and never calls the library's
own operators, so a bug in the package cannot hide behind itself.  The
price is O(n^2)-ish scaling in places; keep the inputs small.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from lwfv.quadrature import GAUSS_ORDER

# Radon's 7-point degree-5 rule on a triangle (1948): the centroid and two
# three-point orbits of barycentric points, with weights as fractions of
# the triangle's area.
_R15 = 15.0 ** 0.5


def _orbit(a):
    return [(a, a, 1.0 - 2.0 * a), (a, 1.0 - 2.0 * a, a), (1.0 - 2.0 * a, a, a)]


TRIANGLE_RULE = ([((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 9.0 / 40.0)]
                 + [(b, (155.0 - _R15) / 1200.0) for b in _orbit((6.0 - _R15) / 21.0)]
                 + [(b, (155.0 + _R15) / 1200.0) for b in _orbit((6.0 + _R15) / 21.0)])
# Gauss points per time slab of the weak gap's flux term
TIME_POINTS = 6


def brute_cell_partition_defect(mesh) -> float:
    """|sum of cell volumes - domain measure| summed the dumb way."""
    total = 0.0
    for c in range(mesh.n_cells):
        total += float(mesh.cell_volume[c])
    return abs(total - mesh.domain_measure)


def brute_dual_partition_defect(mesh) -> float:
    total = 0.0
    for f in range(mesh.n_faces):
        total += float(mesh.face_dsig[f])
    return abs(total - mesh.domain_measure)


def brute_face_closure(mesh) -> float:
    """Worst |sum_sigma |sigma| n_{K,sigma}| over cells, outward signs by hand.

    Every face adds area * normal to its K cell and subtracts it from its L
    cell (when it has one), one scalar at a time.
    """
    acc = [[0.0] * mesh.dim for _ in range(mesh.n_cells)]
    for f in range(mesh.n_faces):
        area = float(mesh.face_area[f])
        for axis in range(mesh.dim):
            flow = area * float(mesh.face_normal[f, axis])
            acc[int(mesh.face_K[f])][axis] += flow
            if mesh.face_L[f] >= 0:
                acc[int(mesh.face_L[f])][axis] -= flow
    worst = 0.0
    for vec in acc:
        worst = max(worst, sum(v * v for v in vec) ** 0.5)
    return worst


def brute_jump_seminorm(mesh, values) -> float:
    """Sum over interior faces of |D_sigma| |u_K - u_L|, scalar loop."""
    total = 0.0
    for f in range(mesh.n_faces):
        K, L = int(mesh.face_K[f]), int(mesh.face_L[f])
        if L < 0:
            continue
        total += float(mesh.face_dsig[f]) * abs(values[K] - values[L])
    return total


def brute_spacetime_seminorm(mesh, deltas, values):
    """(space_part, time_part) of a cell/time-node array, slab-mean convention.

    values has shape (N+1, n_cells); the space part weights slab n by its
    start value u^n, the time part sums jumps u^n - u^{n-1} for n >= 1.
    """
    values = np.asarray(values, dtype=float)
    n_slabs = len(deltas)
    space = 0.0
    for n in range(n_slabs):
        space += deltas[n] * brute_jump_seminorm(mesh, values[n])
    time = 0.0
    for n in range(1, n_slabs):
        acc = 0.0
        for c in range(mesh.n_cells):
            acc += float(mesh.cell_volume[c]) * abs(values[n][c] - values[n - 1][c])
        time += deltas[n] * acc
    return space, time


def indicator_cell_means(edges_lo, edges_hi, a, b):
    """Exact means of the indicator of [a, b) on 1d cells, as Fractions."""
    out = []
    for lo, hi in zip(edges_lo, edges_hi):
        lo, hi, aa, bb = Fraction(lo), Fraction(hi), Fraction(a), Fraction(b)
        overlap = max(Fraction(0), min(hi, bb) - max(lo, aa))
        out.append(overlap / (hi - lo))
    return out


def dense_cell_means_1d(edges, fn, nsub: int = 64) -> np.ndarray:
    """Composite-midpoint cell means of a pointwise callable on 1d cells."""
    means = np.empty(len(edges) - 1)
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        xs = lo + (np.arange(nsub) + 0.5) * (hi - lo) / nsub
        means[i] = float(np.mean(fn(xs)))
    return means


def advected_point_values(u0_scalar, b, t, xs, period=1.0):
    """Exact solution of u_t + b u_x = 0 with periodic wrap on [0, period)."""
    shifted = np.mod(xs - b * t, period)
    return u0_scalar(shifted)


def burgers_characteristic_values(u0_scalar, u0_prime, t, xs, iters=60):
    """Pre-shock solution of u_t + (u^2/2)_x = 0 by Newton on the foot point.

    Solves xi + t*u0(xi) = x for each x; only valid for t below the
    gradient-catastrophe time 1 / max(-u0').
    """
    xs = np.asarray(xs, dtype=float)
    xi = xs.copy()
    for _ in range(iters):
        g = xi + t * u0_scalar(xi) - xs
        dg = 1.0 + t * u0_prime(xi)
        xi = xi - g / dg
    return u0_scalar(xi)


def brute_upwind_step(values_sorted, nu):
    """One periodic donor-cell step for speed-1 advection at CFL number nu."""
    u = np.asarray(values_sorted, dtype=float)
    return u - nu * (u - np.roll(u, 1))


def brute_muscl_step(values_sorted, nu):
    """One periodic step of the limited second-order upwind scheme, speed 1.

    Face i+1/2 state: u_i + 0.5*minmod(u_i - u_{i-1}, u_{i+1} - u_i).
    """
    u = np.asarray(values_sorted, dtype=float)

    def minmod(a, b):
        out = np.where((a > 0) & (b > 0), np.minimum(a, b), 0.0)
        return np.where((a < 0) & (b < 0), np.maximum(a, b), out)

    face = u + 0.5 * minmod(u - np.roll(u, 1), np.roll(u, -1) - u)
    return u - nu * (face - np.roll(face, 1))


def brute_l1_error(mesh, values, exact_means) -> float:
    total = 0.0
    for c in range(mesh.n_cells):
        total += float(mesh.cell_volume[c]) * abs(values[c] - exact_means[c])
    return total


def sorted_cell_order(mesh) -> np.ndarray:
    """Cell ids ordered left to right; only meaningful on 1d meshes."""
    return np.argsort(mesh.cell_center[:, 0])


def cell_edges_1d(mesh):
    """Reconstruct (lo, hi) interval endpoints per cell from center/volume."""
    lo = mesh.cell_center[:, 0] - 0.5 * mesh.cell_volume
    hi = mesh.cell_center[:, 0] + 0.5 * mesh.cell_volume
    return lo, hi


def brute_flux_pairing_terms(mesh, deltas, values, num_flux, phis, nodes,
                             boundary):
    """T2, T2_tilde and R of a stored history against each test function,
    as one {name: (value, mass)} per phi, with the |R| mass under "r_abs".

    Straight from the formulas of the decomposition, one interior face and
    one time slab at a time:

        T2       = sum_n dt_n sum_s |s| F_s (phi^n_K - phi^n_L)
        T2_tilde = sum_n dt_n sum_s |s| (phi^n_K - phi^n_L)
                   (|D_Ks| f(u_K) + |D_Ls| f(u_L)) . n / |D_s|
        R        = sum_n dt_n sum_s |s| (phi^n_K - phi^n_L)
                   [F_s - (|D_Ks| f(u_K) + |D_Ls| f(u_L)) . n / |D_s|]
        |R| mass = sum_n |dt_n| sum_s |s| |phi^n_K - phi^n_L|
                   (|F_s| + |(|D_Ks| f(u_K) + |D_Ls| f(u_L)) . n| / |D_s|)

    with u = u^n, F_s the numerical flux of the face evaluated alone at the
    face's normal speed b . n (summed here axis by axis), and
    phi^n_K phi at the anchor of K at time t_n.  A three-point flux (1d
    only) also gets the far cells KK behind K and LL behind L, the next
    cells in sorted order: with a periodic wrap, or, on an outflow
    ``boundary``, the near cell itself past either end.  ``mass`` is the sum
    of the magnitudes of the summands, the scale of the rounding.
    """
    assert num_flux.stencil in (2, 3)
    if num_flux.stencil == 3:
        order = [int(c) for c in sorted_cell_order(mesh)]
        pos = {c: i for i, c in enumerate(order)}

        def behind(cell, step):
            i = pos[cell] + step
            if boundary == "periodic":
                return order[i % len(order)]
            return order[i] if 0 <= i < len(order) else cell
    out = [{"t2": [0.0, 0.0], "t2_tilde": [0.0, 0.0], "r": [0.0, 0.0],
            "r_abs": [0.0, 0.0]} for _ in phis]
    for n in range(len(deltas)):
        phi_n = [phi.value(mesh.cell_center, float(nodes[n])) for phi in phis]
        u = values[n]
        for f in range(mesh.n_faces):
            K, L = int(mesh.face_K[f]), int(mesh.face_L[f])
            if L < 0:
                continue
            normal = mesh.face_normal[f]
            far = {}
            if num_flux.stencil == 3:
                step = pos[L] - pos[K]  # +1 or -1: interior faces never wrap
                KK, LL = behind(K, -step), behind(L, step)
                far = {"uKK": np.array([u[KK]]), "uLL": np.array([u[LL]])}
            bn = 0.0
            for axis in range(mesh.dim):
                bn += float(normal[axis]) * float(num_flux.flux.direction[axis])
            flux = float(num_flux.evaluate(np.array([u[K]]), np.array([u[L]]),
                                           np.array([bn]), **far)[0])
            fK = num_flux.flux.value(np.array([u[K]]))[0]
            fL = num_flux.flux.value(np.array([u[L]]))[0]
            convex = 0.0
            for axis in range(mesh.dim):
                convex += (float(mesh.face_dk[f]) * float(fK[axis])
                           + float(mesh.face_dl[f]) * float(fL[axis])) \
                    * float(normal[axis])
            convex /= float(mesh.face_dsig[f])
            for terms, phi_vals in zip(out, phi_n):
                weight = deltas[n] * float(mesh.face_area[f]) \
                    * (float(phi_vals[K]) - float(phi_vals[L]))
                for name, term in (("t2", weight * flux),
                                   ("t2_tilde", weight * convex),
                                   ("r", weight * (flux - convex)),
                                   ("r_abs", abs(weight) * (abs(flux) + abs(convex)))):
                    terms[name][0] += term
                    terms[name][1] += abs(term)
    return [{name: tuple(v) for name, v in terms.items()} for terms in out]


def brute_volume_pairing_terms(mesh, values, phis, nodes):
    """T1, T1_1, T1_2 and R1 of a stored history against each test function,
    as one {name: (value, mass)} per phi, with the |R1| mass under "r1_abs".

    Straight from the formulas of the decomposition, one cell and one time
    slab at a time:

        T1   =  sum_n sum_K |K| (u^{n+1}_K - u^n_K) phi^n_K
        T1_1 = -sum_n sum_K |K| u^n_K (phi^{n+1}_K - phi^n_K)
        T1_2 = -sum_K |K| u^0_K phi^0_K
        R1   = -sum_n sum_K |K| (u^{n+1}_K - u^n_K)(phi^{n+1}_K - phi^n_K)

    with phi^n_K phi at the anchor of K at time t_n.  ``mass`` is the sum of
    the magnitudes of the summands, the scale of the rounding.
    """
    names = ("t1", "t1_1", "t1_2", "r1")
    out = [{name: [0.0, 0.0] for name in names} for _ in phis]
    for terms, phi in zip(out, phis):
        at = [phi.value(mesh.cell_center, float(t)) for t in nodes]
        for K in range(mesh.n_cells):
            vol = float(mesh.cell_volume[K])
            summands = [("t1_2", -vol * float(values[0][K]) * float(at[0][K]))]
            for n in range(len(nodes) - 1):
                du = float(values[n + 1][K]) - float(values[n][K])
                dphi = float(at[n + 1][K]) - float(at[n][K])
                summands += [("t1", vol * du * float(at[n][K])),
                             ("t1_1", -vol * float(values[n][K]) * dphi),
                             ("r1", -vol * du * dphi)]
            for name, term in summands:
                terms[name][0] += term
                terms[name][1] += abs(term)
    return [{**{name: tuple(v) for name, v in terms.items()},
             "r1_abs": (terms["r1"][1], terms["r1"][1])} for terms in out]


def _gauss(a, b, npts):
    """Gauss-Legendre points and weights on [a, b], as lists."""
    x, w = np.polynomial.legendre.leggauss(npts)
    half = 0.5 * (b - a)
    return ([a + half * (float(xi) + 1.0) for xi in x],
            [half * float(wi) for wi in w])


def _cell_quadrature(verts):
    """Points (n, d) and weights (n,) of one cell's rule: Gauss with
    GAUSS_ORDER points per axis on an interval (2 vertices, 1d) or an
    axis-aligned rectangle (4 vertices), the 7-point rule on a triangle."""
    verts = [[float(c) for c in v] for v in verts]
    if len(verts[0]) == 1:
        xs, ws = _gauss(min(v[0] for v in verts), max(v[0] for v in verts),
                        GAUSS_ORDER)
        return np.array([[x] for x in xs]), np.array(ws)
    if len(verts) == 4:
        xs, wx = _gauss(min(v[0] for v in verts), max(v[0] for v in verts),
                        GAUSS_ORDER)
        ys, wy = _gauss(min(v[1] for v in verts), max(v[1] for v in verts),
                        GAUSS_ORDER)
        pts, wts = [], []
        for x, a in zip(xs, wx):
            for y, b in zip(ys, wy):
                pts.append([x, y])
                wts.append(a * b)
        return np.array(pts), np.array(wts)
    assert len(verts) == 3
    (x0, y0), (x1, y1), (x2, y2) = verts
    area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    pts = [[b0 * x0 + b1 * x1 + b2 * x2, b0 * y0 + b1 * y1 + b2 * y2]
           for (b0, b1, b2), _ in TRIANGLE_RULE]
    return np.array(pts), np.array([w * area for _, w in TRIANGLE_RULE])


def brute_weak_gap(mesh, nodes, values, flux, phi, u0):
    """The weak gap of a stored history (N+1, n_cells) against phi, as
    (gap, mass), straight from the definition in ``weak_gap``:

        | II(u d_t phi) + II(f(u) . grad phi) + I(u0 phi(., 0)) |

    with u = u^n on the slab (t_n, t_{n+1}], one cell and one slab at a
    time.  On a slab the d_t phi integral telescopes to u^n_K times
    int_K phi(t_{n+1}) - int_K phi(t_n); the grad phi integral takes
    TIME_POINTS Gauss points in time.  ``flux`` is the physical flux f.
    Space uses the rule of ``_cell_quadrature``; the initial term integrates
    u0 phi(., 0) by it, less phi(., 0) on the indicator of [a, b] for 1d
    interval data, which get phi(., 0) over the part of each cell inside
    [a, b] by a Gauss rule instead.  phi and grad phi are
    evaluated once per cell at all its space-time points.  ``mass`` is the
    sum of the magnitudes of the summands, the scale of the rounding.
    """
    nodes = np.asarray(nodes, dtype=float)
    xg, wg = np.polynomial.legendre.leggauss(TIME_POINTS)
    half = 0.5 * np.diff(nodes)
    t_gauss = 0.5 * (nodes[1:] + nodes[:-1])[:, None] + half[:, None] * xg
    t_weight = half[:, None] * wg  # (N, TIME_POINTS)
    u = np.asarray(values, dtype=float)
    f_vals = np.asarray(flux.value(u[:-1]), dtype=float).tolist()  # (N, cells, d)
    u = u.tolist()
    gap = mass = 0.0
    for K in range(mesh.n_cells):
        pts, wq = _cell_quadrature(mesh.cell_vertices[K])
        # int_K phi(t_n) at every node, and int_K grad phi integrated over
        # every slab by the Gauss points in time
        at_nodes = (phi.value(pts, nodes[:, None]) @ wq).tolist()
        grads = phi.grad(pts, t_gauss.reshape(-1, 1))  # (N * TIME_POINTS, q, d)
        per_time = np.einsum("q,tqd->td", wq, grads).reshape(
            len(half), TIME_POINTS, -1)
        per_slab = np.einsum("nj,njd->nd", t_weight, per_time).tolist()
        rest = np.asarray(u0.fn(pts), dtype=float)
        summands = []
        if u0.interval is not None:
            a, b = u0.interval
            rest = rest - np.array([1.0 if a <= p[0] <= b else 0.0 for p in pts])
            lo = max(min(float(v[0]) for v in mesh.cell_vertices[K]), a)
            hi = min(max(float(v[0]) for v in mesh.cell_vertices[K]), b)
            if hi > lo:
                xs, ws = _gauss(lo, hi, GAUSS_ORDER)
                summands.append(float(phi.value(np.array([[x] for x in xs]), 0.0)
                                      @ np.array(ws)))
        summands.append(float((rest * wq) @ phi.value(pts, 0.0)))
        for n in range(len(half)):
            uK = u[n][K]
            summands += [uK * at_nodes[n + 1], -uK * at_nodes[n]]
            summands += [fi * gi for fi, gi in zip(f_vals[n][K], per_slab[n])]
        for term in summands:
            gap += term
            mass += abs(term)
    return abs(gap), mass
