"""Explicit cell-centered solver: stepping, CFL selection, conservation.

The single-step example is hand arithmetic at CFL number 1/2; the stencil
wiring of the three-point flux is checked against a roll-based update on
the sorted cell order, written independently in oracles.py.
"""
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lwfv import solver as solver_module
from lwfv import (
    TimeGrid,
    cartesian_2d_family,
    interval_indicator,
    polynomial_bump,
    project_l1,
    smooth_function,
    uniform_1d_family,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
)
from lwfv.flux import (
    NumericalFlux,
    burgers,
    linear_advection,
    muscl_three_point,
    rusanov,
    upwind_linear,
)
from lwfv.mesh import Mesh, MeshError, build_perturbed_triangular_2d
from lwfv.operators import InvariantViolation
from lwfv.solver import (
    BlowUpError,
    Problem,
    Stepper,
    march,
    plan,
    read_history,
    select_dt,
    solve,
    solve_to_file,
)

from launcher import _LAUNCH, _subprocess_env
from oracles import brute_muscl_step, brute_upwind_step, sorted_cell_order


def _sine_datum():
    return smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]),
        lipschitz=0.5 * np.pi,
        name="sine",
    )


def _bump_datum():
    b = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    return smooth_function(lambda x: b.value(x, 0.0), lipschitz=b.grad_sup,
                           name="bump")


# ---------------------------------------------------------------------------
# single steps against hand arithmetic
# ---------------------------------------------------------------------------


def test_single_upwind_step_hand_value():
    m = uniform_1d_family(3).build(0)
    st = Stepper(m, upwind_linear([1.0]), "periodic")
    order = sorted_cell_order(m)
    u = np.zeros(3)
    u[order[1]] = 1.0
    out = st.step(u, 0.5 / 3.0, st.edge_fluxes(u))  # nu = 1/2 up to the rounding of h = 1/3
    assert np.allclose(out[order], np.array([0.0, 0.5, 0.5]), rtol=1e-14,
                       atol=1e-16)


def test_stepper_matches_roll_oracle_upwind():
    m = uniform_1d_family(16).build(0)
    st = Stepper(m, upwind_linear([1.0]), "periodic")
    order = sorted_cell_order(m)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.0, 1.0, 16)
    nu = 0.4
    got = st.step(u, nu / 16.0, st.edge_fluxes(u))[order]
    want = brute_upwind_step(u[order], nu)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


def test_stepper_matches_roll_oracle_muscl():
    # exercises the far-neighbor wiring of three-point stencils
    m = uniform_1d_family(16).build(0)
    st = Stepper(m, muscl_three_point([1.0]), "periodic")
    order = sorted_cell_order(m)
    rng = np.random.default_rng(1)
    u = rng.uniform(-1.0, 1.0, 16)
    nu = 0.4
    got = st.step(u, nu / 16.0, st.edge_fluxes(u))[order]
    want = brute_muscl_step(u[order], nu)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


def _scalar_divergence(st, u, fv):
    """Per-cell net outward flux, one face contribution at a time: every
    edge into its K cell in edge order, then out of its L cell, then the
    outflow faces with the physical flux of the inside state."""
    div = [0.0] * st.mesh.n_cells
    for e in range(fv.size):
        div[int(st.edge_K[e])] += float(st.edge_area[e]) * float(fv[e])
    for e in range(fv.size):
        div[int(st.edge_L[e])] -= float(st.edge_area[e]) * float(fv[e])
    for k, area, normal in zip(st.outflow_K, st.outflow_area, st.outflow_normal):
        f = st.flux.flux.value(np.array([u[k]]))[0]
        bf = 0.0
        for axis in range(normal.size):
            bf += float(f[axis]) * float(normal[axis])
        div[int(k)] += float(area) * bf
    return np.array(div)


@pytest.mark.parametrize("case", ["periodic-2d-rusanov", "outflow-1d-upwind"])
def test_divergence_matches_scalar_scatter_bit_for_bit(case):
    if case == "periodic-2d-rusanov":
        m = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1)
        st = Stepper(m, rusanov(burgers((0.6, 0.8))), "periodic")
    else:
        m = nonuniform_1d_family(10, ratio=2.0).build(1)
        st = Stepper(m, upwind_linear([1.0]), "outflow")
        assert st.outflow_K.size == 2
    u = np.random.default_rng(3).uniform(-1.0, 1.0, m.n_cells)
    fv = st.edge_fluxes(u)
    got = st.divergence(u, fv)
    assert got.tobytes() == _scalar_divergence(st, u, fv).tobytes()


def _sine_2d():
    return smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0])
        * np.sin(2 * np.pi * x[..., 1]),
        name="sine-2d",
    )


# sha256 of solve(...).values.tobytes(), recorded before the fluxes took the
# normal speed b . n in place of the normal: the histories must not move a bit.
# 2d-cartesian-upwind re-recorded when the Cartesian faces took the numbering
# by first occurrence and their measures the vertex arithmetic: its states
# moved by at most 1.1e-16.  All but 1d-rusanov-riemann, whose indicator
# datum projects exactly, re-recorded when the quadrature sums and the
# triangle rule's points stopped calling BLAS: the cell means of u0 took
# the fixed order of quadrature.rowdot, and the states moved by at most
# 4.4e-16 (1.0e-15 relative).  These digests hold under OpenBLAS's SkylakeX,
# Haswell, Prescott and Zen kernels alike.
PINNED_SOLVES = {
    "1d-rusanov-riemann": (
        lambda: (uniform_1d_family(10).build(2), rusanov(burgers((1.0,))),
                 interval_indicator(0.1, 0.45), 0.3, "periodic"),
        "4fb6bc27fbe1c321aeb69fb89e4ea8dc51789fa9ceedfb62991926d88d63c08a"),
    "2d-triangulated-rusanov": (
        lambda: (perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1),
                 rusanov(burgers((0.6, 0.8))), _sine_2d(), 0.1, "periodic"),
        "7666620a24dc669b37486136949723cf10ad0d20ecfcb8978c36ed1d42ad17c6"),
    "1d-muscl-periodic": (
        lambda: (uniform_1d_family(10).build(2), muscl_three_point([1.0]),
                 _sine_datum(), 0.25, "periodic"),
        "4342d7b53e8909247210409d5e07b0148bbc4f5c6ac44602880a76d37bbfa0c6"),
    "1d-muscl-outflow": (
        lambda: (uniform_1d_family(10).build(2), muscl_three_point([1.0]),
                 _bump_datum(), 0.25, "outflow"),
        "b2392e52184dabd9ff5afdf113b0e94ec0ad988ebaa10a5b6c84367fd445003b"),
    "2d-cartesian-upwind": (
        lambda: (cartesian_2d_family(4).build(1), upwind_linear([1.0, 0.5]),
                 _sine_2d(), 0.3, "periodic"),
        "2b4403984c44faae14b22963fbdf70a110787c9f01c5234c746b25c6e7ceef3f"),
}


def _pinned_digest(case: str) -> str:
    m, fl, u0, t_final, boundary = PINNED_SOLVES[case][0]()
    field = solve(m, Problem(flux=fl, u0=u0, t_final=t_final, boundary=boundary))
    return hashlib.sha256(field.values.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_SOLVES))
def test_solve_history_bits_are_pinned(case):
    assert _pinned_digest(case) == PINNED_SOLVES[case][1]


def _kernel_bits() -> dict[str, str]:
    """The pinned histories' digests and the sha256 of a level-4
    triangulation's projection, whose points come from the triangle rule."""
    bits = {case: _pinned_digest(case) for case in sorted(PINNED_SOLVES)}
    mesh = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(4)
    bits["project_l1"] = hashlib.sha256(project_l1(mesh, _sine_2d()).tobytes()).hexdigest()
    return bits


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, which
    picks its kernel at run time and takes OPENBLAS_CORETYPE to pick another."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE selects no other kernel")
def test_pinned_bits_do_not_depend_on_the_blas_kernel():
    # the AVX2 and SSE3 kernels round a BLAS dot differently from each other
    # and from an AVX-512 host's; no quadrature sum or point may go through one
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_solver; "
            "print(json.dumps(test_solver._kernel_bits()))")
    want = _kernel_bits()
    for kernel in ("Haswell", "Prescott"):
        env = dict(_subprocess_env(), OPENBLAS_CORETYPE=kernel)
        out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == want, kernel


@pytest.mark.parametrize("case", ["periodic-2d-rusanov", "outflow-1d-upwind",
                                  "periodic-1d-muscl"])
def test_edge_fluxes_gathers_the_stencil_states_into_its_buffer(case):
    if case == "periodic-2d-rusanov":
        m = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1)
        st = Stepper(m, rusanov(burgers((0.6, 0.8))), "periodic")
    elif case == "outflow-1d-upwind":
        m = nonuniform_1d_family(10, ratio=2.0).build(1)
        st = Stepper(m, upwind_linear([1.0]), "outflow")
    else:
        m = uniform_1d_family(10).build(1)
        st = Stepper(m, muscl_three_point([1.0]), "periodic")
    stencil = [st.edge_K, st.edge_L]
    if st.edge_KK is not None:
        stencil += [st.edge_KK, st.edge_LL]
    rng = np.random.default_rng(4)
    for _ in range(2):  # the second call overwrites the first's states
        u = rng.uniform(-1.0, 1.0, m.n_cells)
        st.edge_fluxes(u)
        assert st.stencil_states.shape == (len(stencil), st.edge_K.size)
        for row, ids in zip(st.stencil_states, stencil):
            assert row.tobytes() == u[ids].tobytes()
        n = st.n_interior
        jumps = st.interior_jumps(np.empty(n))
        assert jumps.tobytes() == (u[st.edge_K[:n]] - u[st.edge_L[:n]]).tobytes()


# ---------------------------------------------------------------------------
# time-step selection
# ---------------------------------------------------------------------------


def test_select_dt_uniform_advection():
    m = uniform_1d_family(10).build(0)
    f = project_l1(m, _sine_datum())
    dt = select_dt(m, f, upwind_linear([1.0]), cfl=0.45, t_final=0.5)
    # |K| / sum |sigma| lambda = h / 2
    assert dt == pytest.approx(0.45 * 0.05, rel=1e-12)
    dt2 = select_dt(m, f, upwind_linear([2.0]), cfl=0.45, t_final=0.5)
    assert dt2 == pytest.approx(0.5 * dt, rel=1e-13)


def test_select_dt_zero_speed_fallback():
    m = uniform_1d_family(10).build(0)
    f = project_l1(m, _sine_datum())
    still = upwind_linear([0.0])
    assert select_dt(m, f, still, cfl=0.45, t_final=0.8) == pytest.approx(0.2)


def test_select_dt_rejects_non_finite_speeds_and_a_zero_step():
    m = uniform_1d_family(10).build(0)
    f = project_l1(m, _sine_datum())
    # finite speeds whose per-cell sum overflows to inf, so the step is 0
    with pytest.raises(ValueError, match="CFL step 0.0 .* not positive"):
        select_dt(m, f, upwind_linear([1e308]), cfl=0.45, t_final=0.5)
    # a state that is not finite gives Rusanov a speed that is not finite
    # (a flux with a velocity that is not finite cannot be built)
    for state in (np.nan, np.inf):
        bad = f.copy()
        bad[3] = state
        with pytest.raises(ValueError, match="wave speed .* not finite"):
            select_dt(m, bad, rusanov(burgers()), cfl=0.45, t_final=0.5)


@pytest.mark.parametrize("size", [9, 11])
def test_select_dt_rejects_an_array_of_another_length(size):
    # a longer array would be read silently, a shorter one fail on an index
    m = uniform_1d_family(10).build(0)
    with pytest.raises(ValueError, match=f"expected 10 cell values, got shape \\({size},\\)"):
        select_dt(m, np.zeros(size), upwind_linear([1.0]), cfl=0.45, t_final=0.5)


def test_select_dt_capped_by_horizon():
    m = uniform_1d_family(2).build(0)  # huge cells, dt would exceed T/4
    f = project_l1(m, _sine_datum())
    dt = select_dt(m, f, upwind_linear([0.01]), cfl=1.0, t_final=0.4)
    assert dt <= 0.1 + 1e-15


def test_solve_rejects_bad_cfl():
    m = uniform_1d_family(4).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.5)
    with pytest.raises(ValueError):
        solve(m, pr, cfl=2.5)


# ---------------------------------------------------------------------------
# periodic face pairing
# ---------------------------------------------------------------------------


def _slid_triangulation(moves):
    """The 4 x 4 triangulation with each boundary vertex ``(x, y)`` of
    ``moves`` slid along its side to ``(x, y')``, and its boundary faces on
    x = 0 and on x = 1, each ordered by y, so left[i] and right[i] are
    periodic partners when nothing has slid."""
    m = build_perturbed_triangular_2d(4)
    ids = {tuple(x): i for i, x in enumerate(m.vertices.tolist())}
    vertices = m.vertices.copy()
    for (x, y), y_new in moves.items():
        vertices[ids[x, y], 1] = y_new
    m = Mesh(vertices, m.cell_vertex_ids, m.cell_center, m.box)
    c = m.face_centroid
    left, right = (np.flatnonzero(~m.interior & (c[:, 0] == x)) for x in (0.0, 1.0))
    return m, left[np.argsort(c[left, 1])], right[np.argsort(c[right, 1])]


_PERIODIC_FLUX = rusanov(burgers((0.6, 0.8)))


def test_periodic_pairing_rejects_a_face_without_partner():
    # (1, 0.25) slid to (1, 0.35): right[0] is 0.1 longer than left[0], and
    # its centroid 0.05 off the image of left[0]'s
    m, left, right = _slid_triangulation({(1.0, 0.25): 0.35})
    with pytest.raises(MeshError,
                       match=rf"no periodic partner for boundary face {left[0]} "):
        Stepper(m, _PERIODIC_FLUX, "periodic")


def test_periodic_pairing_rejects_mismatched_areas():
    # slid by 1e-11: the centroids still meet on the pairing's 1e-9 grid, but
    # the lengths differ by 4e-11 of right[0]'s
    m, left, right = _slid_triangulation({(1.0, 0.25): 0.25 + 1e-11})
    with pytest.raises(MeshError, match=rf"periodic faces {left[0]} and "
                                        rf"{right[0]} have mismatched areas"):
        Stepper(m, _PERIODIC_FLUX, "periodic")


def test_periodic_pairing_rejects_unpaired_faces():
    # on both sides, (x, 0.25) and (x, 0.75) slid to 0.5 -+ 2^-31: two faces
    # of length 2^-31 each whose centroids meet on the pairing's 1e-9 grid,
    # so left[1] and left[2] both land on right[2] and right[1] is nobody's
    # partner
    m, left, right = _slid_triangulation({
        (x, y): 0.5 + s * 2.0**-31 for x in (0.0, 1.0) for y, s in ((0.25, -1), (0.75, 1))})
    assert m.face_area[left[1]] == m.face_area[right[2]] == 2.0**-31
    with pytest.raises(MeshError,
                       match=rf"unpaired boundary faces: \[{right[1]}\]"):
        Stepper(m, _PERIODIC_FLUX, "periodic")


# ---------------------------------------------------------------------------
# conservation and stability
# ---------------------------------------------------------------------------


def test_periodic_mass_conserved_1d():
    m = uniform_1d_family(10).build(1)
    f = solve(m, Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5),
              cfl=0.5)
    vol = m.cell_volume
    m0 = float(f.values[0] @ vol)
    drift = max(
        abs(float(f.values[n] @ vol) - m0) for n in range(f.grid.n_steps + 1)
    )
    assert drift <= 1e-12 * abs(m0)


def test_periodic_mass_conserved_2d_burgers():
    m = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1)
    u0 = smooth_function(
        lambda x: 0.5
        + 0.25 * np.sin(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]),
        lipschitz=0.5 * np.pi * np.sqrt(2.0),
        name="sine2",
    )
    f = solve(m, Problem(flux=rusanov(burgers((0.6, 0.8))), u0=u0, t_final=0.4),
              cfl=0.45)
    vol = m.cell_volume
    m0 = float(f.values[0] @ vol)
    drift = max(
        abs(float(f.values[n] @ vol) - m0) for n in range(f.grid.n_steps + 1)
    )
    assert drift <= 1e-12 * abs(m0)


def test_constant_states_are_fixed_points():
    const = smooth_function(lambda x: np.full(x.shape[:-1], 0.7), lipschitz=0.0,
                            name="c")
    cases = [
        (uniform_1d_family(10).build(0), upwind_linear([1.0]), 0.5),
        (uniform_1d_family(10).build(0), muscl_three_point([1.0]), 0.5),
        (perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1),
         rusanov(burgers((0.6, 0.8))), 0.4),
    ]
    for mesh, fl, T in cases:
        f = solve(mesh, Problem(flux=fl, u0=const, t_final=T), cfl=0.45)
        assert np.max(np.abs(f.values - 0.7)) <= 1e-14


def test_blow_up_guard_raises():
    # a consistent central flux with negative dissipation grows every mode;
    # the guard must catch the escape and name the step
    F = linear_advection([1.0])

    def antidiff(uK, uL, bn, uKK=None, uLL=None):
        uK = np.asarray(uK, float)
        uL = np.asarray(uL, float)
        return 0.5 * (uK + uL) * bn + 25.0 * (uL - uK)

    bad = NumericalFlux(
        name="antidiffusive", flux=F, stencil=2, c_f=100.0, evaluate=antidiff,
        wave_speed=lambda a, b, n: np.abs(
            np.multiply(np.asarray(n, float), np.array([1.0])).sum(-1)
        ),
    )
    m = uniform_1d_family(10).build(0)
    with pytest.raises(BlowUpError):
        solve(m, Problem(flux=bad, u0=_sine_datum(), t_final=5.0), cfl=0.9)


def test_outflow_lets_mass_leave():
    m = uniform_1d_family(10).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=1.0,
                 boundary="outflow")
    f = solve(m, pr, cfl=0.5)
    vol = m.cell_volume
    assert float(f.values[-1] @ vol) < 0.1 * float(f.values[0] @ vol)


# ---------------------------------------------------------------------------
# field bookkeeping and files
# ---------------------------------------------------------------------------


def test_solve_history_shape_and_grid():
    m = uniform_1d_family(10).build(0)
    f = solve(m, Problem(flux=upwind_linear([1.0]), u0=_bump_datum(), t_final=0.5),
              cfl=0.5)
    assert f.values.shape == (f.grid.n_steps + 1, m.n_cells)
    assert f.grid.nodes[-1] == 0.5
    assert np.allclose(np.diff(f.grid.nodes), f.grid.nodes[1] - f.grid.nodes[0],
                       rtol=1e-12)


def test_history_round_trip_bit_exact(tmp_path):
    m = nonuniform_1d_family(6, ratio=2.0).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.25)
    f = solve(m, pr, cfl=0.5)
    p1 = tmp_path / "h1.npy"
    p2 = tmp_path / "h2.npy"
    grid, u0, u_final = solve_to_file(m, pr, str(p1), cfl=0.5)
    assert np.array_equal(grid.nodes, f.grid.nodes)
    assert u0.tobytes() == f.values[0].tobytes()
    assert u_final.tobytes() == f.values[-1].tobytes()
    grid, vals = read_history(str(p1))
    assert vals.tobytes() == f.values.tobytes()
    assert grid.nodes.tobytes() == f.grid.nodes.tobytes()
    # arrays of their own, not views into a table or a mapped file
    assert vals.flags.owndata and grid.nodes.flags.owndata
    assert type(vals) is np.ndarray and type(grid.nodes) is np.ndarray
    # the streamed file is np.save of the whole table, byte for byte
    np.save(p2, np.column_stack([grid.nodes, vals]), allow_pickle=False)
    assert p1.read_bytes() == p2.read_bytes()
    # numpy's own reader sees row n as t_n followed by u^n
    table = np.load(p1, allow_pickle=False)
    assert table.dtype == np.float64
    assert table.shape == (f.grid.n_steps + 1, 1 + m.n_cells)
    assert np.array_equal(table, np.column_stack([f.grid.nodes, f.values]))


def test_history_round_trip_through_path(tmp_path):
    # str and os.PathLike both name a history file
    m = uniform_1d_family(5).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.25)
    f = solve(m, pr, cfl=0.5)
    p = tmp_path / "h"  # no .npy suffix: the file keeps exactly this name
    solve_to_file(m, pr, p, cfl=0.5)
    assert [q.name for q in tmp_path.iterdir()] == ["h"]
    for source in (p, str(p)):
        grid, vals = read_history(source)
        assert np.array_equal(vals, f.values)
        assert np.array_equal(grid.nodes, f.grid.nodes)


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Tripwire:
    """An object whose unpickling is recorded in _UNPICKLED."""

    def __reduce__(self):
        return _record_unpickling, ()


def _written_history(tmp_path):
    """A history file, the run's (N+1, 1 + n_cells) table and N."""
    m = uniform_1d_family(8).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.25)
    f = solve(m, pr, cfl=0.5)
    p = tmp_path / "h.npy"
    solve_to_file(m, pr, str(p), cfl=0.5)
    return p, np.column_stack([f.grid.nodes, f.values]), f.grid.n_steps


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_history_reader_takes_every_npy_layout(tmp_path, version, order):
    # another program's table may be column-major or carry a later header
    p, table, _ = _written_history(tmp_path)
    with open(p, "wb") as fh:
        np.lib.format.write_array(fh, np.asarray(table, order=order),
                                  version=version)
    grid, vals = read_history(p)
    assert vals.tobytes() == np.ascontiguousarray(table[:, 1:]).tobytes()
    assert grid.nodes.tobytes() == np.ascontiguousarray(table[:, 0]).tobytes()


def test_history_reader_rejects_truncated_file(tmp_path):
    p, _, _ = _written_history(tmp_path)
    data = p.read_bytes()
    # the last state gone, a cut inside the 128-byte header, and no header
    for cut, match in ((data[:-8], "shorter than its header says"),
                       (data[:100], "EOF: reading array header"),
                       (b"", "cannot be read: No data left")):
        p.write_bytes(cut)
        with pytest.raises(ValueError, match=match):
            read_history(str(p))


def test_history_reader_counts_records_before_allocating(tmp_path):
    # a header claiming 10^15 rows over two fails as a short file, not as an
    # attempt to allocate 16 PB for them (plain np.load raises MemoryError)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (10**15, 2)})
    data = buf.getvalue() + np.array([[0.0, 0.5], [1.0, 0.5]]).tobytes()
    p = tmp_path / "h.npy"
    p.write_bytes(data)
    with pytest.raises(ValueError, match="shorter than its header says"):
        read_history(str(p))


def test_history_reader_refuses_a_file_that_shrinks_after_its_size_check(
        tmp_path, monkeypatch):
    # a read that comes up short raises; it never returns the rest of an
    # uninitialised array
    p, _, _ = _written_history(tmp_path)
    load = np.load

    def load_then_cut(*args, **kwargs):
        table = load(*args, **kwargs)
        with open(p, "r+b") as fh:
            fh.truncate(p.stat().st_size - 8)
        return table

    monkeypatch.setattr(np, "load", load_then_cut)
    with pytest.raises(ValueError, match="shorter than its header says"):
        read_history(p)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_history_reader_holds_the_states_once(tmp_path):
    # the states are read into their own array, past the map, about 1 MB
    # at a time, and checked as each block lands: the peak grows by their
    # bytes and a block (1.04 times their bytes), not by a mapped table and
    # its copy (twice their bytes), nor by an (N+1) x cells finiteness mask
    # (1.16 times)
    n_rows, n_cells = 1025, 4096  # 32 MiB of states
    p = tmp_path / "h.npy"
    with open(p, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": "<f8", "fortran_order": False, "shape": (n_rows, 1 + n_cells)})
        row = np.full(1 + n_cells, 0.5)
        for n in range(n_rows):
            row[0] = n
            fh.write(row.tobytes())
    script = ("import resource, sys\n"
              "from lwfv.solver import read_history\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "grid, vals = read_history(sys.argv[1])\n"
              "assert vals.shape == (grid.n_steps + 1, int(sys.argv[2]))\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCH, "-c", script, str(p), str(n_cells)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        check=True)
    states_bytes = n_rows * n_cells * 8
    assert int(out.stdout) * 1024 < 1.1 * states_bytes, out.stdout


@pytest.mark.parametrize("order", ["C", "F"])
def test_history_reader_names_the_lowest_bad_row_across_blocks(tmp_path, monkeypatch,
                                                               order):
    # blocks of 3 rows (C order) or of 3 cell columns (Fortran order); the
    # lowest non-finite row, 13, sits in a later block of either than an
    # infinite state at row 17, and in a later one than the first
    n_rows, n_cells = 20, 10
    table = np.full((n_rows, 1 + n_cells), 0.5)
    table[:, 0] = np.linspace(0.0, 1.0, n_rows)
    table[13, 1 + 9] = np.nan
    table[17, 1 + 2] = np.inf
    p = tmp_path / "h.npy"
    np.save(p, np.asarray(table, order=order))
    width = (1 + n_cells) if order == "C" else n_rows
    monkeypatch.setattr(solver_module, "_READ_BYTES", 8 * 3 * width)
    with pytest.raises(ValueError, match="history row 13 holds a time or a state"):
        read_history(p)


@pytest.mark.parametrize("edit", ["float32", "one_d", "one_row", "no_n_cells",
                                  "pickled", "v1_text", "nan_node", "nan_state",
                                  "inf_state", "duplicate", "u_only"])
def test_history_reader_rejects_malformed_records(tmp_path, edit):
    p, table, n = _written_history(tmp_path)
    shape_error = "2-d float64 array of at least two rows and two columns"
    if edit == "v1_text":
        p.write_text("lwfv-history v1 dim=1 n_cells=1 n_steps=1\n"
                     "t 0 0\nu 0 0.5\nt 1 1\nu 1 0.5\n")
        match = "rerun lwfv solve"
    elif edit == "pickled":
        # an object array is pickled data, which the reader never unpickles
        objects = table.astype(object)
        objects[0, 1] = _Tripwire()
        np.save(p, objects, allow_pickle=True)
        assert np.load(p, allow_pickle=True)[0, 1] is None and _UNPICKLED
        _UNPICKLED.clear()
        match = "cannot be read: .*Python objects"
    elif edit in ("float32", "one_d", "one_row", "no_n_cells", "u_only"):
        # u_only: the states saved without their time column, so that the
        # first cell's values pass for the times
        np.save(p, {"float32": table.astype(np.float32), "one_d": table.ravel(),
                    "one_row": table[:1], "no_n_cells": table[:, :1],
                    "u_only": table[:, 1:]}[edit])
        match = ("time grid must start at 0" if edit == "u_only"
                 else shape_error)
    else:
        if edit == "nan_node":
            table[3, 0] = np.nan
            match = "row 3 holds a time"
        elif edit == "nan_state":
            # a NaN state at node 0 and an infinite one at node N
            table[0, 2] = np.nan
            table[n, -1] = np.inf
            match = "row 0 holds a time or a state that is not finite"
        elif edit == "inf_state":
            table[n, -1] = -np.inf
            match = f"row {n} holds"
        else:  # duplicate: node 2 repeats node 1, and TimeGrid refuses it
            table[2, 0] = table[1, 0]
            match = "strictly increasing"
        np.save(p, table)
    with pytest.raises(ValueError, match=match):
        read_history(str(p))
    assert not _UNPICKLED


def test_march_rejects_a_nonuniform_grid():
    # every step is t_final / n_steps long, so the slabs 0.01, 0.01, 0.07
    # would be stepped as three of 0.03 each
    m = uniform_1d_family(10).build(0)
    pr = Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.09)
    stp, _, u0 = plan(m, pr, 0.5)
    grid = TimeGrid(nodes=np.array([0.0, 0.01, 0.02, 0.09]))
    with pytest.raises(ValueError, match="uniform time grids only"):
        march(stp, grid, u0, lambda *args: None)


def test_march_feeds_every_step_and_reports_the_range():
    m = uniform_1d_family(10).build(1)
    pr = Problem(flux=rusanov(burgers((1.0,))), u0=_sine_datum(), t_final=0.3)
    stp, grid, u0 = plan(m, pr, 0.45)
    states = [u0]

    def on_step(n, u, u_next, fv):
        assert n == len(states) - 1 and u is states[-1]
        assert np.array_equal(fv, stp.edge_fluxes(u))
        states.append(u_next)

    lo, hi = march(stp, grid, u0, on_step)
    history = solve(m, pr, cfl=0.45).values
    assert np.array_equal(np.array(states), history)
    assert (lo, hi) == (history.min(), history.max())


def test_march_enforces_the_maximum_principle_of_monotone_fluxes():
    m = uniform_1d_family(16).build(1)
    pr = Problem(flux=rusanov(burgers((1.0,))), u0=interval_indicator(0.1, 0.45),
                 t_final=0.5)
    stp, grid, u0 = plan(m, pr, 1.0)
    lo, hi = march(stp, grid, u0, lambda *args: None)  # at the CFL limit
    assert u0.min() <= lo and hi <= u0.max()
    # a third of the steps: each one three times over the CFL limit
    over = TimeGrid.uniform(grid.t_final, grid.n_steps // 3)
    with pytest.raises(InvariantViolation,
                       match=r"maximum principle broken at step \d+ \(cell \d+\)"):
        march(stp, over, u0, lambda *args: None)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=-1.0)
    for t_final in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=t_final)
    with pytest.raises(ValueError):
        Problem(flux=upwind_linear([1.0]), u0=_sine_datum(), t_final=0.5,
                boundary="reflecting")
