"""Mesh construction, dual volumes, regularity metrics, and file format.

Frozen metric values below were computed first from the defining formulas
(uniform/cartesian cases by hand, the perturbed family by an independent
run pinned once) and the builders are required to reproduce them.
"""
import dataclasses
import hashlib
import io
import struct
import subprocess
import sys
import time
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from lwfv import (
    GeometryError,
    Mesh,
    MeshError,
    MeshFamily,
    Problem,
    RegularityError,
    bump_corpus_spacetime,
    burgers,
    cartesian_2d_family,
    interval_indicator,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    project_l1,
    read_mesh,
    refine,
    rusanov,
    solve,
    uniform_1d_family,
    upwind_linear,
    validate,
    weak_gap,
    write_mesh,
)
from lwfv import mesh as mesh_module
from lwfv.consistency import spacetime_translation_seminorm
from lwfv.mesh import (
    build_cartesian_2d,
    build_nonuniform_1d,
    build_perturbed_triangular_2d,
    build_uniform_1d,
    compute_quality,
    _uniform_draws,
)

from launcher import _LAUNCH, _subprocess_env
from oracles import (
    brute_cell_partition_defect,
    brute_dual_partition_defect,
    brute_face_closure,
)

REL = 1e-12


# ---------------------------------------------------------------------------
# partition and closure invariants, against brute-force loops
# ---------------------------------------------------------------------------


def test_partition_and_closure_all_families(families):
    # validate does not derive the mesh again, so these loops are the check
    # on the derivation, of built meshes and of meshes read from their files
    for name, fam in families.items():
        for lvl in range(3):
            built = fam.build(lvl)
            for m in (built, _reloaded(built)):
                assert brute_cell_partition_defect(m) <= REL * m.domain_measure, name
                assert brute_dual_partition_defect(m) <= REL * m.domain_measure, name
                assert brute_face_closure(m) <= 1e-12, name


def test_validate_passes_and_reports(families):
    for fam in families.values():
        rep = validate(fam.build(0))
        assert rep.ok
        assert [n for n, _, _ in rep.checks] == [
            "cell_partition", "boundary_on_box", "anchor_inside"]


def test_validate_catches_a_damaged_file():
    # cell 1's anchor moved into cell 2
    members = _members(build_uniform_1d(4))
    members["cell_center"][1] = 0.625
    damaged = _mesh(members)
    rep = validate(damaged)
    assert rep.failing() == ["anchor_inside"]
    assert rep.checks[2][2].endswith(", not cell 1")
    with pytest.raises(MeshError, match="mesh validation failed: anchor_inside"):
        validate(damaged, raise_on_failure=True)


def test_mesh_is_its_four_defining_arrays():
    # every other array is derived from these four, so a copy with other
    # anchors has the dual pieces of those anchors, and a derived array
    # cannot be set
    fields = dataclasses.fields(Mesh)
    assert [f.name for f in fields if f.init] == [
        "vertices", "cell_vertex_ids", "cell_center", "box"]
    m = build_perturbed_triangular_2d(4)
    anchors = m.cell_vertices[:, 0] + 0.25 * (m.cell_vertices[:, 1] - m.cell_vertices[:, 0]
                                              + m.cell_vertices[:, 2] - m.cell_vertices[:, 0])
    moved = dataclasses.replace(m, cell_center=anchors)
    fresh = Mesh(m.vertices.copy(), m.cell_vertex_ids.copy(), anchors.copy(), m.box)
    for (field, a), (_, b) in zip(_array_fields(moved), _array_fields(fresh)):
        assert a.tobytes() == b.tobytes(), field
    assert not np.array_equal(moved.face_dk, m.face_dk)
    assert brute_dual_partition_defect(moved) <= REL
    assert validate(moved).ok
    for name in (f.name for f in fields if not f.init):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(m, **{name: getattr(m, name).copy()})


def test_cone_check_holds_as_the_triangulation_refines():
    # the anchor test is scaled by the rounding of the cone heights, not by
    # the cone's own measure, so finer (flatter-cone) levels do not drift
    # toward it
    fam = perturbed_triangular_2d_family(4, jitter=0.3, seed=0)
    for lvl in range(7):
        assert validate(fam.build(lvl)).ok, lvl


# ---------------------------------------------------------------------------
# frozen regularity metrics
# ---------------------------------------------------------------------------


def test_uniform_1d_metrics():
    m = uniform_1d_family(10).build(0)
    q = compute_quality(m)
    assert m.n_cells == 10 and m.n_faces == 11
    assert q.theta_grad == 1.0
    assert q.theta == pytest.approx(1.0, rel=REL)
    assert q.tau == pytest.approx(2.0, rel=REL)
    assert q.n_faces_max == 2
    assert m.h_max == pytest.approx(0.1, rel=REL)


def test_nonuniform_1d_metrics():
    # alternating widths in ratio 2 put theta at 1.5: the larger dual half
    # next to the smaller one is (2h/2)/( (h/2 + 2h/2)/... ) -> worst 1.5
    q = compute_quality(nonuniform_1d_family(10, ratio=2.0).build(0))
    assert q.theta_grad == 1.0
    assert q.theta == pytest.approx(1.5, rel=REL)
    assert q.tau == pytest.approx(2.0, rel=REL)


def test_cartesian_2d_metrics():
    # cone duals over squares: |D_sigma| = |sigma| h / 2, giving
    # theta_grad = h |sigma| / |D_sigma| ... = 2 exactly, theta = 1/2, tau = 4
    q = compute_quality(cartesian_2d_family(4).build(0))
    assert q.theta_grad == pytest.approx(2.0, rel=REL)
    assert q.theta == pytest.approx(0.5, rel=REL)
    assert q.tau == pytest.approx(4.0, rel=REL)
    assert q.n_faces_max == 4


def test_cartesian_dual_measure_example():
    # 2x2 grid, h = 1/2: each interior face has |D_K,sigma| = |sigma| (h/2) / 2
    # = 0.0625, so |D_sigma| = 0.125 exactly
    m = cartesian_2d_family(2).build(0)
    inner = m.face_dsig[m.interior]
    assert np.all(inner == 0.125)


def test_triangular_metrics_are_level_independent():
    """The jitter table repeats with period 4, so every refinement level is
    assembled from the same finite set of local configurations and the
    metrics stop depending on the level once the pattern is fully sampled."""
    fam = perturbed_triangular_2d_family(4, jitter=0.3, seed=0)
    q1 = compute_quality(fam.build(1))
    assert q1.theta_grad == pytest.approx(3.1836028249570214, rel=1e-12)
    assert q1.theta == pytest.approx(3.333852537068034, rel=1e-12)
    assert q1.tau == pytest.approx(3.0, rel=1e-12)
    assert q1.n_faces_max == 3
    for lvl in (2, 3):
        q = compute_quality(fam.build(lvl))
        assert q.theta_grad == pytest.approx(q1.theta_grad, rel=1e-12)
        assert q.theta == pytest.approx(q1.theta, rel=1e-12)


def test_triangular_other_seeds_stay_regular():
    for seed in range(1, 6):
        fam = perturbed_triangular_2d_family(4, jitter=0.3, seed=seed)
        meshes = refine(fam, 3)  # raises RegularityError on guard breach
        assert len(meshes) == 3


def test_jitter_out_of_range_rejected():
    with pytest.raises(GeometryError):
        perturbed_triangular_2d_family(4, jitter=0.6).build(0)


def test_jitter_above_0_3_can_invert_a_triangle():
    # the builder takes jitter in [0, 0.5), but the band where every seed
    # builds ends near 0.3: at n = 8, 9 of seeds 0-199 invert a triangle at
    # jitter 0.35, seed 0 among them, and 38 at 0.4
    for seed in range(200):
        build_perturbed_triangular_2d(8, jitter=0.3, seed=seed)
    with pytest.raises(GeometryError, match="inverted"):
        build_perturbed_triangular_2d(8, jitter=0.35, seed=0)


def test_jitter_draw_matches_numpy_default_rng_bit_for_bit():
    # the port reproduces SeedSequence, PCG64 and Generator.uniform; seeds
    # of one to four 32-bit words, and one more than the 4-word pool
    for seed in [*range(2001), 2**32 - 1, 2**32, 2**40 + 7, 2**63 + 5,
                 2**100 + 3, 2**160 + 9]:
        for jitter in (0.1, 0.3, 0.49):
            ref = default_rng(seed).uniform(-jitter, jitter, size=32)
            got = np.array(_uniform_draws(seed, -jitter, jitter, 32))
            assert got.tobytes() == ref.tobytes(), (seed, jitter)


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (None, TypeError), (1.5, TypeError)])
def test_triangular_seed_must_be_a_non_negative_integer(seed, error):
    # numpy takes None as a request for OS entropy: a mesh no rerun reproduces
    with pytest.raises(error):
        build_perturbed_triangular_2d(4, jitter=0.3, seed=seed)


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
def test_nonuniform_ratio_must_be_positive_and_finite(ratio):
    # NaN passes a plain ``ratio <= 0`` test and gave all-NaN cell volumes
    with pytest.raises(GeometryError, match="ratio"):
        build_nonuniform_1d(4, ratio=ratio)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_halves_h(families):
    # the coarsest perturbed level does not yet sample the whole jitter
    # pattern, so its first halving is only approximate; after that the
    # worst simplex repeats and the ratio locks onto 1/2
    for fam in families.values():
        meshes = refine(fam, 4)
        hs = [m.h_max for m in meshes]
        assert 0.45 <= hs[1] / hs[0] <= 0.56
        for a, b in zip(hs[1:], hs[2:]):
            assert b == pytest.approx(0.5 * a, rel=1e-9)


def test_refine_guard_rejects_worsening_family():
    bad = MeshFamily(
        name="worsening",
        build=lambda lvl: build_nonuniform_1d(10 * 2**lvl, ratio=1.0 + 2.0 * lvl),
    )
    with pytest.raises(RegularityError):
        refine(bad, 4)


def test_refine_guard_wording_uses_first_two_levels():
    # guard is 1.05 x max over the first two levels, so a family whose
    # metrics never move must pass arbitrarily deep
    meshes = refine(uniform_1d_family(4), 5)
    assert [m.n_cells for m in meshes] == [4, 8, 16, 32, 64]


def test_refine_guard_refuses_a_nan_parameter():
    # level 2 has one anchor at NaN, so its theta_grad is NaN, which lies
    # in no band
    def build(m):
        mesh = build_uniform_1d(4 * 2**m)
        if m != 2:
            return mesh
        anchors = mesh.cell_center.copy()
        anchors[5] = np.nan
        return dataclasses.replace(mesh, cell_center=anchors)

    with pytest.raises(RegularityError,
                       match=r"^family nan-anchor: theta_grad = nan at level 2"):
        refine(MeshFamily("nan-anchor", build), 3)


# ---------------------------------------------------------------------------
# read-only meshes, memoised levels, quality computed once
# ---------------------------------------------------------------------------


def _array_fields(mesh):
    """(name, array) for every array a mesh holds, the box pair included."""
    out = []
    for f in dataclasses.fields(mesh):
        value = getattr(mesh, f.name)
        if isinstance(value, tuple):
            out += [(f"{f.name}[{i}]", v) for i, v in enumerate(value)]
        elif isinstance(value, np.ndarray):
            out.append((f.name, value))
    return out


def test_mesh_arrays_are_read_only():
    # fresh meshes, not the shared families': a failing write must not leak
    for name, built in (("uniform", build_uniform_1d(8)),
                        ("nonuniform", build_nonuniform_1d(8)),
                        ("cartesian", build_cartesian_2d(3, 2)),
                        ("triangular", build_perturbed_triangular_2d(4))):
        for mesh in (built, _reloaded(built)):
            arrays = _array_fields(mesh)
            assert len(arrays) >= 13, name
            for field_name, arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    arr += 0  # in place
                assert not arr.flags.writeable, (name, field_name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                mesh.face_area = mesh.face_area.copy()


def test_a_copy_with_other_anchors_leaves_the_mesh_alone():
    m = build_uniform_1d(6)
    anchors = m.cell_center.copy()
    anchors[2] = 0.9
    bad = dataclasses.replace(m, cell_center=anchors)
    assert not validate(bad).ok and validate(m).ok
    again = build_uniform_1d(6)
    for (field, a), (_, b) in zip(_array_fields(m), _array_fields(again)):
        assert a.tobytes() == b.tobytes(), field
    assert not bad.cell_center.flags.writeable and not bad.face_dk.flags.writeable


def test_family_builds_each_level_once():
    calls = []

    def build(level):
        calls.append(level)
        return build_uniform_1d(4 * 2**level)

    fam = MeshFamily(name="counted", build=build)
    first = refine(fam, 3)
    second = refine(fam, 3)
    assert calls == [0, 1, 2]
    assert all(a is b for a, b in zip(first, second))
    assert fam.build(1) is fam.build(1) is first[1]
    assert fam.build(3).n_cells == 32 and calls == [0, 1, 2, 3]
    # the memo lives in the cache of ``build``, so the family's eq, hash
    # and repr see no meshes
    assert fam == fam and isinstance(hash(fam), int)
    assert "Mesh(" not in repr(fam)


def test_quality_is_computed_once_per_mesh(rated_cells):
    fam = uniform_1d_family(4)
    meshes = refine(fam, 3)
    qs = [compute_quality(m) for m in meshes]
    refine(fam, 3)
    assert rated_cells == [4, 8, 16]
    assert all(compute_quality(m) is q for m, q in zip(meshes, qs))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _members(mesh) -> dict:
    """The four arrays a mesh file holds, as copies that a test may edit."""
    return {"vertices": mesh.vertices.copy(), "cell_vertex_ids": mesh.cell_vertex_ids.copy(),
            "cell_center": mesh.cell_center.copy(), "box": np.stack(mesh.box)}


def _file(members, save=np.savez) -> io.BytesIO:
    """A mesh file of ``members`` as ``np.savez`` (or ``save``) writes it."""
    buf = io.BytesIO()
    save(buf, **members)
    return io.BytesIO(buf.getvalue())


def _written(mesh) -> bytes:
    buf = io.BytesIO()
    write_mesh(mesh, buf)
    return buf.getvalue()


def _reloaded(mesh):
    return read_mesh(io.BytesIO(_written(mesh)))


def _mesh(members) -> Mesh:
    """The mesh of the four arrays of a file, built without a file."""
    return Mesh(members["vertices"], members["cell_vertex_ids"], members["cell_center"],
                tuple(members["box"]))


def test_mesh_file_round_trip_bit_exact(tmp_path, families):
    for name, fam in families.items():
        p1 = tmp_path / f"{name}-a.npz"
        p2 = tmp_path / f"{name}-b.npz"
        m = fam.build(1)
        write_mesh(m, str(p1))
        m2 = read_mesh(str(p1))
        write_mesh(m2, str(p2))
        assert p1.read_bytes() == p2.read_bytes(), name
        assert m2.n_cells == m.n_cells and m2.n_faces == m.n_faces
        assert np.array_equal(m2.cell_volume, m.cell_volume)
        assert np.array_equal(m2.face_normal, m.face_normal)
        assert np.array_equal(m2.face_dsig, m.face_dsig)
        q1, q2 = compute_quality(m), compute_quality(m2)
        assert q1.theta_grad == q2.theta_grad and q1.theta == q2.theta


# sha256 of write_mesh output.  Re-recorded for the zip of .npy members,
# which replaced the lwfv-mesh v3 text: the same four arrays, whose reloads
# are compared bit for bit in test_loaded_mesh_computes_what_the_built_mesh_does
PINNED_MESH_BYTES = {
    ("uniform-1d", 0): "cc24378b7e25b786c73dffc2d848572e1a7cf6fce30fb52b61351a6e72df020e",
    ("uniform-1d", 1): "70419d1cfc99701a962973247032a253bb72ef19e731b419de73af8405eadec4",
    ("nonuniform-1d", 0): "d6fbb4479b62debee6e85c9a265c63981e4134f9300868bc074216584eb05d98",
    ("nonuniform-1d", 1): "e0b37c195fe8cc0ec967de385826cf811e04e74402bc89250d66822b11e7e52c",
    ("cartesian-2d", 0): "1595822423332bfdab40beab3ca911f8796918ed95b9c666b5e093a2e53f6e12",
    ("cartesian-2d", 1): "ee11e820eee5047e3fbe75597096284335e82b357d1d5bf6c280f4652170e530",
    ("triangular-2d", 0): "7e88f0e70091753e9ab1ef00119eb7a43667cd10b3ea71facd1af122ba1b75e8",
    ("triangular-2d", 1): "225cb808f8f2cff20383b24d637789067c3978a042ccb456e41443e3ad10b8f5",
}


@pytest.mark.parametrize("name,level", sorted(PINNED_MESH_BYTES))
def test_written_mesh_bytes_are_pinned(families, name, level):
    digest = hashlib.sha256(_written(families[name].build(level))).hexdigest()
    assert digest == PINNED_MESH_BYTES[name, level]


def test_written_mesh_bytes_do_not_follow_the_clock(monkeypatch):
    # every member is dated 1980-01-01, so writes a second or a year apart
    # agree; zipfile's writestr would stamp the time of the write
    m = build_perturbed_triangular_2d(4)
    written = []
    for now in (1.7e9, 1.7e9 + 1.0, 1.7e9 + 3.2e7):
        monkeypatch.setattr(time, "time", lambda now=now: now)
        written.append(_written(m))
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("where", ["memory", "disk"])
def test_a_mesh_saved_by_numpy_reads_back_bit_for_bit(tmp_path, where):
    # np.savez of the four arrays is a mesh file, also with a
    # Fortran-ordered member; and np.load reads what write_mesh writes
    m = build_perturbed_triangular_2d(4)
    members = _members(m)
    for layout in ("C", "F"):
        if layout == "F":
            members["vertices"] = np.asfortranarray(members["vertices"])
            members["cell_vertex_ids"] = np.asfortranarray(members["cell_vertex_ids"])
        with np.load(_file(members)) as saved:
            assert saved["vertices"].flags.f_contiguous == (layout == "F")
        source = _file(members)
        if where == "disk":
            source = tmp_path / f"{layout}.npz"
            np.savez(source, **members)
        loaded = read_mesh(source)
        for (field, a), (_, b) in zip(_array_fields(m), _array_fields(loaded)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (
                layout, field)
    with np.load(io.BytesIO(_written(m))) as written:
        assert written.files == ["vertices", "cell_vertex_ids", "cell_center", "box"]
        for name, array in _members(m).items():
            assert (written[name].dtype, written[name].tobytes()) == (array.dtype,
                                                                      array.tobytes())


def test_a_mesh_with_int32_ids_writes_a_file_it_reads():
    # the writer casts each member to its dtype, which the reader requires
    m = build_cartesian_2d(3, 2)
    narrow = Mesh(m.vertices, m.cell_vertex_ids.astype(np.int32), m.cell_center, m.box)
    assert _written(narrow) == _written(m)


def test_mesh_file_refuses_compressed_members():
    # a stored member is read in one read bounded by the file's size; a
    # compressed one could inflate past it
    with pytest.raises(MeshError, match="member vertices is compressed"):
        read_mesh(_file(_members(build_uniform_1d(3)), np.savez_compressed))


def test_reading_a_level_4_triangulation_takes_at_most_twice_its_build():
    # the reader checks the members and hands them to Mesh, which derives
    # the rest by the builders' code: a read costs about a build
    data = _written(build_perturbed_triangular_2d(64))

    def best(call):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return min(times)

    build = best(lambda: build_perturbed_triangular_2d(64))
    read = best(lambda: read_mesh(io.BytesIO(data)))
    assert read <= 2 * build, (read, build)


# sha256 prefixes of "<dtype> <shape> " and the bytes of every derived array,
# at levels that span several blocks of the set-up passes; recorded when
# those passes still took a whole mesh at once
PINNED_DERIVED_ARRAYS = {
    ("uniform-1d", 9): {
        "cell_volume": "a8c008803eb9eeb5",
        "cell_diam": "a8c008803eb9eeb5",
        "cell_vertices": "83ba801e61916066",
        "face_vertex_ids": "fd209c7f0b061f1f",
        "face_area": "f6ed630aee17076e",
        "face_normal": "86bbe6d2f1f227bc",
        "face_K": "5fa7056527385424",
        "face_L": "49d7bb0cef615600",
        "face_dk": "1a1fcffd568f8c01",
        "face_dl": "5ae104872d32e3eb",
        "face_centroid": "720b34aa4ba9f9dc",
    },
    ("nonuniform-1d", 9): {
        "cell_volume": "b3b5258c1529d3b3",
        "cell_diam": "b3b5258c1529d3b3",
        "cell_vertices": "0bcb784c4234db5c",
        "face_vertex_ids": "fd209c7f0b061f1f",
        "face_area": "f6ed630aee17076e",
        "face_normal": "86bbe6d2f1f227bc",
        "face_K": "5fa7056527385424",
        "face_L": "49d7bb0cef615600",
        "face_dk": "21ca56772a73958f",
        "face_dl": "2235defe07d1f2d4",
        "face_centroid": "9dd0e18ff194e4dd",
    },
    ("cartesian-2d", 4): {
        "cell_volume": "0f550818d0572ab5",
        "cell_diam": "867204932c9bf8df",
        "cell_vertices": "a07e13c2c272bcb3",
        "face_vertex_ids": "10baef64b60075d8",
        "face_area": "92b2986912d8903d",
        "face_normal": "6408653ff0039f93",
        "face_K": "d1b3ee1fd3866aee",
        "face_L": "8026d1e41fa703d3",
        "face_dk": "e5ec036bb2d9bbfa",
        "face_dl": "a216c5d4e3fca1de",
        "face_centroid": "aee017a1eace42e6",
    },
    ("triangular-2d", 4): {
        "cell_volume": "62e3625d0272f1bf",
        "cell_diam": "d40e1bfdcc27f748",
        "cell_vertices": "e87ab959e801de53",
        "face_vertex_ids": "23c3a6c4e50a06ae",
        "face_area": "b4956f36efd6ff59",
        "face_normal": "fc10888b67a9cb79",
        "face_K": "5cc155b735316e71",
        "face_L": "5cb98f777471cdb8",
        "face_dk": "5ba51e581bfef68f",
        "face_dl": "9046acb75fbf76e0",
        "face_centroid": "26531239481c455b",
    },
}


@pytest.mark.parametrize("name,level", sorted(PINNED_DERIVED_ARRAYS))
def test_derived_arrays_are_pinned_across_blocks(families, name, level):
    m = families[name].build(level)
    assert m.n_faces > 2 * mesh_module.BLOCK_ROWS and m.n_cells > mesh_module.BLOCK_ROWS
    digests = {}
    for f in dataclasses.fields(m):
        if not f.init:
            a = getattr(m, f.name)
            head = f"{a.dtype.str} {a.shape} ".encode()
            digests[f.name] = hashlib.sha256(head + a.tobytes()).hexdigest()[:16]
    assert digests == PINNED_DERIVED_ARRAYS[name, level]


def _pushed(mesh, moves):
    """The mesh with the anchor of cell c moved just across its face s, for
    every (c, s) in ``moves``: to the face's centroid plus a thousandth of
    the cell's diameter out of the cell."""
    x = mesh.cell_center.copy()
    for c, s in moves:
        out = mesh.face_normal[s] if mesh.face_K[s] == c else -mesh.face_normal[s]
        x[c] = mesh.face_centroid[s] + 1e-3 * mesh.cell_diam[c] * out
    return dataclasses.replace(mesh, cell_center=x)


def test_anchor_test_names_the_first_cell_in_k_then_l_order_across_blocks(families):
    m = families["triangular-2d"].build(4)
    block = mesh_module.BLOCK_ROWS
    inner = np.flatnonzero(m.interior)
    # c1 leaves through a face it owns as K, in the fourth block of faces;
    # c2 through a face it owns only as L, in the second block, and c2 is
    # the lower cell on the lower face, so only the K-then-L order puts c1
    # first
    s1 = int(inner[inner >= 3 * block][0])
    c1 = int(m.face_K[s1])
    s2 = int(next(s for s in inner[(inner >= block) & (inner < 2 * block)]
                  if m.face_L[s] < c1 and c1 not in (m.face_K[s], m.face_L[s])))
    c2 = int(m.face_L[s2])
    assert s2 < s1 and c2 < c1
    detail = "x_K more than 4 eps (|x_K| + h_K) inside every face of K, not cell {}"
    for moves, cell in (([(c1, s1)], c1), ([(c2, s2)], c2), ([(c1, s1), (c2, s2)], c1)):
        rep = validate(_pushed(m, moves))
        assert rep.failing() == ["anchor_inside"], moves
        assert rep.checks[2][2] == detail.format(cell), moves


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_setting_up_a_family_holds_its_meshes_and_one_block():
    # refine, validate, rate and project levels 0-5 of the triangulation
    # (32 768 cells at level 5) after a warm-up on a small family, in a
    # process started by the small launcher, so that the test runner's
    # peak is not its floor
    script = (
        "import resource\n"
        "import numpy as np\n"
        "from lwfv import mesh, translations\n"
        "datum = translations.smooth_function(lambda x: np.sin(x[..., 0]) * x[..., 1])\n"
        "def set_up(family, levels):\n"
        "    meshes = mesh.refine(family, levels)\n"
        "    for m in meshes:\n"
        "        mesh.validate(m)\n"
        "        mesh.compute_quality(m)\n"
        "        translations.project_l1(m, datum)\n"
        "    return meshes\n"
        "set_up(mesh.perturbed_triangular_2d_family(2), 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "meshes = set_up(mesh.perturbed_triangular_2d_family(4), 6)\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "nbytes = sum(a.nbytes for m in meshes for a in vars(m).values()\n"
        "             if isinstance(a, np.ndarray))\n"
        "print(rise * 1024, nbytes, mesh.BLOCK_ROWS)\n")
    out = subprocess.run([sys.executable, "-c", _LAUNCH, "-c", script],
                         env=_subprocess_env(), capture_output=True, text=True,
                         timeout=120, check=True)
    rise, nbytes, block = map(int, out.stdout.split())
    # the meshes themselves (10.2 MiB) and one block of scratch at 1 KiB a
    # row: project_l1 on a triangle, the widest pass, takes about 0.4 KiB a
    # row (7 points of 2 coordinates, a weight, a value and the datum's
    # temporaries, in doubles), and the rest is room for the allocator.
    # Passes over whole levels rose 25.2 MiB; blocks of 2 048 rows, 10.9
    assert rise < nbytes + block * 1024, (rise, nbytes)


def _npy(array=None, *, descr="<i8", shape=None) -> bytes:
    """The bytes of ``np.save(array)``, or of a bare header of ``descr``
    and ``shape``."""
    buf = io.BytesIO()
    if array is not None:
        np.save(buf, array, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(
            buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def _file_with(members, name, data: bytes) -> io.BytesIO:
    """The file of ``members`` with ``data`` stored as one more member
    ``<name>.npy``, after any of that name."""
    buf = _file(members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of a duplicate name
        with zipfile.ZipFile(buf, "a") as zf:
            zf.writestr(f"{name}.npy", data)
    return io.BytesIO(buf.getvalue())


def test_mesh_file_rejects_unknown_header():
    # not a zip, or a zip cut inside its first member
    for data in (b"bogus-header v9 dim=1\n", b"", _written(build_uniform_1d(3))[:40]):
        with pytest.raises(MeshError, match="mesh file cannot be read"):
            read_mesh(io.BytesIO(data))


def test_mesh_file_rejects_a_cut_or_damaged_file():
    # a cut file has no end record, and the CRC-32 of every member catches a
    # changed byte of its data
    data = _written(build_perturbed_triangular_2d(2))
    for n in (0, 100, len(data) // 2, len(data) - 1):
        with pytest.raises(MeshError, match="mesh file cannot be read"):
            read_mesh(io.BytesIO(data[:n]))
    damaged = bytearray(data)
    damaged[data.index(_members(build_perturbed_triangular_2d(2))["vertices"].tobytes()) + 30] ^= 1
    with pytest.raises(MeshError, match="Bad CRC-32 for file 'vertices.npy'"):
        read_mesh(io.BytesIO(bytes(damaged)))


def test_mesh_file_rejects_a_vertex_id_out_of_range():
    for bad in ([1, 7], [-1, 2], [1, 4], [1, 2**63 - 1], [-2**63, 2]):
        members = _members(build_uniform_1d(3))  # vertices 0..3; cell 1 is 1, 2
        members["cell_vertex_ids"][1] = bad
        with pytest.raises(MeshError, match="cell 1: vertex id"):
            read_mesh(_file(members))


def test_mesh_file_rejects_a_missing_or_extra_member():
    # the member set is the format: no member may be missing, and no other
    # may come along, a version tag included
    for name in ("vertices", "cell_vertex_ids", "cell_center", "box"):
        members = _members(build_uniform_1d(3))
        del members[name]
        with pytest.raises(MeshError, match=f"members .*, got (?!.*{name})"):
            read_mesh(_file(members))
    members = _members(build_uniform_1d(3))
    with pytest.raises(MeshError, match="members .*, got .*version.npy"):
        read_mesh(_file({**members, "version": np.array([[4]])}))


@pytest.mark.parametrize("name, value, error", [
    ("cell_vertex_ids", lambda a: a.astype(float), "cell_vertex_ids must be a non-empty "
     r"2-d int64 array, got float64 of shape \(3, 2\)"),
    ("cell_vertex_ids", lambda a: a.astype(np.int32), "got int32"),
    ("cell_vertex_ids", lambda a: a.astype(object), "got object"),
    ("vertices", lambda a: a.astype(np.float32), "vertices must be .* float64 array, got float32"),
    ("vertices", lambda a: a.ravel(), r"vertices must be a non-empty 2-d .* shape \(4,\)"),
    ("cell_vertex_ids", lambda a: a[:, :, None], r"shape \(3, 2, 1\)"),
    ("cell_vertex_ids", lambda a: a[:0], r"non-empty .* shape \(0, 2\)"),
    ("cell_center", lambda a: a[:2],
     r"cell_center must be \(3, 1\) and box \(2, 1\), got \(2, 1\)"),
    ("cell_center", lambda a: np.hstack([a, a]), r"got \(3, 2\) and \(2, 1\)"),
    ("box", lambda a: a[:1], r"got \(3, 1\) and \(1, 1\)"),
    ("box", lambda a: np.vstack([a, a]), r"got \(3, 1\) and \(4, 1\)"),
    ("box", lambda a: np.hstack([a, a]), r"got \(3, 1\) and \(2, 2\)"),
], ids=["float-ids", "int32-ids", "pickled-ids", "float32-vertices", "1d-vertices",
        "3d-ids", "no-cells", "anchors-short", "anchors-wide", "box-short", "box-long",
        "box-wide"])
def test_mesh_file_rejects_a_member_of_the_wrong_dtype_or_shape(name, value, error):
    # members of another dtype are not converted: ids of 1.0 are refused,
    # and pickled data is never unpickled
    members = _members(build_uniform_1d(3))
    members[name] = value(members[name])
    with pytest.raises(MeshError, match=error):
        read_mesh(_file(members))


def test_mesh_file_rejects_a_header_that_promises_more_than_its_member_holds():
    # np.load would allocate the header's 16 TiB before it found the data
    # missing; the reader compares the header with the member first
    members = _members(build_uniform_1d(3))
    ids = members.pop("cell_vertex_ids")
    for data, held in ((_npy(shape=(2**40, 2)), 0),
                       (_npy(ids)[:-8], ids.nbytes - 8),
                       (_npy(ids) + bytes(8), ids.nbytes + 8)):
        with pytest.raises(MeshError, match=f"member cell_vertex_ids: its header promises "
                                            f"[0-9]+ bytes of data, the member holds {held}$"):
            read_mesh(_file_with(members, "cell_vertex_ids", data))


def test_mesh_file_rejects_a_member_larger_than_the_file():
    # the zip's record of a member's size is checked against the file before
    # the member is read: with a header to match, a claim of 16 MiB in a file
    # of a few hundred bytes would be read into a 16 MiB buffer
    members = _members(build_uniform_1d(3))
    ids = members.pop("cell_vertex_ids")
    header = _npy(shape=(2**20, 2))
    raw = bytearray(_file_with(members, "cell_vertex_ids", header + ids.tobytes()).getvalue())
    claim = len(header) + 2**24
    # the sizes in the central directory's record, 46 bytes before its name
    struct.pack_into("<II", raw, raw.rindex(b"cell_vertex_ids.npy") - 46 + 20, claim, claim)
    with pytest.raises(MeshError, match=f"member cell_vertex_ids claims {claim} bytes "
                                        f"of a {len(raw)}-byte file"):
        read_mesh(io.BytesIO(bytes(raw)))


@pytest.mark.parametrize("name", ["vertices", "cell_center"])
def test_mesh_file_rejects_a_non_finite_coordinate(name):
    for value in (np.nan, np.inf):
        members = _members(build_cartesian_2d(2, 2))
        members[name][1, 1] = value
        with pytest.raises(MeshError, match="non-finite coordinate"):
            read_mesh(_file(members))


def test_mesh_file_rejects_a_facet_of_three_cells():
    # cell 2 of four made a copy of cell 1: vertex 2 then ends three cells
    members = _members(build_uniform_1d(4))
    members["cell_vertex_ids"][2] = [1, 2]
    members["cell_center"][2] = 0.375
    with pytest.raises(GeometryError, match="cell 2: a facet shared by 3 cells"):
        read_mesh(_file(members))


# two copies of one cell, which cover half the box and passed every check
STACKED_CELLS = {
    "stacked-triangles": {"vertices": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          "cell_vertex_ids": np.array([[0, 1, 2], [0, 1, 2]]),
                          "cell_center": np.full((2, 2), 0.25),
                          "box": np.array([[0.0, 0.0], [1.0, 1.0]])},
    "stacked-intervals": {"vertices": np.array([[0.0], [0.5]]),
                          "cell_vertex_ids": np.array([[0, 1], [0, 1]]),
                          "cell_center": np.full((2, 1), 0.25),
                          "box": np.array([[0.0], [1.0]])},
}


@pytest.mark.parametrize("name", sorted(STACKED_CELLS))
def test_mesh_file_rejects_two_cells_on_one_side_of_a_facet(name):
    # a facet's second occurrence must run opposite to its first
    members = {k: v.copy() for k, v in STACKED_CELLS[name].items()}
    with pytest.raises(GeometryError, match="cells 0 and 1 lie on the same side"):
        _mesh(members)


def test_mesh_file_rejects_a_second_box_line():
    # a zip may hold two members of one name, of which zipfile reads the
    # last: a second box would win silently
    members = _members(build_uniform_1d(3))
    with pytest.raises(MeshError, match="members .*, got box.npy, box.npy, "):
        read_mesh(_file_with(members, "box", _npy(np.array([[0.0], [2.0]]))))


@pytest.mark.parametrize("mesh, name, row, value, error", [
    (build_uniform_1d(3), "cell_vertex_ids", 1, [2, 1], "cell 1: not an ascending interval"),
    (build_perturbed_triangular_2d(2), "cell_vertex_ids", 0, None,
     "cell 0: not a counter-clockwise triangle"),
    # (0, 0.5) of cell 0 moved to (0.1, 0.5): a trapezoid, which cell_rule
    # would integrate over its bounding box
    (build_cartesian_2d(2, 2), "vertices", 3, [0.1, 0.5], "cell 0: not an axis-aligned rectangle"),
    # a rectangle listed from another corner
    (build_cartesian_2d(2, 2), "cell_vertex_ids", 0, [1, 4, 3, 0],
     "cell 0: not an axis-aligned rectangle"),
], ids=["interval-descending", "triangle-clockwise", "trapezoid", "rectangle-rotated"])
def test_mesh_file_rejects_a_cell_of_the_wrong_shape(mesh, name, row, value, error):
    members = _members(mesh)
    # None: the cell's vertex ids in the other orientation
    members[name][row] = members[name][row, ::-1].copy() if value is None else value
    with pytest.raises(GeometryError, match=error):
        read_mesh(_file(members))


@pytest.mark.parametrize("mesh, box", [
    (build_uniform_1d(3), None), (build_uniform_1d(3), [[0], [np.inf]]),
    (build_uniform_1d(3), [[np.nan], [1]]), (build_uniform_1d(3), [[1], [1]]),
    (build_uniform_1d(3), [[1], [0]]), (build_cartesian_2d(2, 2), [[0, 0], [np.inf, 1]]),
    (build_cartesian_2d(2, 2), [[0, 0.5], [1, 0.5]]),
], ids=["missing", "inf", "nan", "lo=hi", "lo>hi", "2d-inf", "2d-lo=hi"])
def test_mesh_file_needs_a_finite_box(mesh, box):
    # |Omega| is the measure of the box: with an infinite one both
    # partition checks would pass as inf <= inf
    members = _members(mesh)
    if box is None:
        del members["box"]
    else:
        members["box"] = np.array(box, dtype=float)
    with pytest.raises(MeshError, match="box"):
        read_mesh(_file(members))


def test_reloaded_mesh_keeps_its_measures_bit_for_bit():
    # |Omega| comes from the box, not from the file's cell volumes, which
    # add up to 0.9999999999999988 on this level
    m = perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(2)
    loaded = _reloaded(m)
    assert loaded.domain_measure == m.domain_measure == 1.0
    assert loaded.h_max == m.h_max == float(m.cell_diam.max())


def test_loaded_mesh_with_a_wrong_cell_volume_fails_the_cell_partition():
    # measured against the box, not against the volumes themselves.  The
    # file derives |K| from the vertices, so its cells shrink: the vertices
    # at x = 1 moved to x = 0.9, which also takes the right side off the box
    members = _members(build_cartesian_2d(4, 4))
    vertices = members["vertices"]
    vertices[vertices[:, 0] == 1.0, 0] = 0.9
    loaded = read_mesh(_file(members))
    assert loaded.cell_volume.sum() < 0.95
    assert validate(loaded).failing() == ["cell_partition", "boundary_on_box"]
    # the unit interval twice over, each copy with its own vertex ids: every
    # boundary face is on the box and every anchor inside its cell, and the
    # cells cover the box twice
    twice = Mesh(np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([[0, 1], [2, 3]]),
                 np.full((2, 1), 0.5), (np.zeros(1), np.ones(1)))
    assert validate(twice).failing() == ["cell_partition"]


def _with_box(mesh, lo, hi):
    """``mesh`` with its box replaced."""
    return Mesh(mesh.vertices, mesh.cell_vertex_ids, mesh.cell_center,
                (np.array(lo, dtype=float), np.array(hi, dtype=float)))


@pytest.mark.parametrize("mesh, lo, hi", [
    (build_uniform_1d(4), [5], [6]),
    (build_cartesian_2d(4, 4), [0.5, 0.5], [1.5, 1.5]),
], ids=["1d", "2d"])
def test_mesh_outside_its_box_fails_validation(mesh, lo, hi):
    # the measure of the box is still 1, so only the box check can tell
    assert validate(mesh).ok
    assert validate(_with_box(mesh, lo, hi)).failing() == ["boundary_on_box"]


def test_a_domain_cut_by_a_split_facet_fails_only_boundary_on_box():
    # the vertex at x = 0.5 given a second id for cell 2: the facet becomes
    # two boundary faces, and an outflow run would see a wall at x = 0.5
    m = build_uniform_1d(4)
    ids = m.cell_vertex_ids.copy()
    ids[2] = [5, 3]
    cut = Mesh(np.vstack([m.vertices, [[0.5]]]), ids, m.cell_center, m.box)
    assert cut.n_faces == 6 and np.sum(cut.face_L < 0) == 4
    assert validate(cut).failing() == ["boundary_on_box"]
    assert validate(build_uniform_1d(4)).ok


@pytest.mark.parametrize("name", ["uniform-1d", "nonuniform-1d", "cartesian-2d",
                                  "triangular-2d"])
def test_loaded_mesh_computes_what_the_built_mesh_does(families, name, sine_datum_1d,
                                                       sine_datum_2d):
    # the file keeps what defines the mesh and the reader derives the rest
    # by the builders' code, so every array, projection, solve and weak gap
    # of a loaded mesh is the built mesh's, bit for bit
    for level in range(3):
        built = families[name].build(level)
        loaded = _reloaded(built)
        if built.dim == 1:
            flux, u0 = upwind_linear([1.0]), sine_datum_1d
            data = [u0, interval_indicator(0.25, 0.65)]
        else:
            flux, u0 = rusanov(burgers([0.6, 0.8])), sine_datum_2d
            data = [u0]
        for (field, a), (_, b) in zip(_array_fields(built), _array_fields(loaded)):
            assert np.array_equal(a, b) and a.dtype == b.dtype, (name, level, field)
        for u in data:
            assert (project_l1(loaded, u).tobytes()
                    == project_l1(built, u).tobytes())
        problem = Problem(flux=flux, u0=u0, t_final=0.5)
        fields = [solve(mesh, problem) for mesh in (built, loaded)]
        assert fields[0].values.tobytes() == fields[1].values.tobytes()
        assert (spacetime_translation_seminorm(loaded, fields[1].grid, fields[1].values)
                == spacetime_translation_seminorm(built, fields[0].grid, fields[0].values))
        for phi in bump_corpus_spacetime(built.dim, 0.5):
            assert weak_gap(fields[1], phi, u0) == weak_gap(fields[0], phi, u0)


def test_mesh_file_rejects_a_v1_file():
    # the text formats: v1 stored no vertices, v2 its faces, v3 the four
    # arrays as lines; mesh-gen rewrites any of them
    for head in ("lwfv-mesh v1 dim=1\n# policy cone\n", "lwfv-mesh v2 dim=1 nv=2\n",
                 "lwfv-mesh v3 dim=1 nv=2\n# box 0 1\n"):
        with pytest.raises(MeshError, match="lwfv-mesh text files are no longer read: "
                                            "rerun mesh-gen"):
            read_mesh(io.BytesIO(head.encode()))


_SHAPES_WITHOUT_A_RULE = [
    ("lwfv-mesh v2 dim=1 nv=3", np.zeros((2, 3), np.int64), "intervals"),
    ("lwfv-mesh v2 dim=1 nv=1", np.zeros((2, 1), np.int64), "intervals"),
    ("lwfv-mesh v2 dim=2 nv=2", np.zeros((2, 2), np.int64), "intervals"),
    ("lwfv-mesh v2 dim=2 nv=5", np.zeros((2, 5), np.int64), "intervals"),
    ("lwfv-mesh v2 dim=3 nv=4", np.zeros((2, 4), np.int64), "intervals"),
    # no count: ids without a vertex axis; a count that is no number: ids
    # that are not integers
    ("lwfv-mesh v2 dim=1", np.zeros(2, np.int64), "2-d int64"),
    ("lwfv-mesh v2 dim=1 nv=two", np.zeros((2, 2), "<U3"), "2-d int64"),
]


@pytest.mark.parametrize("header, ids, error", _SHAPES_WITHOUT_A_RULE,
                         ids=[case[0] for case in _SHAPES_WITHOUT_A_RULE])
def test_mesh_file_rejects_a_cell_shape_without_a_rule(header, ids, error):
    # nv = 2 in 1d and 3 or 4 in 2d are the cells quadrature.cell_rule
    # takes.  A text file with the header as given (an old version) or its
    # v3 twin is refused as text; a file of the arrays it describes, for
    # its cells
    for version in ("v2", "v3"):
        with pytest.raises(MeshError, match="rerun mesh-gen"):
            read_mesh(io.BytesIO((header.replace("v2", version) + "\n").encode()))
    dim = int(header.split("dim=")[1].split()[0])
    members = {"vertices": np.zeros((5, dim)), "cell_vertex_ids": ids,
               "cell_center": np.zeros((2, dim)), "box": np.array([[0.0] * dim, [1.0] * dim])}
    with pytest.raises(MeshError, match=error):
        read_mesh(_file(members))


def test_mesh_file_rejects_a_missing_vertex_coordinate():
    # the vertices of a 1d mesh without their coordinate, and those of a 2d
    # one without their y
    members = _members(build_uniform_1d(3))
    members["vertices"] = members["vertices"][:, :0]
    with pytest.raises(MeshError, match=r"vertices must be a non-empty .* shape \(4, 0\)"):
        read_mesh(_file(members))
    members = _members(build_cartesian_2d(2, 2))
    members["vertices"] = members["vertices"][:, :1]
    with pytest.raises(MeshError, match="cells of 4 vertices in 1d"):
        read_mesh(_file(members))


def _tiny_1d(anchor_1: float) -> Mesh:
    """Four cells of [0, 1e-9], with cell 1's anchor as given."""
    xs = [0.0, 2.5e-10, 5e-10, 7.5e-10, 1e-9]
    anchors = [1.25e-10, anchor_1, 6.25e-10, 8.75e-10]
    return Mesh(np.array(xs)[:, None], np.stack([np.arange(4), np.arange(1, 5)], axis=1),
                np.array(anchors)[:, None], (np.zeros(1), np.array([1e-9])))


def test_anchor_inside_scales_with_the_cell():
    # an interior anchor 5e-13 left of its cell, 0.2 % of the cell's width,
    # passed an absolute tolerance of 1e-12
    assert validate(_tiny_1d(3.75e-10)).ok
    bad = _tiny_1d(2.5e-10 - 5e-13)
    assert validate(bad).failing() == ["anchor_inside"]


def test_loaded_mesh_validates(tmp_path):
    p = tmp_path / "m.npz"
    write_mesh(perturbed_triangular_2d_family(4, jitter=0.3, seed=0).build(1), str(p))
    assert validate(read_mesh(str(p))).ok


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_uniform_1d_partition_property(n):
    m = build_uniform_1d(n)
    assert brute_cell_partition_defect(m) <= 1e-12
    assert brute_dual_partition_defect(m) <= 1e-12
    assert m.n_faces == n + 1


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    ratio=st.floats(min_value=1.0, max_value=4.0),
)
def test_nonuniform_1d_closure_property(n, ratio):
    m = build_nonuniform_1d(n, ratio=ratio)
    assert brute_face_closure(m) <= 1e-12
    assert validate(m).ok


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
    jitter=st.floats(min_value=0.0, max_value=0.2),
)
def test_triangular_validates_in_safe_band(n, seed, jitter):
    # below 0.2 no offset table can invert a triangle
    m = perturbed_triangular_2d_family(n, jitter=jitter, seed=seed).build(0)
    assert validate(m).ok


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
    jitter=st.floats(min_value=0.0, max_value=0.45),
)
# a flat cone whose deviation, relative to its own measure, read 2.24e-12
@example(n=7, seed=34, jitter=0.4067458887108136)
@settings(deadline=None)
def test_triangular_never_builds_silently_invalid(n, seed, jitter):
    # an aggressive draw may invert a triangle; the only acceptable
    # outcomes are a valid mesh or a loud refusal
    try:
        m = perturbed_triangular_2d_family(n, jitter=jitter, seed=seed).build(0)
    except GeometryError:
        return
    assert validate(m).ok


def _removed_checks(mesh) -> set[str]:
    """Which of five checks on the derived arrays a mesh fails: the dual
    pieces sum to |Omega| (``dual_partition``); volumes, areas and pieces
    are positive (``positive_measures``); normals are unit (``unit_normals``);
    the area-weighted normals of a cell add to 0 (``face_closure``); every
    piece is |sigma| / d times the anchor's distance from the face's plane,
    recomputed from the centroid and the normal (``cone_identity``); and
    each anchor lies in its cell's bounding box (intervals, rectangles) or
    passes the barycentric sign test (triangles), each to within a slack of
    4 eps (|x_K|_inf + h_K) in distance (``anchor_in_cell``)."""
    eps = np.finfo(float).eps
    inner, K, L = mesh.interior, mesh.face_K, mesh.face_L
    omega = mesh.domain_measure
    failed = set()
    if not abs(float(mesh.face_dsig.sum()) - omega) <= REL * omega:
        failed.add("dual_partition")
    if not (np.all(mesh.cell_volume > 0) and np.all(mesh.face_area > 0)
            and np.all(mesh.face_dk > 0) and np.all(mesh.face_dl[inner] > 0)):
        failed.add("positive_measures")
    if not np.max(np.abs(np.linalg.norm(mesh.face_normal, axis=1) - 1.0)) <= 1e-12:
        failed.add("unit_normals")
    ints = np.flatnonzero(inner)
    cells = np.concatenate([K, L[ints]])
    faces = np.concatenate([np.arange(mesh.n_faces), ints])
    flow = mesh.face_area[:, None] * mesh.face_normal
    signed = np.concatenate([flow, -flow[ints]])
    net = np.stack([np.bincount(cells, signed[:, j], mesh.n_cells)
                    for j in range(mesh.dim)], axis=1)
    perimeter = np.bincount(cells, mesh.face_area[faces], mesh.n_cells)
    if not np.max(np.linalg.norm(net, axis=1) / perimeter) <= 1e-12:
        failed.add("face_closure")
    reach = np.abs(mesh.cell_center).max(axis=1) + mesh.cell_diam
    part = np.concatenate([mesh.face_dk, mesh.face_dl[ints]])
    area = mesh.face_area[faces]
    height = np.abs(np.einsum("fd,fd->f", mesh.cell_center[cells] - mesh.face_centroid[faces],
                              mesh.face_normal[faces]))
    # both are |sigma| / d times a height of d + 3 roundings of eps M each
    scale = area * reach[cells] / mesh.dim
    if not np.max(np.abs(part - area * height / mesh.dim) / scale) <= (
            2 * mesh.dim * (mesh.dim + 3) * eps):
        failed.add("cone_identity")
    verts, x = mesh.cell_vertices, mesh.cell_center
    slack = 4 * eps * reach
    if verts.shape[1] == 3:
        # a cross product is the distance times the edge's length <= h_K
        def cross(a, b):
            return ((b[:, 0] - a[:, 0]) * (x[:, 1] - a[:, 1])
                    - (x[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
        inside = all(np.all(cross(verts[:, i], verts[:, (i + 1) % 3])
                            >= -slack * mesh.cell_diam) for i in range(3))
    else:
        inside = np.all((x >= verts.min(axis=1) - slack[:, None])
                        & (x <= verts.max(axis=1) + slack[:, None]))
    if not inside:
        failed.add("anchor_in_cell")
    return failed


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["uniform-1d", "nonuniform-1d", "cartesian-2d", "triangular-2d"]),
       level=st.integers(0, 1), scaled=st.booleans(),
       kind=st.sampled_from(["dirichlet", "uniform", "gaussian"]),
       seed=st.integers(0, 2**32 - 1))
# an anchor that rounding leaves just outside its cell, whose cones overlap
# by far more than 1e-12 |Omega|, and one that it puts on a face of its
# cell, over which its cone is flat
@example(name="uniform-1d", level=0, scaled=True, kind="dirichlet", seed=3)
@example(name="triangular-2d", level=0, scaled=True, kind="dirichlet", seed=5)
def test_validate_needs_no_derived_array(families, name, level, scaled, kind, seed):
    # a family's level, or the same scaled by 10^U(-8, 8) and shifted by
    # U(-1e3, 1e3) per axis, with anchors drawn inside every cell
    # (Dirichlet(0.3) weights of its vertices), and then for some cells
    # uniform in the box or Gaussian far outside it
    base = families[name].build(level)
    rng = default_rng(seed)
    s, b = 1.0, np.zeros(base.dim)
    if scaled:
        s, b = 10.0 ** rng.uniform(-8, 8), rng.uniform(-1e3, 1e3, base.dim)
    vertices = base.vertices * s + b
    box = (base.box[0] * s + b, base.box[1] * s + b)
    ids = base.cell_vertex_ids
    weights = rng.dirichlet(np.full(ids.shape[1], 0.3), size=len(ids))
    anchors = np.einsum("cv,cvd->cd", weights, vertices[ids])
    if kind != "dirichlet":
        some = rng.choice(len(ids), rng.integers(1, len(ids) + 1), replace=False)
        width = box[1] - box[0]
        anchors[some] = (box[0] + rng.random((some.size, base.dim)) * width
                         if kind == "uniform" else
                         box[0] + 0.5 * width
                         + 10 * width * rng.standard_normal((some.size, base.dim)))
    mesh = Mesh(vertices, ids, anchors, box)
    removed = _removed_checks(mesh)
    failing = validate(mesh).failing()
    # the derivation alone makes normals unit, cells closed, pieces cones,
    # and volumes and areas positive (a zero-length edge is a zero-area cell)
    assert not removed & {"unit_normals", "face_closure", "cone_identity"}
    assert np.all(mesh.cell_volume > 0) and np.all(mesh.face_area > 0)
    assert failing in ([], ["anchor_inside"])
    # an anchor outside its cell, cones that overlap and a piece of measure
    # 0 fail the anchor test: one that passes it lies in its cell, and its
    # cones have positive measure and tile the cell
    assert not removed or "anchor_inside" in failing


_SMALL_MESHES = (build_uniform_1d(3), build_nonuniform_1d(3), build_cartesian_2d(2, 2),
                 build_perturbed_triangular_2d(2))
_WRITTEN = [_written(m) for m in _SMALL_MESHES]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_refuses_a_damaged_file_or_returns_a_finite_mesh(data):
    # a file is outside input: one byte changed, deleted or inserted, or the
    # file cut, must give a MeshError (GeometryError included) or a mesh
    # without NaN or inf
    raw = bytearray(data.draw(st.sampled_from(_WRITTEN)))
    i = data.draw(st.integers(0, len(raw) - 1))
    damage = data.draw(st.sampled_from(["change", "delete", "insert", "cut"]))
    if damage == "change":
        raw[i] ^= data.draw(st.integers(1, 255))
    elif damage == "delete":
        del raw[i]
    elif damage == "insert":
        raw.insert(i, data.draw(st.integers(0, 255)))
    else:
        del raw[i:]
    try:
        mesh = read_mesh(io.BytesIO(bytes(raw)))
    except MeshError:
        return
    for name, arr in _array_fields(mesh):
        assert np.all(np.isfinite(arr)), name


def _inside_box(mesh) -> bool:
    """The reference predicate: every anchor and face centroid lies in the
    box, to within 4 eps max(|lo|, |hi|) per axis."""
    lo, hi = mesh.box
    slack = 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    pts = np.concatenate([mesh.cell_center, mesh.face_centroid])
    return bool(np.all((pts >= lo - slack) & (pts <= hi + slack)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_file_that_leaves_its_box_fails_a_validate_check(data):
    # validate does not check that the anchors and face centroids lie in the
    # box: consistently oriented cells whose boundary faces lie on the box's
    # sides cover nothing outside it, and an anchor inside its cell is in
    # the box.  So a file with edited box, vertex, anchor or id entries that
    # loads and leaves the box fails boundary_on_box or anchor_inside
    members = _members(data.draw(st.sampled_from(_SMALL_MESHES)))
    n_vertices = len(members["vertices"])
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(members)))
        entries = members[name].reshape(-1)
        j = data.draw(st.integers(0, entries.size - 1))
        if name == "cell_vertex_ids":
            entries[j] = data.draw(st.integers(0, n_vertices - 1))
        elif data.draw(st.booleans()):
            entries[j] = data.draw(st.floats(-0.5, 1.5))
        else:  # near the old value, down to the slack of the reference
            entries[j] += data.draw(st.floats(-1.0, 1.0)) * 10.0 ** data.draw(
                st.integers(-16, -1))
    try:
        mesh = read_mesh(_file(members))
    except MeshError:
        return
    if not _inside_box(mesh):
        assert {"boundary_on_box", "anchor_inside"} & set(validate(mesh).failing())
