"""Polyhedral meshes with face-indexed dual volumes.

A mesh is a finite partition of a box domain into cells (intervals,
rectangles, or triangles) together with the face data needed by the discrete
operators: areas, unit normals oriented from the first incident cell to the
second, and the measures of the dual volumes attached to each face.

Four arrays define a mesh: its ``vertices``, each cell's vertex ids
``cell_vertex_ids``, one anchor x_K per cell ``cell_center``, and its
``box``.  :class:`Mesh` takes exactly these and derives every other array
from them, for the builders and for :func:`read_mesh` alike, so
``dataclasses.replace(mesh, cell_center=x)`` derives every dual piece again
for the new anchors.  A :class:`Mesh` is flat arrays and nothing else.
Vertices are numbered 0..n_vertices-1, cells 0..n_cells-1 and faces
0..n_faces-1:

* ``vertices`` (n_vertices, d): the shared vertex coordinates (d is
  ``dim``);
* ``cell_vertex_ids`` (n_cells, n_vertices_per_cell): each cell's vertex
  ids, ascending in 1d and counter-clockwise in 2d; a rectangle lists
  (lo, lo), (hi, lo), (hi, hi), (lo, hi).  Every family has a single cell
  shape: intervals, axis-aligned rectangles or triangles;
* ``cell_center`` (n_cells, d): the anchor x_K (the barycenter for the
  shipped builders);
* ``box`` (lo, hi), two (d,) arrays: the domain, prod [lo_i, hi_i].  Its
  measure |Omega| (``domain_measure``) and the mesh size h (``h_max``, the
  largest ``cell_diam``) are derived, not stored.

and, derived:

* ``cell_volume`` (n_cells,) and ``cell_diam`` (n_cells,): the measure |K|
  and the diameter of each cell;
* ``cell_vertices`` (n_cells, n_vertices_per_cell, d): the vertex rows of
  each cell, ``vertices[cell_vertex_ids]``;
* ``face_vertex_ids`` (n_faces, d): the vertex ids of each face, and
  ``face_area`` (n_faces,), ``face_normal`` (n_faces, d) and
  ``face_centroid`` (n_faces, d);
* ``face_K`` and ``face_L`` (n_faces,): the two incident cells, with the
  normal pointing from K to L; L is -1 on boundary faces, where the normal
  points outward;
* ``face_dk`` and ``face_dl`` (n_faces,): the dual pieces |D_K,sigma| and
  |D_L,sigma| (0 on boundary faces); their sum |D_sigma| (``face_dsig``) is
  derived, not stored.

Faces are numbered by their first occurrence in cell order: facet j of a
cell is its vertex j in 1d and its edge from vertex j to vertex j + 1 in 2d,
K is the cell of the first occurrence and L the cell of the second.  The
numbering fixes the order of every face sum, so it is part of the output.
There is no cell-to-face map: every per-cell quantity is a scatter over
``face_K`` and ``face_L``.

The dual volume of an interior face sigma shared by cells K and L is the
union of one piece inside K and one inside L; only the measures matter to
the operators.  The piece in K is the cone ("diamond" half) with apex at
the cell anchor x_K and base sigma, with measure
|sigma| * dist(x_K, plane of sigma) / d (Eymard, Gallouet and Herbin 2000).
Cones over all faces of a cell tile the cell when x_K lies inside it, so
the dual volumes partition the domain.

What a file or a caller can still get wrong, :func:`validate` checks:
``cell_partition``, ``boundary_on_box`` and ``anchor_inside``.

Meshes are read-only: a :class:`Mesh` is a frozen dataclass and every array
it holds is marked non-writeable when it is made, so a mesh is safe to
share between studies and its regularity parameters (:func:`compute_quality`)
are computed on first use and kept on it.  A :class:`MeshFamily` memoises
the levels it has built and keeps them for its own lifetime, so
``family.build(m)`` returns the same mesh on every call.

Every builder partitions the unit interval or the unit square.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import zipfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .reports import open_file

__all__ = [
    "MeshError",
    "GeometryError",
    "RegularityError",
    "Mesh",
    "MeshQuality",
    "MeshFamily",
    "build_uniform_1d",
    "build_nonuniform_1d",
    "build_cartesian_2d",
    "build_perturbed_triangular_2d",
    "uniform_1d_family",
    "nonuniform_1d_family",
    "cartesian_2d_family",
    "perturbed_triangular_2d_family",
    "compute_quality",
    "far_neighbors",
    "refine",
    "validate",
    "write_mesh",
    "read_mesh",
]

REL_TOL = 1e-12
REGULARITY_GUARD = 1.05
# Rows (cells or faces) that a set-up pass takes at a time: building,
# rating and validating a mesh and projecting data onto it hold scratch for
# one block of rows, not for the whole mesh.  At level 4 of the
# triangulation (8 192 cells, 12 416 faces) these passes took as much CPU
# time in blocks of 2 048 rows as in one block, and 10 % more in blocks of
# 1 024 (best of 15); the largest scratch, project_l1's, is 0.72 MiB at
# 2 048 rows, 0.39 MiB at 1 024 and 2.7 MiB in one block.
BLOCK_ROWS = 2048


def _blocks(n: int):
    """Slices of at most BLOCK_ROWS rows that cover 0..n-1 in order."""
    return (slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS))


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class GeometryError(MeshError):
    """Degenerate or inverted geometry."""


class RegularityError(MeshError):
    """A refinement sequence drifted out of its regularity band."""


@dataclass(frozen=True)
class Mesh:
    """A mesh from its four defining arrays; the module docstring lists
    them and the arrays derived from them here.

    Facets are matched on vertex ids and numbered by first occurrence
    (module docstring); the cone height over a face is the anchor's distance
    to the face's line (2d) or point (1d).  Raises MeshError on a vertex id
    out of range, and GeometryError on a bad cell shape, a facet of three or
    more cells, or a facet whose two cells lie on the same side of it: its
    second occurrence must run opposite to its first (q -> p in 2d; in 1d
    the right end of one interval and the left end of the other), as in a
    consistently oriented partition.  :func:`validate` says why that and
    its checks make the cells tile the box.

    Read-only: the fields cannot be reassigned and the arrays cannot be
    written to.  ``dataclasses.replace(mesh, cell_center=x)`` is the mesh
    with the anchors x, every derived array made again; a derived array
    cannot be replaced.
    """

    vertices: np.ndarray
    cell_vertex_ids: np.ndarray
    cell_center: np.ndarray
    box: tuple[np.ndarray, np.ndarray]
    cell_volume: np.ndarray = field(init=False)
    cell_diam: np.ndarray = field(init=False)
    cell_vertices: np.ndarray = field(init=False)
    face_vertex_ids: np.ndarray = field(init=False)
    face_area: np.ndarray = field(init=False)
    face_normal: np.ndarray = field(init=False)
    face_K: np.ndarray = field(init=False)
    face_L: np.ndarray = field(init=False)
    face_dk: np.ndarray = field(init=False)
    face_dl: np.ndarray = field(init=False)
    face_centroid: np.ndarray = field(init=False)

    def __post_init__(self):
        vertices, cells = self.vertices, self.cell_vertex_ids
        if cells.min() < 0 or cells.max() >= len(vertices):
            c = int(np.argmax(np.any((cells < 0) | (cells >= len(vertices)), axis=1)))
            raise MeshError(f"cell {c}: vertex id outside 0..{len(vertices) - 1}")
        # in stages, each a helper whose scratch is gone when it returns
        verts = vertices[cells]
        volume, diam = _cell_geometry(verts)
        first, K, L = _match_facets(cells, vertices.shape[1], len(vertices))
        derived = dict(cell_volume=volume, cell_diam=diam, cell_vertices=verts,
                       **_face_geometry(vertices, cells, self.cell_center, first, K, L))
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # the cached quality and a family's shared levels rely on this
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False

    @functools.cached_property
    def _quality(self) -> MeshQuality:
        return _measure_quality(self)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def face_dsig(self) -> np.ndarray:
        """|D_sigma| = |D_K,sigma| + |D_L,sigma| of every face."""
        return self.face_dk + self.face_dl

    @property
    def domain_measure(self) -> float:
        """|Omega|, the measure of the box."""
        lo, hi = self.box
        return float(np.prod(hi - lo))

    @property
    def h_max(self) -> float:
        """The mesh size h: the largest cell diameter."""
        return float(self.cell_diam.max())

    @property
    def n_cells(self) -> int:
        return self.cell_volume.size

    @property
    def n_faces(self) -> int:
        return self.face_area.size

    @property
    def interior(self) -> np.ndarray:
        return self.face_L >= 0

    def face_counts(self) -> np.ndarray:
        """Number of faces of every cell."""
        return (np.bincount(self.face_K, minlength=self.n_cells)
                + np.bincount(self.face_L[self.interior], minlength=self.n_cells))


@dataclass(frozen=True)
class MeshQuality:
    """Regularity parameters of one mesh.

    theta_grad ties face area and anchor separation to the dual measure,
    theta the dual measure to the cell measure, tau the cell measure to the
    one-sided dual pieces; n_faces_max is the largest face count of a cell.
    """

    theta_grad: float
    theta: float
    tau: float
    n_faces_max: int


@dataclass(frozen=True)
class MeshFamily:
    """A level-indexed generator of meshes refining the same geometry.

    ``build(level)`` builds a level the first time it is asked for and
    returns that same read-only mesh on every later call: the family keeps
    each mesh it has built for its own lifetime.  So the callable given as
    ``build`` must be a function of the level alone.
    """

    name: str
    build: Callable[[int], Mesh]

    def __post_init__(self):
        object.__setattr__(self, "build", functools.cache(self.build))


# ---------------------------------------------------------------------------
# internal construction helpers
# ---------------------------------------------------------------------------


def _length(v: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis (of size 1 or 2)."""
    return np.abs(v[..., 0]) if v.shape[-1] == 1 else np.hypot(v[..., 0], v[..., 1])


def _cross(a, b, c) -> np.ndarray:
    """Twice the signed area of every triangle (a, b, c), positive when
    counter-clockwise."""
    return ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def _cell_measure(verts: np.ndarray, first: int) -> np.ndarray:
    """|K| of every cell from its vertex rows, after checking its shape: an
    ascending interval, a counter-clockwise triangle, or an axis-aligned
    rectangle listed (lo, lo), (hi, lo), (hi, hi), (lo, hi), each of
    positive measure.  Raises GeometryError naming the first bad cell,
    counting the rows of ``verts`` from cell ``first``."""
    if verts.shape[1] == 3:
        measure = 0.5 * _cross(verts[:, 0], verts[:, 1], verts[:, 2])
        bad = ~(measure > 0)
        shape = "a counter-clockwise triangle (inverted or degenerate)"
    else:
        # an interval is (lo, hi); a rectangle's lo and hi are its vertices
        # 0 and 2, and its vertices 1 and 3 are (hi_x, lo_y) and (lo_x, hi_y)
        lo, hi = verts[:, 0], verts[:, verts.shape[1] // 2]
        measure = np.prod(hi - lo, axis=1)
        bad = ~np.all(lo < hi, axis=1)
        shape = "an ascending interval"
        if verts.shape[1] == 4:
            corners = np.stack([hi[:, 0], lo[:, 1], lo[:, 0], hi[:, 1]], axis=1)
            bad |= np.any(verts[:, 1::2].reshape(-1, 4) != corners, axis=1)
            shape = "an axis-aligned rectangle listed (lo,lo), (hi,lo), (hi,hi), (lo,hi)"
    if np.any(bad):
        raise GeometryError(f"cell {first + int(np.argmax(bad))}: not {shape} "
                            "of positive measure")
    return measure


def _cell_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|K| and the diameter of every cell from its vertex rows (n_cells,
    n_vertices, d), a block of cells at a time; GeometryError as
    :func:`_cell_measure`."""
    n, nv = verts.shape[:2]
    volume, diam = np.empty(n), np.empty(n)
    for s in _blocks(n):
        block = verts[s]
        volume[s] = _cell_measure(block, s.start)
        diam[s] = functools.reduce(np.maximum, (_length(block[:, b] - block[:, a]) for a, b
                                                in itertools.combinations(range(nv), 2)))
    return volume, diam


def _facet_keys(cells: np.ndarray, dim: int, n_vertices: int) -> np.ndarray:
    """One key per directed facet in cell order, equal for the two
    occurrences of a facet: vertex j (1d), or the edge p -> q from vertex j
    to vertex j + 1 keyed min(p, q) * n_vertices + max(p, q) (2d)."""
    p = cells.ravel()
    if dim == 1:
        return p
    q = np.roll(cells, -1, axis=1).ravel()
    key = np.minimum(p, q)
    key *= n_vertices
    key += np.maximum(p, q)
    return key


def _match_facets(cells: np.ndarray, dim: int, n_vertices: int):
    """``(first, K, L)``: the facet numbers (cell * n_vertices_per_cell + j)
    of each face's first occurrence, and the cells of its first and second
    occurrences (L = -1 on the boundary), faces numbered by first
    occurrence.  Raises GeometryError on a facet of three or more cells and
    on two cells on the same side of a facet (see :class:`Mesh`)."""
    nv = cells.shape[1]
    key = _facet_keys(cells, dim, n_vertices)
    order = np.argsort(key, kind="stable")
    # the first facet of each run of equal keys (every key is >= 0)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    counts = np.diff(starts, append=key.size)
    if counts.max() > 2:
        s = int(np.argmax(counts > 2))
        raise GeometryError(f"cell {int(order[starts[s] + 2]) // nv}: a facet "
                            f"shared by {counts[s]} cells")
    first = order[starts]
    second = np.where(counts == 2, order[np.minimum(starts + 1, key.size - 1)], -1)
    a, b = first[counts == 2], second[counts == 2]
    p = cells.ravel()
    same = a % nv == b % nv if dim == 1 else p[a] == p[b]
    if np.any(same):
        s = int(np.argmax(same))
        raise GeometryError(f"cells {a[s] // nv} and {b[s] // nv} lie on the "
                            "same side of their shared facet")
    by_id = np.argsort(first)
    first, second = first[by_id], second[by_id]
    return first, first // nv, np.where(second >= 0, second // nv, -1)


def _face_geometry(vertices: np.ndarray, cells: np.ndarray, anchors: np.ndarray,
                   first: np.ndarray, K: np.ndarray, L: np.ndarray) -> dict:
    """The face arrays of :class:`Mesh`, in its field order, for the faces
    whose first occurrences are the facets ``first``, between the cells K
    and L, a block of faces at a time; the cone height over a face is the
    anchor's distance to the face's point (1d) or line (2d)."""
    nf, dim = first.size, vertices.shape[1]
    nv = cells.shape[1]
    out = dict(face_vertex_ids=np.empty((nf, dim), dtype=cells.dtype),
               face_area=np.empty(nf), face_normal=np.empty((nf, dim)),
               face_K=K, face_L=L, face_dk=np.empty(nf), face_dl=np.empty(nf),
               face_centroid=np.empty((nf, dim)))
    for s in _blocks(nf):
        k, j, ids = K[s], first[s] % nv, out["face_vertex_ids"][s]
        ids[:, 0] = cells[k, j]
        start = vertices[ids[:, 0]]
        if dim == 1:
            area = np.ones(len(k))
            # facet 0 of an ascending interval faces down the axis
            out["face_normal"][s, 0] = np.where(j == 0, -1.0, 1.0)
            out["face_centroid"][s] = start

            def height(x):
                return np.abs(start - x)[:, 0]
        else:
            ids[:, 1] = cells[k, (j + 1) % nv]
            end = vertices[ids[:, 1]]
            edge = end - start
            area = _length(edge)
            # counter-clockwise cell: the outward normal of p -> q is (dy, -dx)
            out["face_normal"][s] = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / area[:, None]
            out["face_centroid"][s] = 0.5 * (start + end)

            def height(x):
                v = x - start
                return np.abs(edge[:, 0] * v[:, 1] - edge[:, 1] * v[:, 0]) / area
        out["face_area"][s] = area
        out["face_dk"][s] = area * height(anchors[k]) / dim
        out["face_dl"][s] = np.where(L[s] >= 0, area * height(anchors[L[s]]) / dim, 0.0)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_1d(edges: np.ndarray) -> Mesh:
    edges = np.asarray(edges, dtype=float)
    n = edges.size - 1
    cells = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    return Mesh(edges[:, None], cells, 0.5 * (edges[:-1] + edges[1:])[:, None],
                (edges[:1].copy(), edges[-1:].copy()))


def build_uniform_1d(n: int) -> Mesh:
    """Uniform partition of the unit interval into n cells."""
    if n < 1:
        raise GeometryError("need at least one cell")
    return _build_1d(np.linspace(0.0, 1.0, n + 1))


def build_nonuniform_1d(n: int, ratio: float = 2.0) -> Mesh:
    """Unit-interval partition with cell widths alternating 1 : ratio,
    normalised to fill the interval."""
    if n < 1:
        raise GeometryError("need at least one cell")
    if not 0 < ratio < math.inf:
        raise GeometryError(f"ratio must be positive and finite, got {ratio}")
    pattern = np.where(np.arange(n) % 2 == 0, 1.0, ratio)
    edges = np.concatenate([[0.0], np.cumsum(pattern / pattern.sum())])
    edges[-1] = 1.0  # keep the right endpoint exact
    return _build_1d(edges)


def build_cartesian_2d(nx: int, ny: int) -> Mesh:
    """Axis-aligned rectangle grid of the unit square with nx * ny cells,
    numbered row by row (cell j * nx + i is column i of row j)."""
    if nx < 1 or ny < 1:
        raise GeometryError("need at least one cell per axis")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    # vertex j * (nx+1) + i is (xs[i], ys[j])
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ci, cj = (g.ravel() for g in np.meshgrid(np.arange(nx), np.arange(ny)))
    v00 = cj * (nx + 1) + ci
    cells = np.stack([v00, v00 + 1, v00 + nx + 2, v00 + nx + 1], axis=1)
    anchors = 0.5 * (vertices[v00] + vertices[v00 + nx + 2])
    return Mesh(vertices, cells, anchors, (np.zeros(2), np.ones(2)))


# NumPy's SeedSequence (4-word pool) and PCG64 (O'Neill 2014) constants
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draws(seed, low: float, high: float, count: int) -> list[float]:
    """The first ``count`` values of
    ``numpy.random.default_rng(seed).uniform(low, high, count)``, bit for bit.

    A pure-Python port, so that the jittered meshes depend on lwfv's own
    code rather than on numpy's ``Generator.uniform``, which NEP 19 does not
    keep stable across releases, and so that ``import lwfv`` loads neither
    ``numpy.random`` nor the ``hashlib`` it pulls in.  It reproduces
    ``SeedSequence(seed)``: the seed's little-endian 32-bit words hashed into
    a 4-word pool and cross-mixed, then ``generate_state(4, uint64)``.
    Those words seed PCG64 (128-bit LCG state and increment, XSL-RR
    output), and each double is (x >> 11) * 2**-53, mapped to
    low + (high - low) * d.  ``seed`` must be a non-negative integer.
    """
    n = operator.index(seed)
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    entropy = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        entropy.append(n & _MASK32)

    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))

    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    s0, s1, i0, i1 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))

    # PCG64 seeding: state 0, one step, add the seed, one more step
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128
    span = high - low
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        out.append(low + span * ((x >> 11) * 2.0 ** -53))
    return out


def build_perturbed_triangular_2d(n: int, jitter: float = 0.3,
                                  seed: int = 0) -> Mesh:
    """Structured triangulation of the unit square with jittered interior
    vertices.

    An (n+1) x (n+1) vertex grid is perturbed (interior vertices only, by
    an offset up to ``jitter`` times the grid spacing per coordinate), then
    every grid square is split into two triangles along a diagonal that
    alternates in a checkerboard pattern.

    The offsets come from a period-4 pattern drawn once from the seed and
    scaled by the local spacing.  Dyadic refinements therefore reuse the
    same finite set of local cell shapes, which keeps the regularity
    metrics of the family level-independent; a fresh random draw per level
    would instead push the worst-case metrics upward as more samples
    appear, and no uniform-regularity guard could hold.

    ``jitter`` may lie in [0, 0.5), but an inverted triangle raises
    GeometryError.  Below 1/4 none can invert: the least doubled area over
    all offsets is (1 - 4 jitter) h^2, at a corner of the offset box.  At
    n = 8, of seeds 0-199, none inverts one at jitter 0.3, 9 do at 0.35
    (seed 0 among them) and 38 at 0.4.
    """
    if n < 1:
        raise GeometryError("need at least one cell per axis")
    if not 0.0 <= jitter < 0.5:
        raise GeometryError(f"jitter must lie in [0, 0.5), got {jitter}")
    # each helper's grids are gone before the mesh is assembled
    vertices = _jittered_grid(n, jitter, seed)
    tris = _split_squares(n)
    anchors = np.empty((len(tris), 2))
    for s in _blocks(len(tris)):
        a, b, c = (vertices[tris[s, k]] for k in range(3))
        anchors[s] = (a + b + c) / 3.0
    return Mesh(vertices, tris, anchors, (np.zeros(2), np.ones(2)))


def _jittered_grid(n: int, jitter: float, seed: int) -> np.ndarray:
    """The (n+1)^2 vertices of the triangulation, i-major: grid point (i, j)
    plus its offset, 0 on the boundary (see the builder)."""
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)  # (n+1, n+1, 2)
    if jitter > 0:
        table = np.array(_uniform_draws(seed, -jitter, jitter, 32)).reshape(4, 4, 2)
        idx = np.arange(n + 1) % 4
        offs = table[idx[:, None], idx[None, :]].copy()  # (n+1, n+1, 2)
        offs *= h
        offs[0, :, :] = 0.0
        offs[-1, :, :] = 0.0
        offs[:, 0, :] = 0.0
        offs[:, -1, :] = 0.0
        pts = pts + offs
    return pts.reshape(-1, 2)


def _split_squares(n: int) -> np.ndarray:
    """The vertex ids of the 2 n^2 triangles: grid square (i, j), i-major,
    has lower-left vertex i * (n+1) + j and splits into two
    counter-clockwise triangles along a diagonal that alternates in a
    checkerboard pattern."""
    si, sj = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n),
                                             indexing="ij"))
    v00 = si * (n + 1) + sj
    v10 = v00 + n + 1
    v11 = v10 + 1
    v01 = v00 + 1
    even = ((si + sj) % 2 == 0)[:, None]
    tri_a = np.where(even, np.stack([v00, v10, v11], 1), np.stack([v00, v10, v01], 1))
    tri_b = np.where(even, np.stack([v00, v11, v01], 1), np.stack([v10, v11, v01], 1))
    return np.stack([tri_a, tri_b], axis=1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def uniform_1d_family(n0: int = 10) -> MeshFamily:
    return MeshFamily(
        name=f"uniform_1d(n0={n0})",
        build=lambda m: build_uniform_1d(n0 * 2**m),
    )


def nonuniform_1d_family(n0: int = 10, ratio: float = 2.0) -> MeshFamily:
    return MeshFamily(
        name=f"nonuniform_1d(n0={n0},ratio={ratio})",
        build=lambda m: build_nonuniform_1d(n0 * 2**m, ratio),
    )


def cartesian_2d_family(n0: int = 4) -> MeshFamily:
    return MeshFamily(
        name=f"cartesian_2d(n0={n0})",
        build=lambda m: build_cartesian_2d(n0 * 2**m, n0 * 2**m),
    )


def perturbed_triangular_2d_family(n0: int = 4, jitter: float = 0.3,
                                   seed: int = 0) -> MeshFamily:
    return MeshFamily(
        name=f"perturbed_triangular_2d(n0={n0},jitter={jitter},seed={seed})",
        build=lambda m: build_perturbed_triangular_2d(
            n0 * 2**m, jitter=jitter, seed=seed
        ),
    )


# ---------------------------------------------------------------------------
# neighbours, quality, refinement, validation
# ---------------------------------------------------------------------------


def far_neighbors(mesh: Mesh, K: np.ndarray, L: np.ndarray, periodic: bool):
    """Second upwind cells of three-point stencils (1d only).

    For an edge K|L the far cell behind K is K's neighbor away from L along
    the axis, and likewise for L.  Directions come from the sorted cell
    positions, not from coordinates, so the periodic wrap edge (from the
    right-end cell to the left-end one) counts as going right.  Missing
    neighbors (outflow ends) fall back to the near cell, which degrades the
    reconstruction to first order there.
    """
    if mesh.dim != 1:
        raise MeshError("three-point stencils are only wired up on 1d meshes")
    order = np.argsort(mesh.cell_center[:, 0])
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    n = order.size
    if periodic:
        left = order[(pos - 1) % n]
        right = order[(pos + 1) % n]
        went_right = pos[L] == (pos[K] + 1) % n
    else:
        left = order[np.maximum(pos - 1, 0)]
        right = order[np.minimum(pos + 1, n - 1)]
        went_right = pos[L] == pos[K] + 1
    KK = np.where(went_right, left[K], right[K])
    LL = np.where(went_right, right[L], left[L])
    return KK, LL


def _theta_grad_ratios(mesh: Mesh, ids: np.ndarray) -> np.ndarray:
    """|sigma| |x_L - x_K| / |D_sigma| of the interior faces ``ids``."""
    dx = np.linalg.norm(
        mesh.cell_center[mesh.face_L[ids]] - mesh.cell_center[mesh.face_K[ids]],
        axis=1,
    )
    return mesh.face_area[ids] * dx / (mesh.face_dk[ids] + mesh.face_dl[ids])


def compute_quality(mesh: Mesh) -> MeshQuality:
    """Regularity parameters, computed directly from the stored measures on
    the first call for a mesh and kept on it for the later ones."""
    return mesh._quality


def _sides(mesh: Mesh):
    """Every (cell, face of the cell) pair, a block of faces at a time:
    ``(faces, cells, n_k)`` for the K side of each face of the block, then
    the L side of each of its interior faces, in face order, so the first
    ``n_k`` pairs are the K sides."""
    for s in _blocks(mesh.n_faces):
        inner = s.start + np.flatnonzero(mesh.face_L[s] >= 0)
        yield (np.concatenate([np.arange(s.start, s.stop), inner]),
               np.concatenate([mesh.face_K[s], mesh.face_L[inner]]), s.stop - s.start)


def _measure_quality(mesh: Mesh) -> MeshQuality:
    # the maxima of every block, so that a NaN ratio is the result, as it is
    # of one np.max over the whole mesh
    theta_grad, theta, tau = [0.0], [0.0], [0.0]
    for faces, cells, n_k in _sides(mesh):
        theta_grad.append(_theta_grad_ratios(mesh, faces[n_k:]).max(initial=0.0))
        dk, dl = mesh.face_dk[faces], mesh.face_dl[faces]
        part = np.concatenate([dk[:n_k], dl[n_k:]])
        vol = mesh.cell_volume[cells]
        pos = part > 0
        theta.append(((dk + dl) / vol).max(initial=0.0))
        tau.append((vol[pos] / part[pos]).max(initial=0.0))
    return MeshQuality(
        theta_grad=float(np.max(theta_grad)),
        theta=float(np.max(theta)),
        tau=float(np.max(tau)),
        n_faces_max=int(mesh.face_counts().max()),
    )


def refine(family: MeshFamily, levels: int) -> list[Mesh]:
    """Build ``levels`` meshes from the family and enforce the regularity band.

    Every regularity parameter of every level must stay within 1.05 times
    the maximum of that parameter over the first two levels (first level
    alone when only one is requested).  The band is checked on every call;
    a level the family has built before is not built or rated again.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    meshes = [family.build(m) for m in range(levels)]
    quals = [compute_quality(m) for m in meshes]
    ref = quals[: min(2, levels)]
    bands = {
        "theta_grad": max(q.theta_grad for q in ref),
        "theta": max(q.theta for q in ref),
        "tau": max(q.tau for q in ref),
        "n_faces_max": max(q.n_faces_max for q in ref),
    }
    for lvl, q in enumerate(quals):
        for name, cap in bands.items():
            val = getattr(q, name)
            if not val <= REGULARITY_GUARD * cap:
                detail = ""
                if name == "theta_grad":
                    ints = np.flatnonzero(meshes[lvl].interior)
                    ratios = _theta_grad_ratios(meshes[lvl], ints)
                    detail = f", worst face {int(ints[np.argmax(ratios)])}"
                raise RegularityError(
                    f"family {family.name}: {name} = {val:.6g} at level {lvl} "
                    f"exceeds guard {REGULARITY_GUARD} x {cap:.6g}{detail}"
                )
    return meshes


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failing(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]


def validate(mesh: Mesh, raise_on_failure: bool = False) -> ValidationReport:
    """Checks of what the four defining arrays can get wrong; everything
    derived from them holds by construction.

    * ``cell_partition``: sum |K| = |Omega|, to within REL_TOL |Omega|;
    * ``boundary_on_box``: the vertices of every boundary face lie on one
      side of the box;
    * ``anchor_inside``: every anchor lies inside its cell, by more than
      4 eps (|x_K|_inf + h_K) from every face (derived below).

    Together they make the cells tile the box and the cones tile the cells.
    :class:`Mesh` refuses two cells on the same side of a facet, so the
    cells are consistently oriented and the facets that do not cancel are
    the boundary faces, which lie on the box's sides.  So the number of
    cells covering a point is the same all over the box and 0 outside it,
    and sum |K| = |Omega| makes it 1.  An anchor inside its cell makes each
    cone a true one, and the cones of a convex cell tile it.
    """
    checks: list[tuple[str, bool, str]] = []
    omega = mesh.domain_measure
    inner = mesh.interior

    total = float(mesh.cell_volume.sum())
    checks.append(("cell_partition", abs(total - omega) <= REL_TOL * omega,
                   f"sum |K| = {total!r} vs |Omega| = {omega!r}"))

    # a face is on the boundary only where the domain ends: a file whose
    # interior facet is split between two vertex ids cuts the domain there.
    # A vertex is on a side to within 4 eps M, M = max(|lo|, |hi|) per axis
    lo, hi = mesh.box
    slack = 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    box = " x ".join(f"[{a:.17g}, {b:.17g}]" for a, b in zip(lo, hi))
    ends = mesh.vertices[mesh.face_vertex_ids[~inner]]
    on_side = ((np.abs(ends - lo) <= slack).all(axis=1)
               | (np.abs(ends - hi) <= slack).all(axis=1)).any(axis=1)
    detail = f"vertices of every boundary face on one side of {box}"
    if not np.all(on_side):
        detail += f", not face {int(np.flatnonzero(~inner)[np.argmin(on_side)])}"
    checks.append(("boundary_on_box", bool(np.all(on_side)), detail))

    detail = "x_K more than 4 eps (|x_K| + h_K) inside every face of K"
    short = _first_short_anchor(mesh)
    if short is not None:
        detail += f", not cell {short}"
    checks.append(("anchor_inside", short is None, detail))

    report = ValidationReport(checks)
    if raise_on_failure and not report.ok:
        failed = ", ".join(report.failing())
        raise MeshError(f"mesh validation failed: {failed}")
    return report


def _first_short_anchor(mesh: Mesh) -> int | None:
    """The cell of the first K side, in face order, whose anchor is not
    more than 4 eps (|x_K|_inf + h_K) inside its face, else that of the
    first such L side, else None (see :func:`validate`)."""
    # the signed cone height (x_K - s) . (-n_K,sigma) over every face sigma
    # of every cell K, s the face's first vertex and n_K,sigma the normal out
    # of K: the K side of every face, then the L side of the interior ones.
    # The computed height is within 8 u |x_K - s| (u = eps / 2) of the exact
    # one: u for each coordinate of x_K - s, 5 u for each component of the
    # normal (the edge's difference, its length, the division) and 2 u for
    # the products and the sum.  For x_K in K, |x_K - s| <= h_K <= M =
    # |x_K|_inf + h_K, so tol = 4 eps M bounds the rounding: an anchor that
    # passes lies inside its cell and each of its cones has a positive
    # height, and one more than 2 tol inside every face passes
    tol = 4 * np.finfo(float).eps
    first_l = None
    for faces, cells, n_k in _sides(mesh):
        outward = mesh.face_normal[faces]
        outward[n_k:] *= -1.0
        start = mesh.vertices[mesh.face_vertex_ids[faces, 0]]
        x = mesh.cell_center[cells]
        height = -np.einsum("fd,fd->f", x - start, outward)
        reach = np.abs(x).max(axis=1) + mesh.cell_diam[cells]
        short = ~(height > tol * reach)
        if short[:n_k].any():
            return int(cells[np.argmax(short[:n_k])])
        if first_l is None and short[n_k:].any():
            first_l = int(cells[n_k + np.argmax(short[n_k:])])
    return first_l


# ---------------------------------------------------------------------------
# mesh files: the four defining arrays as .npy members of a zip
# ---------------------------------------------------------------------------

# the members of a mesh file, ``<name>.npy``, in file order, and their dtypes
_MEMBERS = {"vertices": np.dtype(np.float64), "cell_vertex_ids": np.dtype(np.int64),
            "cell_center": np.dtype(np.float64), "box": np.dtype(np.float64)}


def write_mesh(mesh: Mesh, path_or_buf) -> None:
    """Write the four arrays that define ``mesh`` as the ``.npy`` members
    ``vertices``, ``cell_vertex_ids``, ``cell_center`` and ``box`` (lo and hi
    as a (2, d) array) of an uncompressed zip, which ``np.load`` reads.

    Only what defines the mesh is written: :func:`read_mesh` derives every
    face and dual piece by the same code as the builders, so a file reloads
    to the same mesh bit for bit.  Every member is dated 1980-01-01 by its
    own ``ZipInfo``, not by whatever zipfile or numpy would stamp, so the
    same mesh gives the same bytes on every write.
    """
    arrays = (mesh.vertices, mesh.cell_vertex_ids, mesh.cell_center, np.stack(mesh.box))
    with open_file(path_or_buf, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for (name, dtype), array in zip(_MEMBERS.items(), arrays):
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as member:
                np.lib.format.write_array(member, array.astype(dtype, copy=False),
                                          allow_pickle=False)


def _read_member(zf: zipfile.ZipFile, name: str, dtype: np.dtype, size: int) -> np.ndarray:
    """The array of the member ``<name>.npy`` of a ``size``-byte file, read
    once its zip entry and its ``.npy`` header have been checked, so that
    neither can make the reader allocate more than the file holds."""
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise MeshError(f"member {name} is compressed: a mesh file's members are stored")
    if not info.compress_size == info.file_size <= size:
        raise MeshError(f"member {name} claims {info.file_size} bytes of a {size}-byte file")
    fmt = np.lib.format
    with zf.open(info) as fh:
        version = fmt.read_magic(fh)
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran, got = read_header(fh)
        if got != dtype or len(shape) != 2 or min(shape) < 1:
            raise MeshError(f"member {name} must be a non-empty 2-d {dtype} array, "
                            f"got {got} of shape {shape}")
        nbytes, held = math.prod(shape) * dtype.itemsize, info.file_size - fh.tell()
        if nbytes != held:
            raise MeshError(f"member {name}: its header promises {nbytes} bytes "
                            f"of data, the member holds {held}")
        data = fh.read(nbytes)
    return np.ascontiguousarray(np.frombuffer(data, dtype).reshape(
        shape, order="F" if fortran else "C"))


def read_mesh(path_or_buf) -> Mesh:
    """Load a mesh written by :func:`write_mesh`, or by ``np.savez`` of the
    same four arrays, from which :class:`Mesh` derives the rest, so the mesh
    equals the one that was written, bit for bit.

    Raises MeshError on a ``lwfv-mesh`` text file (``lwfv mesh-gen``
    rewrites it from the config that made it) and on a malformed file: not
    a zip, or one that is cut or damaged (each member's CRC-32 is checked);
    a member missing, extra or compressed; a member that is not a 2-d array
    of its dtype (float64, int64 for the ids), or whose header promises
    more bytes than it holds; cells other than intervals (d = 1, nv = 2),
    triangles or rectangles (d = 2, nv = 3 or 4), the cells
    :func:`quadrature.cell_rule` integrates; anchors not (n_cells, d), a box
    not (2, d); a non-finite coordinate; a box without lo < hi on every
    axis.  :class:`Mesh` raises on a cell naming a missing vertex and, as
    GeometryError, on a cell of the wrong shape or orientation, a facet of
    three or more cells, or two cells on the same side of a facet.
    :func:`validate` checks the rest.
    """
    with open_file(path_or_buf, "rb") as fh:
        if fh.read(9) == b"lwfv-mesh":
            raise MeshError("lwfv-mesh text files are no longer read: rerun "
                            "mesh-gen to write the mesh as mesh_<level>.npz")
        size = fh.seek(0, os.SEEK_END)
        try:
            with zipfile.ZipFile(fh) as zf:
                names = sorted(zf.namelist())
                if names != sorted(f"{name}.npy" for name in _MEMBERS):
                    raise MeshError(f"a mesh file holds the members {', '.join(_MEMBERS)}"
                                    f" (.npy), got {', '.join(names)}")
                vertices, ids, anchors, box = (_read_member(zf, name, dtype, size)
                                               for name, dtype in _MEMBERS.items())
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError) as e:
            raise MeshError(f"mesh file cannot be read: {str(e) or type(e).__name__}") from None
    n_cells, nv = ids.shape
    dim = vertices.shape[1]
    if (dim, nv) not in ((1, 2), (2, 3), (2, 4)):
        raise MeshError(f"cells of {nv} vertices in {dim}d: a mesh holds intervals "
                        "(d = 1, nv = 2), triangles or rectangles (d = 2, nv = 3 or 4)")
    if anchors.shape != (n_cells, dim) or box.shape != (2, dim):
        raise MeshError(f"cell_center must be ({n_cells}, {dim}) and box (2, {dim}), "
                        f"got {anchors.shape} and {box.shape}")
    if not (np.isfinite(vertices).all() and np.isfinite(anchors).all()):
        raise MeshError("a vertex or an anchor has a non-finite coordinate")
    if not (np.isfinite(box).all() and np.all(box[0] < box[1])):
        raise MeshError(f"box needs finite values with lo < hi, got {box.tolist()}")
    return Mesh(vertices, ids, anchors, (box[0], box[1]))
