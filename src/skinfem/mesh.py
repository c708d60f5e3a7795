"""Curved quadrilateral meshes for the benchmark configurations.

Every configuration is symmetric under z -> -z, and so is every field
solved on it, so a mesh covers the half meridian z >= 0 only; the
symmetry plane z = 0 is a boundary with the natural condition dH/dz = 0.
Config A gets uniform square meshes M_k (h = 1/k). Configs B/C get
structured meshes built from four blocks: a graded boundary-layer band on
the conductor side of the interface, a geometric transition shell, a core
(axis rectangle plus an O-grid patch), and the elliptic annulus between the
two ellipses. Every element of a mesh carries tensor geometry nodes of one
degree: 1 for config A's squares, 4 for configs B/C, whose curved elements
interpolate the exact offset/blend maps and whose axis rectangles are
bilinear maps written at degree 4, which represents them exactly.

Every mesh is built from structured blocks, each a map of the block's
logical coordinates (i + u, j + v) evaluated on arrays of all its cells and
GLL points at once; the nodes are numbered by exact coordinates in order of
first appearance over the elements.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .basis import gll_points
from .geometry import CONFIGURATIONS, Cylinders, Ellipse, Spheroids
from .physics import OMEGA_DEFAULT, PhysicalParams

__all__ = [
    "QuadMesh",
    "MeshGenerationError",
    "square_mesh_A",
    "layered_mesh_B",
    "mesh_for",
]

_AXIS_TOL = 1e-12
_NODE_TOL = 1e-12  # both copies of a facet-interior node, and the outer boundary

MESH_SPEC = re.compile(r"\s*[Mm]([1-9][0-9]*)\s*")  # 'M<k>', k >= 1


class MeshGenerationError(RuntimeError):
    pass


def _corner_locals(g: int) -> tuple[int, int, int, int]:
    n1 = g + 1
    return 0, g, g * n1 + g, g * n1


def _face_locals(g: int) -> np.ndarray:
    """(4, g+1) local tensor indices along faces 0..3 (j=0, i=g, j=g, i=0)."""
    i = np.arange(g + 1)
    return np.array([i, i * (g + 1) + g, g * (g + 1) + i, i * (g + 1)])


# The corners (first, last) of faces 0..3, in the direction of _face_locals.
_FACE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])


@dataclass
class QuadMesh:
    """Conforming curved quad mesh of the half meridian domain z >= 0.

    Every element has geometry degree `geomdeg`. Its geometry nodes are the
    row of `elem_nodes` in tensor order (index j*(g+1)+i for local
    coordinates (u_i, v_j)); the four corners are the tensor corners.
    `conductor` marks the conductor's elements. The boundary is not stored:
    a facet with one element lies on the axis r = 0 when all its nodes have
    r == 0.0, on the symmetry plane z = 0 when all have z == 0.0, and on
    the outer boundary otherwise (`_MeshBuilder.finish` checks that no
    other kind exists).
    """

    nodes: np.ndarray  # (n_nodes, 2)
    elem_nodes: np.ndarray  # (n_elements, (geomdeg+1)^2) int64
    geomdeg: int
    conductor: np.ndarray  # (n_elements,) bool

    @property
    def n_elements(self) -> int:
        return len(self.elem_nodes)

    @property
    def corners(self) -> np.ndarray:
        """(n_elements, 4) corner node ids, counterclockwise from (u, v) = (0, 0)."""
        return self.elem_nodes[:, list(_corner_locals(self.geomdeg))]

    @property
    def face_corners(self) -> np.ndarray:
        """(n_elements, 4, 2) node ids of the first and last corner of each face."""
        return self.corners[:, _FACE_CORNERS]


class _MeshBuilder:
    """Collects blocks of elements; `finish` numbers the nodes, merges the
    copies of facet-interior nodes, then checks the mesh for cracks.

    on_outer(r, z) tells, for arrays of node coordinates, which nodes lie on
    the domain's outer boundary.
    """

    def __init__(self, geomdeg: int, on_outer):
        self.geomdeg = geomdeg
        self.on_outer = on_outer
        self.blocks: list[np.ndarray] = []
        self.conductor: list[np.ndarray] = []

    def add_block(self, nu: int, nv: int, gen, conductor):
        """Add nu x nv elements, cell (i, j) the map (u, v) -> gen(i, u, j, v)
        = (r, z) of [0,1]^2, counterclockwise. gen gets broadcast arrays of
        the cell indices and the GLL points. The elements run with i fast,
        their nodes in tensor order; conductor is one bool or an (nv, nu)
        bool array."""
        x = gll_points(self.geomdeg)
        j, i, v, u = np.ix_(np.arange(nv), np.arange(nu), x, x)
        r, z = (np.broadcast_to(c, (nv, nu, len(x), len(x))) for c in gen(i, u, j, v))
        self.blocks.append(np.stack([r, z], axis=-1).reshape(nu * nv, -1, 2))
        self.conductor.append(np.broadcast_to(np.asarray(conductor, dtype=bool), (nv, nu)).ravel())

    def finish(self) -> QuadMesh:
        """Snap |r| and |z| < _AXIS_TOL to the axis and the symmetry plane,
        and number the nodes by exact coordinates, in order of first
        appearance. Corners shared across blocks come from the same
        expressions and collide bitwise; nodes inside a facet that its two
        sides parametrize in opposite directions can differ in the last bit
        and are merged by `_merge_facet_nodes`."""
        X = np.concatenate(self.blocks)
        X[np.abs(X) < _AXIS_TOL] = 0.0
        ids, first = _first_appearance(X.reshape(-1, 2), axis=0)
        mesh = QuadMesh(
            nodes=X.reshape(-1, 2)[first],
            elem_nodes=ids.reshape(len(X), -1),
            geomdeg=self.geomdeg,
            conductor=np.concatenate(self.conductor),
        )
        one, two = _facet_owners(mesh)
        _merge_facet_nodes(mesh, two)
        _check_cracks(mesh, one, self.on_outer)
        return mesh


def _first_appearance(keys, axis=None):
    """Class index of each key, classes numbered in order of first
    appearance; returns (indices, position of each class's first key).

    With axis=None a key is an entry of keys (positions index keys.ravel())
    and the indices are shaped like keys; with axis=0 a key is a row, and
    the indices are one per row.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True, axis=axis)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    shape = np.shape(keys) if axis is None else len(keys)
    return rank[inverse.reshape(-1)].reshape(shape), np.sort(first)


def _sorted_unique(a) -> np.ndarray:
    """The distinct entries of a, ascending, as `np.unique(a)` gives them
    but without its masked-array check, which imports numpy.ma."""
    a = np.sort(np.ravel(a))
    new = np.ones(len(a), dtype=bool)
    new[1:] = a[1:] != a[:-1]
    return a[new]


def _facet_error(face, what: str) -> MeshGenerationError:
    e, f = divmod(int(face), 4)
    return MeshGenerationError(f"element {e} face {f}: {what}")


def _facet_owners(mesh: QuadMesh):
    """Faces grouped by their sorted corner ids, as flat indices 4*e + face:
    (one, two) with one the faces that own a facet alone and two the
    (n, 2) face pairs that share one, the lower index first."""
    keys = np.sort(mesh.face_corners, axis=2).reshape(-1, 2)
    order = np.lexsort((keys[:, 1], keys[:, 0]))  # stable: faces ascend in a group
    k = keys[order]
    start = np.flatnonzero(np.r_[True, np.any(k[1:] != k[:-1], axis=1)])
    count = np.diff(np.r_[start, len(k)])
    if np.any(count > 2):
        raise _facet_error(order[start[np.argmax(count > 2)]], "facet has more than two owners")
    two = start[count == 2]
    return order[start[count == 1]], np.column_stack([order[two], order[two + 1]])


def _face_nodes(mesh: QuadMesh, faces) -> np.ndarray:
    """(n, geomdeg + 1) node ids along the flat faces 4*e + face."""
    return mesh.elem_nodes[faces[:, None] // 4, _face_locals(mesh.geomdeg)[faces % 4]]


def _merge_facet_nodes(mesh: QuadMesh, two):
    """Give the second owner of each shared facet the first owner's node ids
    along it, and drop the copies. Surviving nodes keep their order.

    Raises MeshGenerationError where the two owners' nodes are more than
    _NODE_TOL apart.
    """
    a, b = _face_nodes(mesh, two[:, 0]), _face_nodes(mesh, two[:, 1])
    flip = a[:, 0] != b[:, 0]  # the owners run along the facet in opposite directions
    b[flip] = b[flip, ::-1]
    gap = np.max(np.abs(mesh.nodes[a] - mesh.nodes[b]), axis=(1, 2), initial=0.0)
    if np.any(gap > _NODE_TOL):
        raise _facet_error(two[np.argmax(gap > _NODE_TOL), 1], "nodes differ from its neighbour's")
    target = np.arange(len(mesh.nodes))
    target[np.maximum(a, b)] = np.minimum(a, b)
    keep = target == np.arange(len(target))
    mesh.elem_nodes = (np.cumsum(keep) - 1)[target[mesh.elem_nodes]]
    mesh.nodes = mesh.nodes[keep]


def _on_line(mesh: QuadMesh, faces, k: int) -> np.ndarray:
    """Whether each of the flat faces 4*e + face lies on the axis (k = 0:
    all its nodes have r == 0.0) or on the symmetry plane (k = 1: z ==
    0.0), as `_MeshBuilder.finish` snaps them."""
    return np.all(mesh.nodes[_face_nodes(mesh, faces), k] == 0.0, axis=1)


def _check_cracks(mesh: QuadMesh, one, on_outer):
    """Raise MeshGenerationError for a facet with one owner, one of the
    faces `one`, that lies neither on the axis, nor on the symmetry plane,
    nor on the outer boundary (on_outer): a crack in the mesh."""
    r, z = np.moveaxis(mesh.nodes[_face_nodes(mesh, one)], -1, 0)
    inside = ~_on_line(mesh, one, 0) & ~_on_line(mesh, one, 1) & ~np.all(on_outer(r, z), axis=1)
    if np.any(inside):
        raise _facet_error(one[np.argmax(inside)], "facet has one owner but lies inside the domain")


# ---------------------------------------------------------------------------
# Configuration A: uniform square meshes

def square_mesh_A(k: int) -> QuadMesh:
    """Uniform squares of side 1/k on the half z >= 0 of configuration A's
    box, [0, r1] x [0, l1/2], conductor [0, r0] x [0, l0/2]; A's sides are
    whole meters, so M_k fits."""
    if k < 1:
        raise ValueError("refinement index k must be >= 1")
    cyl = CONFIGURATIONS["A"]
    rmax, zmax = cyl.r1, cyl.l1 / 2.0
    # The nodes i/k and j/k hit the sides r = rmax and z = zmax exactly.
    b = _MeshBuilder(1, lambda r, z: (r == rmax) | (z == zmax))
    nr, nz = round(rmax * k), round(zmax * k)
    j, i = np.mgrid[:nz, :nr]
    # By the cell centres, half a cell away from every side of the conductor.
    conductor = ((i + 0.5) / k < cyl.r0) & ((j + 0.5) / k < cyl.l0 / 2.0)
    b.add_block(nr, nz, lambda i, u, j, v: ((i + u) / k, (j + v) / k), conductor)
    return b.finish()


# ---------------------------------------------------------------------------
# Configurations B/C: layered spheroidal meshes

GEOM_DEG_CURVED = 4
_NR_CORE = 3      # radial cells of the axis rectangle (top path cells)
_NZ_CORE = 2      # vertical cells of the axis rectangle, on z >= 0
_NS_OGRID = 3     # rows of the O-grid patch between rectangle and core curve
_GRADING_RATIO = 0.5
_BAND_FACTOR = 3.0  # band total thickness = 3 * ell(sigma_max)


def _lin(a, b, t):
    # Exact endpoints, so that nodes shared by two blocks collide bitwise.
    return np.where(t == 0.0, a, np.where(t == 1.0, b, a + t * (b - a)))


def _levels(a, b, n):
    """n + 1 equispaced levels from a to b, both ends exact."""
    return _lin(a, b, np.arange(n + 1) / n)


def _graded_thicknesses(total: float, n: int, ratio: float) -> list[float]:
    """n layer thicknesses summing to `total`, thinnest first, growth 1/ratio."""
    weights = [(1.0 / ratio) ** i for i in range(n)]
    s = sum(weights)
    return [total * w / s for w in weights]


def _geometric_fill(base: float, total: float, max_layers: int = 8) -> list[float]:
    """Geometric layer thicknesses starting near `base` summing to `total`."""
    if total <= base:
        return [total]
    n = 2
    while n < max_layers and base * (2.0 ** (n + 1) - 2.0) < total:
        n += 1
    lo, hi = 1.0001, 8.0
    for _ in range(80):
        g = 0.5 * (lo + hi)
        s = base * sum(g ** m for m in range(1, n + 1))
        if s < total:
            lo = g
        else:
            hi = g
    g = 0.5 * (lo + hi)
    t = [base * g ** m for m in range(1, n + 1)]
    scale = total / sum(t)
    return [x * scale for x in t]


def layered_mesh_B(
    spheroids: Spheroids,
    n_layers: int,
    sigma_max: float,
    omega: float = OMEGA_DEFAULT,
) -> QuadMesh:
    """Boundary-layer mesh M_{n_layers} of a pair of spheroids (B1/B2/C1/C2),
    on the quarter phi in [0, pi/2] of the meridian ellipses, z >= 0.

    The conductor side of the interface carries `n_layers` quadrilateral
    layers inside a band of total thickness 3*ell(sigma_max), geometrically
    graded toward the interface with ratio 0.5. Every element has geometry
    degree GEOM_DEG_CURVED.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    a, bb, c, d = spheroids.a, spheroids.b, spheroids.c, spheroids.d
    shell_conductor = spheroids.shell

    ell = PhysicalParams(sigma=sigma_max, omega=omega).ell
    t_band = _BAND_FACTOR * ell
    inner, outer = Ellipse(a, c), Ellipse(bb, d)
    kmax = inner.max_curvature
    t_core = min(0.35 * c, 0.7 / kmax)
    if t_band >= min(t_core, 1.0 / kmax):
        raise MeshGenerationError(
            f"skin band thickness {t_band:.4g} exceeds the normal-coordinate "
            f"validity range (limit {min(t_core, 1.0 / kmax):.4g})"
        )

    # Depth levels inside the inner ellipse (h measured from the interface).
    if shell_conductor:
        inner_h = [0.0, 0.5 * t_core, t_core]
    else:
        inner_h = [0.0]
        for t in _graded_thicknesses(t_band, n_layers, _GRADING_RATIO):
            inner_h.append(inner_h[-1] + t)
        for t in _geometric_fill(inner_h[-1] - inner_h[-2], t_core - t_band):
            inner_h.append(inner_h[-1] + t)
        inner_h[-1] = t_core

    # Radial levels of the annulus (fraction of the gap between ellipses).
    if shell_conductor:
        gap = bb - a
        tb = t_band / gap
        tlev = [0.0]
        for t in _graded_thicknesses(tb, n_layers, _GRADING_RATIO):
            tlev.append(tlev[-1] + t)
        rest = 1.0 - tlev[-1]
        for frac in (0.25, 0.55, 1.0):
            tlev.append(tb + rest * frac)
        tlev[-1] = 1.0
    else:
        tlev = [0.0, 0.12, 0.3, 0.6, 1.0]

    a_core, c_core = a - t_core, c - t_core
    w, zq = 0.5 * a_core, 0.5 * c_core
    phi_c1 = math.atan2(w / a_core, zq / c_core)
    nr, nz, ns = _NR_CORE, _NZ_CORE, _NS_OGRID

    phi_nodes = np.concatenate(
        [np.linspace(0.0, phi_c1, nr + 1), np.linspace(phi_c1, math.pi / 2.0, nz + 1)[1:]]
    )
    n_phi = len(phi_nodes) - 1  # = nr + nz

    # Inner path around the axis rectangle (top, then side down to z = 0),
    # matched node-for-node to phi_nodes, as (r levels, z levels). Rectangle
    # grid levels are shared with the path so coordinates coincide bitwise
    # where the blocks meet.
    rlev = np.asarray(_levels(0.0, w, nr))
    zlev = np.asarray(_levels(zq, 0.0, nz))  # descending
    path = np.array([np.r_[rlev, np.full(nz, w)], np.r_[np.full(nr + 1, zq), zlev[1:]]])

    def arc(i, u):
        return _lin(phi_nodes[i], phi_nodes[i + 1], u)

    def offset(phi, h):
        (r0, z0), (dr, dz) = inner.point(phi), inner.inward_normal(phi)
        return r0 + h * dr, z0 + h * dz

    def blend(phi, t):
        (ri, zi), (ro, zo) = inner.point(phi), outer.point(phi)
        return ri + t * (ro - ri), zi + t * (zo - zi)

    def rect(i, u, j, v):  # bilinear, exact at geometry degree GEOM_DEG_CURVED
        return _lin(rlev[i], rlev[i + 1], u), _lin(rect_z[j], rect_z[j + 1], v)

    def ogrid(i, u, j, v):
        s = _lin(j / ns, (j + 1) / ns, v)
        pr, pz = (_lin(q[i], q[i + 1], u) for q in path)
        cr, cz = offset(arc(i, u), t_core)
        return _lin(pr, cr, s), _lin(pz, cz, s)

    h, t, rect_z = np.asarray(inner_h), np.asarray(tlev), zlev[::-1]

    b = _MeshBuilder(
        GEOM_DEG_CURVED,
        lambda r, z: np.abs((r / bb) ** 2 + (z / d) ** 2 - 1.0) < _NODE_TOL,
    )
    # The band and transition rows inside the inner ellipse, the annulus
    # between the ellipses, the axis rectangle, and the O-grid patch between
    # the rectangle's path and the core offset curve. The conductor is the
    # annulus for the C shells and everything inside the inner ellipse for B.
    b.add_block(n_phi, len(h) - 1, lambda i, u, j, v: offset(arc(i, u), _lin(h[j + 1], h[j], v)),
                not shell_conductor)
    b.add_block(n_phi, len(t) - 1, lambda i, u, j, v: blend(arc(i, u), _lin(t[j], t[j + 1], v)),
                shell_conductor)
    b.add_block(nr, nz, rect, not shell_conductor)
    b.add_block(n_phi, ns, ogrid, not shell_conductor)
    return b.finish()


def mesh_for(
    config: str, spec: str, sigma_max: float = 80.0, omega: float = OMEGA_DEFAULT
) -> QuadMesh:
    """The mesh 'M2' (A: square index, B/C: layer count) of the configuration
    named `config`: the one lookup of a mesh by configuration name. B/C
    meshes resolve the skin depth at sigma_max and omega."""
    match = MESH_SPEC.fullmatch(spec)
    if not match:
        raise ValueError(f"mesh spec {spec!r} not understood (expected 'M<k>' with k >= 1)")
    k = int(match[1])
    geom = CONFIGURATIONS.get(config)
    if geom is None:
        raise ValueError(f"unknown configuration {config!r}")
    if isinstance(geom, Cylinders):
        return square_mesh_A(k)
    return layered_mesh_B(geom, k, sigma_max, omega)
