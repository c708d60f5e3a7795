"""Curved quadrilateral meshes for the benchmark configurations.

Config A gets uniform square meshes M_k (h = 1/k). Configs B/C get
structured meshes built from four blocks: a graded boundary-layer band on
the conductor side of the interface, a geometric transition shell, a core
(axis rectangle plus an O-grid patch), and the elliptic annulus between the
two ellipses. Every element of a mesh carries tensor geometry nodes of one
degree: 1 for config A's squares, 4 for configs B/C, whose curved elements
interpolate the exact offset/blend maps and whose axis rectangles are
bilinear maps written at degree 4, which represents them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import gll_points
from .geometry import CONFIG_PARAMS
from .physics import MU0, OMEGA_DEFAULT, skin_depth

__all__ = [
    "QuadMesh",
    "MeshGenerationError",
    "square_mesh_A",
    "layered_mesh_B",
    "mesh_for",
    "write_mesh",
    "read_mesh",
]

TAG_DIELECTRIC = "dielectric"
TAG_CONDUCTOR = "conductor"

FACET_OUTER = "outer"
FACET_AXIS = "axis"
FACET_INTERFACE = "interface"

_ELEMENT_TAGS = (TAG_DIELECTRIC, TAG_CONDUCTOR)
_FACET_TAGS = (FACET_OUTER, FACET_AXIS, FACET_INTERFACE)

_AXIS_TOL = 1e-12
_NODE_TOL = 1e-12  # both copies of a facet-interior node, and the outer boundary


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
    """Conforming curved quad mesh with subdomain and boundary labels.

    Every element has geometry degree `geomdeg`. Its geometry nodes are the
    row of `elem_nodes` in tensor order (index j*(g+1)+i for local
    coordinates (u_i, v_j)); the four corners are the tensor corners.
    """

    nodes: np.ndarray  # (n_nodes, 2)
    elem_nodes: np.ndarray  # (n_elements, (geomdeg+1)^2) int64
    geomdeg: int
    elem_tag: list
    facets: list = field(default_factory=list)  # (elem, face, tag)
    name: str = ""

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


class _NodeRegistry:
    """Deduplicates geometry nodes by exact coordinate values.

    Element corners shared across blocks are generated by the same
    expressions, so they collide bitwise. Nodes inside a facet that the two
    sides parametrize in opposite directions can differ in the last bit and
    are then kept twice; `_MeshBuilder.finish` merges them.
    """

    def __init__(self):
        self.coords: list[tuple[float, float]] = []
        self._index: dict[tuple[float, float], int] = {}

    def add(self, r: float, z: float) -> int:
        if abs(r) < _AXIS_TOL:
            r = 0.0
        key = (r, z)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.coords)
            self.coords.append(key)
            self._index[key] = idx
        return idx

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


class _MeshBuilder:
    """Collects elements; `finish` merges the copies of facet-interior nodes,
    then checks and tags the facets.

    on_outer(r, z) tells, for arrays of node coordinates, which nodes lie on
    the domain's outer boundary.
    """

    def __init__(self, geomdeg: int, on_outer, name: str = ""):
        self.reg = _NodeRegistry()
        self.geomdeg = geomdeg
        self._pts = gll_points(geomdeg).tolist()
        self.on_outer = on_outer
        self.elem_nodes: list[list[int]] = []
        self.tags: list[str] = []
        self.name = name

    def add_element(self, gen, tag: str):
        """gen(u, v) -> (r, z) on [0,1]^2, counterclockwise orientation."""
        self.elem_nodes.append([self.reg.add(*gen(u, v)) for v in self._pts for u in self._pts])
        self.tags.append(tag)

    def finish(self) -> QuadMesh:
        n_geom = (self.geomdeg + 1) ** 2
        mesh = QuadMesh(
            nodes=self.reg.array(),
            elem_nodes=np.array(self.elem_nodes, dtype=np.int64).reshape(-1, n_geom),
            geomdeg=self.geomdeg,
            elem_tag=list(self.tags),
            name=self.name,
        )
        one, two = _facet_owners(mesh)
        _merge_facet_nodes(mesh, two)
        _tag_facets(mesh, one, two, self.on_outer)
        return mesh


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


def _tag_facets(mesh: QuadMesh, one, two, on_outer):
    """Tag the facets `_facet_owners` found: a one-owner facet on the axis
    or on the outer boundary (on_outer), and the conductor side of a facet
    between the subdomains. Any other one-owner facet is a crack in the
    mesh and raises MeshGenerationError."""
    r, z = np.moveaxis(mesh.nodes[_face_nodes(mesh, one)], -1, 0)
    axis = np.all(np.abs(r) < _AXIS_TOL, axis=1)
    inside = ~axis & ~np.all(on_outer(r, z), axis=1)
    if np.any(inside):
        raise _facet_error(one[np.argmax(inside)], "facet has one owner but lies inside the domain")
    cond = np.asarray(mesh.elem_tag) == TAG_CONDUCTOR
    e1, e2 = two.T // 4
    side = np.where(cond[e1], two[:, 0], two[:, 1])[cond[e1] != cond[e2]]
    faces = np.concatenate([one, side])
    tags = np.where(axis, FACET_AXIS, FACET_OUTER).tolist() + [FACET_INTERFACE] * len(side)
    mesh.facets = sorted(zip((faces // 4).tolist(), (faces % 4).tolist(), tags))


# ---------------------------------------------------------------------------
# Configuration A: uniform square meshes

def square_mesh_A(k: int) -> QuadMesh:
    """Uniform squares of side 1/k on [0,2]x[-2,2]; conductor [0,1]x[-1,1]."""
    if k < 1:
        raise ValueError("refinement index k must be >= 1")
    # The nodes i/k and j/k - 2 hit the sides r = 2 and z = +-2 exactly.
    b = _MeshBuilder(1, lambda r, z: (r == 2.0) | (np.abs(z) == 2.0), name=f"A:M{k}")
    nr, nz = 2 * k, 4 * k
    node_id = np.empty((nr + 1, nz + 1), dtype=np.int64)
    for j in range(nz + 1):
        for i in range(nr + 1):
            node_id[i, j] = b.reg.add(i / k, j / k - 2.0)
    for j in range(nz):
        for i in range(nr):
            tag = TAG_CONDUCTOR if (i < k and k <= j < 3 * k) else TAG_DIELECTRIC
            b.elem_nodes.append(
                [node_id[i, j], node_id[i + 1, j], node_id[i, j + 1], node_id[i + 1, j + 1]]
            )
            b.tags.append(tag)
    return b.finish()


# ---------------------------------------------------------------------------
# Configurations B/C: layered spheroidal meshes

GEOM_DEG_CURVED = 4
_NR_CORE = 3      # radial cells of the axis rectangle (top/bottom path cells)
_NZ_CORE = 4      # vertical cells of the axis rectangle (even: z=0 grid line)
_NS_OGRID = 3     # rows of the O-grid patch between rectangle and core curve
_GRADING_RATIO = 0.5
_BAND_FACTOR = 3.0  # band total thickness = 3 * ell(sigma_max)


def _lin(a, b, t):
    # Exact endpoints so shared nodes generated from either side of a facet
    # collide bitwise in the node registry.
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    return a + t * (b - a)


def _levels(a, b, n):
    """n + 1 equispaced levels from a to b, both ends exact."""
    return [_lin(a, b, i / n) for i in range(n + 1)]


def _ellipse_point(a, c, phi):
    return (a * math.sin(phi), c * math.cos(phi))


def _inward_normal(a, c, phi):
    # Tangent of phi -> (a sin, c cos) is (a cos, -c sin); inward is (T_z, -T_r).
    dr, dz = a * math.cos(phi), -c * math.sin(phi)
    sp = math.hypot(dr, dz)
    return (dz / sp, -dr / sp)


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
    config: str,
    n_layers: int,
    sigma_max: float,
    omega: float = OMEGA_DEFAULT,
) -> QuadMesh:
    """Boundary-layer mesh M_{n_layers} for configs B1/B2/C1/C2.

    The conductor side of the interface carries `n_layers` quadrilateral
    layers inside a band of total thickness 3*ell(sigma_max), geometrically
    graded toward the interface with ratio 0.5. Every element has geometry
    degree GEOM_DEG_CURVED.
    """
    if config not in ("B1", "B2", "C1", "C2"):
        raise ValueError(f"layered_mesh_B does not handle config {config!r}")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    p = CONFIG_PARAMS[config]
    a, bb, c, d = p["a"], p["b"], p["c"], p["d"]
    shell_conductor = config.startswith("C")

    ell = skin_depth(omega, MU0, sigma_max)
    t_band = _BAND_FACTOR * ell
    kmax = a / c**2  # max meridian curvature of the inner ellipse
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
        [
            np.linspace(0.0, phi_c1, nr + 1),
            np.linspace(phi_c1, math.pi - phi_c1, nz + 1)[1:],
            np.linspace(math.pi - phi_c1, math.pi, nr + 1)[1:],
        ]
    )
    n_phi = len(phi_nodes) - 1  # = 2*nr + nz

    # Inner path around the axis rectangle, matched node-for-node to phi_nodes.
    # Rectangle grid levels are shared with the path so coordinates coincide
    # bitwise where the blocks meet.
    rlev = _levels(0.0, w, nr)
    zlev_desc = _levels(zq, -zq, nz)
    path = []
    for i in range(nr + 1):
        path.append((rlev[i], zq))
    for j in range(1, nz + 1):
        path.append((w, zlev_desc[j]))
    for i in range(1, nr + 1):
        path.append((rlev[nr - i], zlev_desc[nz]))
    path = np.asarray(path)

    def offset(phi, h):
        r0, z0 = _ellipse_point(a, c, phi)
        nrm = _inward_normal(a, c, phi)
        return (r0 + h * nrm[0], z0 + h * nrm[1])

    def blend(phi, t):
        ri, zi = _ellipse_point(a, c, phi)
        ro, zo = _ellipse_point(bb, d, phi)
        return (ri + t * (ro - ri), zi + t * (zo - zi))

    inner_tag = TAG_DIELECTRIC if shell_conductor else TAG_CONDUCTOR
    annulus_tag = TAG_CONDUCTOR if shell_conductor else TAG_DIELECTRIC

    b = _MeshBuilder(
        GEOM_DEG_CURVED,
        lambda r, z: np.abs((r / bb) ** 2 + (z / d) ** 2 - 1.0) < _NODE_TOL,
        name=f"{config}:M{n_layers}:smax{sigma_max:g}",
    )

    # Band + transition rows inside the inner ellipse.
    for j in range(len(inner_h) - 1):
        h_lo, h_hi = inner_h[j], inner_h[j + 1]
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]

            def gen(u, v, p0=p0, p1=p1, h_lo=h_lo, h_hi=h_hi):
                return offset(_lin(p0, p1, u), _lin(h_hi, h_lo, v))

            b.add_element(gen, inner_tag)

    # Annulus between the ellipses.
    for j in range(len(tlev) - 1):
        t_lo, t_hi = tlev[j], tlev[j + 1]
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]

            def gen(u, v, p0=p0, p1=p1, t_lo=t_lo, t_hi=t_hi):
                return blend(_lin(p0, p1, u), _lin(t_lo, t_hi, v))

            b.add_element(gen, annulus_tag)

    # Axis rectangle: bilinear maps, exact at geometry degree GEOM_DEG_CURVED.
    rect_r = np.asarray(rlev)
    rect_z = np.asarray(zlev_desc[::-1])
    for j in range(nz):
        for i in range(nr):
            r0, r1 = rect_r[i], rect_r[i + 1]
            z0, z1 = rect_z[j], rect_z[j + 1]

            def gen(u, v, r0=r0, r1=r1, z0=z0, z1=z1):
                return (_lin(r0, r1, u), _lin(z0, z1, v))

            b.add_element(gen, inner_tag)

    # O-grid patch between the rectangle path and the core offset curve.
    for j in range(ns):
        s_lo, s_hi = j / ns, (j + 1) / ns
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]
            q0, q1 = path[i], path[i + 1]

            def gen(u, v, p0=p0, p1=p1, q0=q0, q1=q1, s_lo=s_lo, s_hi=s_hi):
                s = _lin(s_lo, s_hi, v)
                pr, pz = _lin(q0[0], q1[0], u), _lin(q0[1], q1[1], u)
                cr, cz = offset(_lin(p0, p1, u), t_core)
                return (_lin(pr, cr, s), _lin(pz, cz, s))

            b.add_element(gen, inner_tag)

    return b.finish()


def mesh_for(
    config: str, spec: str, sigma_max: float = 80.0, omega: float = OMEGA_DEFAULT
) -> QuadMesh:
    """Build a mesh from a name like 'M2' (A: square index, B/C: layer count).
    B/C meshes resolve the skin depth at sigma_max and omega."""
    spec = spec.strip()
    if not spec.upper().startswith("M"):
        raise ValueError(f"mesh spec {spec!r} not understood (expected 'M<k>')")
    k = int(spec[1:])
    if config == "A":
        return square_mesh_A(k)
    return layered_mesh_B(config, k, sigma_max, omega)


# ---------------------------------------------------------------------------
# Plain-text mesh I/O ("QUADMESH v1")

def write_mesh(mesh: QuadMesh, path):
    lines = ["QUADMESH v1", str(len(mesh.nodes))]
    for i, (r, z) in enumerate(mesh.nodes):
        # repr of a Python float round-trips exactly
        lines.append(f"{i} {float(r)!r} {float(z)!r}")
    lines.append(str(mesh.n_elements))
    for e, (ids, tag) in enumerate(zip(mesh.elem_nodes.tolist(), mesh.elem_tag)):
        lines.append(f"{e} {tag} {mesh.geomdeg} {len(ids)} {' '.join(map(str, ids))}")
    lines.append(str(len(mesh.facets)))
    for e, face, tag in mesh.facets:
        lines.append(f"{e} {face} {tag}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_text(path, magic: str, parse):
    """Run parse(line) over a plain-text file whose first line is `magic`.

    `line()` returns the next line. A missing line or a malformed field
    (a ValueError or IndexError inside parse) is raised as a ValueError that
    names the file and the line.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != magic:
        raise ValueError(f"not a {magic} file: {path}")
    pos = 1

    def line() -> str:
        nonlocal pos
        pos += 1
        return lines[pos - 1]

    try:
        return parse(line)
    except (IndexError, ValueError) as exc:
        if pos > len(lines):
            raise ValueError(f"truncated {magic} file {path}: line {pos} missing") from None
        raise ValueError(f"malformed {magic} file {path}, line {pos}: {exc}") from None


def read_mesh(path) -> QuadMesh:
    """Read a QUADMESH v1 file. Every element must have the same geometry
    degree, and element and facet tags must be ones the solver knows."""

    def parse(line):
        n_nodes = int(line())
        nodes = np.empty((n_nodes, 2))
        for k in range(n_nodes):
            i, r, z = line().split()
            if int(i) != k:
                raise ValueError(f"node {i} where node {k} was expected")
            nodes[k] = (float(r), float(z))
        n_el = int(line())
        elem_nodes, tags, geomdeg = [], [], None
        for _ in range(n_el):
            parts = line().split()
            if parts[1] not in _ELEMENT_TAGS:
                raise ValueError(f"unknown element tag {parts[1]!r}")
            g = int(parts[2])
            if g < 1:
                raise ValueError(f"geometry degree {g} < 1")
            if geomdeg is not None and g != geomdeg:
                raise ValueError(f"geometry degree {g} differs from the first element's {geomdeg}")
            geomdeg = g
            ids = [int(x) for x in parts[4:]]
            if not len(ids) == int(parts[3]) == (g + 1) ** 2:
                raise ValueError(
                    f"expected {(g + 1) ** 2} node ids for geometry degree "
                    f"{g}, got {len(ids)} (count field {parts[3]})"
                )
            if not 0 <= min(ids) <= max(ids) < n_nodes:
                raise ValueError(f"node id outside 0..{n_nodes - 1}")
            elem_nodes.append(ids)
            tags.append(parts[1])
        facets = []
        for _ in range(int(line())):
            e, face, tag = line().split()
            if not 0 <= int(e) < n_el:
                raise ValueError(f"facet element {e} outside 0..{n_el - 1}")
            if not 0 <= int(face) <= 3:
                raise ValueError(f"facet face {face} outside 0..3")
            if tag not in _FACET_TAGS:
                raise ValueError(f"unknown facet tag {tag!r}")
            facets.append((int(e), int(face), tag))
        geomdeg = geomdeg or 1
        return QuadMesh(
            nodes=nodes,
            elem_nodes=np.array(elem_nodes, dtype=np.int64).reshape(n_el, (geomdeg + 1) ** 2),
            geomdeg=geomdeg,
            elem_tag=tags,
            facets=facets,
        )

    return _parse_text(path, "QUADMESH v1", parse)
