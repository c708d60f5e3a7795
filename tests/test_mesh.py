import math
import os
import re

import numpy as np
import pytest

from skinfem import cli, mesh
from skinfem.basis import gauss_rule, gll_points, tensor_lagrange_grid
from skinfem.fem import FeSpace, _geometry_eval
from skinfem.geometry import CONFIGURATIONS, Cylinders
from skinfem.mesh import MeshGenerationError, layered_mesh_B, mesh_for, square_mesh_A
from skinfem.physics import MU0, OMEGA_DEFAULT, skin_depth


def element_areas(m):
    """Per-element area and minimum Jacobian via degree-5 Gauss quadrature."""
    areas = np.empty(m.n_elements)
    detmin = np.empty(m.n_elements)
    x, w = gauss_rule(5)
    w2 = np.outer(w, w).reshape(-1)
    for e in range(m.n_elements):
        GV, GDu, GDv = tensor_lagrange_grid(m.geomdeg, x)
        X = m.nodes[m.elem_nodes[e]]
        _, _, _, _, _, _, det = _geometry_eval(X, GV, GDu, GDv)
        areas[e] = np.sum(w2 * det)
        detmin[e] = det.min()
    return areas, detmin


class TestSquareMeshA:
    def test_counts(self):
        m1 = square_mesh_A(1)
        assert m1.n_elements == 4
        assert m1.conductor.dtype == bool and m1.conductor.sum() == 1
        m2 = square_mesh_A(2)
        assert m2.n_elements == 16
        assert m2.conductor.sum() == 4

    def test_nesting(self):
        coarse = square_mesh_A(2)
        fine = square_mesh_A(4)
        fine_nodes = {tuple(p) for p in fine.nodes}
        for p in coarse.nodes:
            assert tuple(p) in fine_nodes

    def test_domain_extent(self):
        m = square_mesh_A(3)
        assert m.nodes[:, 0].min() == 0.0 and m.nodes[:, 0].max() == 2.0
        assert m.nodes[:, 1].min() == 0.0 and m.nodes[:, 1].max() == 2.0

    def test_facet_kinds(self):
        # M1: the axis side r = 0 has 2 facets, the symmetry plane z = 0 2,
        # the outer sides r = 2 and z = 2 have 4, and the conductor
        # [0,1]x[0,1] meets the dielectric along 2 (r = 1 and z = 1).
        m = square_mesh_A(1)
        owners = list(facet_adjacency(m).values())
        one = [o[0] for o in owners if len(o) == 1]
        on_axis, on_plane = np.array(
            [np.all(m.nodes[face_node_ids(m, *o)] == 0.0, axis=0) for o in one]
        ).sum(axis=0)
        cond = [[m.conductor[e] for e, _ in o] for o in owners]
        interface = [c for c in cond if len(c) == 2 and c[0] != c[1]]
        assert (on_axis, on_plane, len(one) - on_axis - on_plane, len(interface)) == (2, 2, 4, 2)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            square_mesh_A(0)


def face_node_ids(m, e, face):
    """Geometry node ids of element e along face 0..3 (v=0, u=1, v=1, u=0),
    in the direction of increasing u or v."""
    g = m.geomdeg
    i = np.arange(g + 1)
    return m.elem_nodes[e, [i, i * (g + 1) + g, g * (g + 1) + i, i * (g + 1)][face]]


def facet_adjacency(m):
    """Map facet key (sorted corner ids) -> list of (elem, face)."""
    adj = {}
    for e, faces in enumerate(np.sort(m.face_corners, axis=2).tolist()):
        for face, key in enumerate(faces):
            adj.setdefault(tuple(key), []).append((e, face))
    return adj


def _face_curve(m, e, face, t):
    """Geometry map of element e restricted to a face, at parameters t."""
    from skinfem.basis import gll_points, lagrange_matrix

    pts = m.nodes[face_node_ids(m, e, face)]
    return lagrange_matrix(gll_points(m.geomdeg), t) @ pts


def _on_outer_boundary(geom, pts):
    """Whether each point lies on the outer boundary of the configuration
    record geom: the box of the cylinders, the ellipse of the spheroids."""
    r, z = pts[:, 0], pts[:, 1]
    rmax, zmax = geom.extent
    if isinstance(geom, Cylinders):
        return np.isclose(r, rmax, rtol=0, atol=1e-12) | np.isclose(
            np.abs(z), zmax, rtol=0, atol=1e-12
        )
    return np.abs((r / rmax) ** 2 + (z / zmax) ** 2 - 1.0) <= 1e-12


def _check_conforming(m, geom):
    t = np.linspace(0.0, 1.0, 9)
    adj = facet_adjacency(m)
    fc = m.face_corners
    for key, owners in adj.items():
        assert len(owners) <= 2
        if len(owners) == 1:
            # a facet with one owner is on the axis, the symmetry plane or
            # the outer boundary
            pts = m.nodes[face_node_ids(m, *owners[0])]
            on_line = np.any(np.all(pts == 0.0, axis=0))
            assert on_line or np.all(_on_outer_boundary(geom, pts)), owners
        if len(owners) == 2:
            (e0, f0), (e1, f1) = owners
            assert set(fc[e0, f0]) == set(fc[e1, f1]) == set(key)
            # both owners reference the same nodes along it, in either direction
            ids0, ids1 = face_node_ids(m, e0, f0), face_node_ids(m, e1, f1)
            same = np.array_equal(ids0, ids1)
            assert same or np.array_equal(ids0, ids1[::-1]), owners
            p0 = _face_curve(m, e0, f0, t)
            p1 = _face_curve(m, e1, f1, t if same else t[::-1])
            # the two parametrizations of the shared facet must coincide
            assert np.max(np.abs(p0 - p1)) < 1e-12


@pytest.mark.parametrize(
    "config,spec",
    [("B1", "M1"), ("B1", "M3"), ("B2", "M2"), ("C1", "M1"), ("C2", "M1"), ("A", "M1"), ("A", "M2")],
)
def test_layered_mesh_valid(config, spec):
    m = mesh_for(config, spec, sigma_max=80.0)
    _check_conforming(m, CONFIGURATIONS[config])
    areas, detmin = element_areas(m)
    assert np.all(detmin > 0.0)
    assert np.all(areas > 0.0)


def test_sigma_sweep_mesh_conforming():
    # the mesh of a B1 M3 sweep up to sigma = 400 has a thinner band
    _check_conforming(mesh_for("B1", "M3", sigma_max=400.0), CONFIGURATIONS["B1"])


class TestCoreCrack:
    """A core whose rectangle levels miss the O-grid's corners by the last
    bit, as `w * i / nr` did, leaves one-owner facets inside the domain."""

    @pytest.fixture
    def cracked(self, monkeypatch):
        levels = mesh._levels

        def rounded(a, b, n):
            return [b * i / n for i in range(n + 1)] if a == 0.0 else levels(a, b, n)

        monkeypatch.setattr(mesh, "_levels", rounded)

    def test_mesh_generation_error(self, cracked):
        with pytest.raises(MeshGenerationError, match=r"element \d+ face \d: facet has one owner"):
            mesh_for("B1", "M1")

    def test_cli_exit_3_without_artifacts(self, cracked, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = cli.ExperimentConfig(
            study="slope-study", config="B1", sigmas=[5.0], ps=[2], mesh_spec="M1", out=str(out)
        )
        assert cli.run(cfg) == cli.EXIT_SOLVE
        assert "facet has one owner" in capsys.readouterr().err
        assert os.listdir(out) == []


def test_b1_areas():
    m = mesh_for("B1", "M3", sigma_max=80.0)
    areas, _ = element_areas(m)
    # A quarter of each ellipse: the half meridian z >= 0.
    assert areas[m.conductor].sum() == pytest.approx(np.pi * 2.0 * 1.0 / 4.0, abs=1e-6)
    assert areas.sum() == pytest.approx(np.pi * 4.0 * 2.0 / 4.0, abs=1e-6)


def test_b1_layer_count_refines():
    m1 = mesh_for("B1", "M1", sigma_max=80.0)
    m3 = mesh_for("B1", "M3", sigma_max=80.0)
    assert m3.n_elements > m1.n_elements


def test_interface_facet_nodes_on_ellipse():
    m = mesh_for("B1", "M2", sigma_max=80.0)
    found = 0
    for owners in facet_adjacency(m).values():
        if len(owners) != 2 or m.conductor[owners[0][0]] == m.conductor[owners[1][0]]:
            continue
        found += 1
        pts = m.nodes[face_node_ids(m, *owners[0])]
        vals = (pts[:, 0] / 2.0) ** 2 + (pts[:, 1] / 1.0) ** 2
        assert np.max(np.abs(vals - 1.0)) < 1e-8
    assert found > 0


def test_equator_is_mesh_line():
    m = mesh_for("B1", "M2", sigma_max=80.0)
    on_eq = np.abs(m.nodes[:, 1]) < 1e-12
    rs = np.sort(m.nodes[on_eq, 0])
    # the interface point (2, 0) must be a mesh vertex
    assert np.min(np.abs(rs - 2.0)) < 1e-12


def test_band_resolves_skin_depth():
    from skinfem.physics import PhysicalParams

    m = mesh_for("B1", "M3", sigma_max=80.0)
    ell = PhysicalParams(sigma=80.0).ell
    # thinnest conductor-side layer at the equator: nodes just inside r = 2
    on_eq = np.abs(m.nodes[:, 1]) < 1e-12
    rs = np.sort(m.nodes[on_eq, 0])
    inner = rs[rs < 2.0 - 1e-12]
    first_layer = 2.0 - inner[-1]
    assert first_layer < 3.0 * ell


def test_generation_error_when_band_too_thick():
    with pytest.raises(MeshGenerationError):
        # sigma tiny: skin depth comparable to the conductor size
        layered_mesh_B(CONFIGURATIONS["B1"], 3, 1e-4, 3e7)


def test_mesh_for_rejects_bad_spec():
    for config in ("A", "B1"):
        for spec in ("fine", "M 2", "M2.5", "M0"):
            with pytest.raises(ValueError, match=re.escape(f"mesh spec {spec!r} not understood")):
                mesh_for(config, spec)


def test_mesh_for_and_cli_accept_the_same_specs():
    got, want = mesh_for("A", " m2 "), square_mesh_A(2)
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.elem_nodes, want.elem_nodes)
    cfg = cli.ExperimentConfig(study="solve", config="A", sigmas=[5.0], ps=[2], mesh_spec="M 2")
    with pytest.raises(cli.ConfigError, match="field 'mesh'"):
        cfg.validate()


# ---------------------------------------------------------------------------
# The scalar mesh builder that `_MeshBuilder.add_block` replaced: a dict
# registry of exact node coordinates, one `gen(u, v)` call per node, and a
# hand-numbered node grid for config A. Kept verbatim apart from names, the
# dropped argument checks and mesh name, a conductor flag in place of an
# element tag, a configuration record in place of its name, and the half
# meridian z >= 0 in place of the whole, as the reference for the array
# builder.


class _RefBuilder:
    def __init__(self, geomdeg, on_outer):
        self.coords, self._index = [], {}
        self.geomdeg = geomdeg
        self._pts = gll_points(geomdeg).tolist()
        self.on_outer = on_outer
        self.elem_nodes, self.conductor = [], []

    def add(self, r, z):
        if abs(r) < 1e-12:
            r = 0.0
        if abs(z) < 1e-12:
            z = 0.0
        key = (r, z)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.coords)
            self.coords.append(key)
            self._index[key] = idx
        return idx

    def add_element(self, gen, conductor):
        self.elem_nodes.append([self.add(*gen(u, v)) for v in self._pts for u in self._pts])
        self.conductor.append(conductor)

    def finish(self):
        n_geom = (self.geomdeg + 1) ** 2
        m = mesh.QuadMesh(
            nodes=np.asarray(self.coords, dtype=float),
            elem_nodes=np.array(self.elem_nodes, dtype=np.int64).reshape(-1, n_geom),
            geomdeg=self.geomdeg,
            conductor=np.array(self.conductor, dtype=bool),
        )
        one, two = mesh._facet_owners(m)
        mesh._merge_facet_nodes(m, two)
        mesh._check_cracks(m, one, self.on_outer)
        return m


def _ref_square_mesh_A(k):
    b = _RefBuilder(1, lambda r, z: (r == 2.0) | (z == 2.0))
    nr, nz = 2 * k, 2 * k
    node_id = np.empty((nr + 1, nz + 1), dtype=np.int64)
    for j in range(nz + 1):
        for i in range(nr + 1):
            node_id[i, j] = b.add(i / k, j / k)
    for j in range(nz):
        for i in range(nr):
            b.elem_nodes.append(
                [node_id[i, j], node_id[i + 1, j], node_id[i, j + 1], node_id[i + 1, j + 1]]
            )
            b.conductor.append(i < k and j < k)
    return b.finish()


def _ref_lin(a, b, t):
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    return a + t * (b - a)


def _ref_ellipse_point(a, c, phi):
    return (a * math.sin(phi), c * math.cos(phi))


def _ref_inward_normal(a, c, phi):
    dr, dz = a * math.cos(phi), -c * math.sin(phi)
    sp = math.hypot(dr, dz)
    return (dz / sp, -dr / sp)


def _ref_layered_mesh_B(spheroids, n_layers, sigma_max, omega):
    a, bb, c, d = spheroids.a, spheroids.b, spheroids.c, spheroids.d
    shell_conductor = spheroids.shell
    ell = skin_depth(omega, MU0, sigma_max)
    t_band = mesh._BAND_FACTOR * ell
    kmax = a / c**2
    t_core = min(0.35 * c, 0.7 / kmax)
    if t_band >= min(t_core, 1.0 / kmax):
        raise MeshGenerationError("skin band thickness exceeds the validity range")
    if shell_conductor:
        inner_h = [0.0, 0.5 * t_core, t_core]
    else:
        inner_h = [0.0]
        for t in mesh._graded_thicknesses(t_band, n_layers, mesh._GRADING_RATIO):
            inner_h.append(inner_h[-1] + t)
        for t in mesh._geometric_fill(inner_h[-1] - inner_h[-2], t_core - t_band):
            inner_h.append(inner_h[-1] + t)
        inner_h[-1] = t_core
    if shell_conductor:
        gap = bb - a
        tb = t_band / gap
        tlev = [0.0]
        for t in mesh._graded_thicknesses(tb, n_layers, mesh._GRADING_RATIO):
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
    nr, nz, ns = mesh._NR_CORE, mesh._NZ_CORE, mesh._NS_OGRID
    phi_nodes = np.concatenate(
        [
            np.linspace(0.0, phi_c1, nr + 1),
            np.linspace(phi_c1, math.pi / 2.0, nz + 1)[1:],
        ]
    )
    n_phi = len(phi_nodes) - 1
    rlev = [_ref_lin(0.0, w, i / nr) for i in range(nr + 1)]
    zlev_desc = [_ref_lin(zq, 0.0, i / nz) for i in range(nz + 1)]
    path = []
    for i in range(nr + 1):
        path.append((rlev[i], zq))
    for j in range(1, nz + 1):
        path.append((w, zlev_desc[j]))
    path = np.asarray(path)

    def offset(phi, h):
        r0, z0 = _ref_ellipse_point(a, c, phi)
        nrm = _ref_inward_normal(a, c, phi)
        return (r0 + h * nrm[0], z0 + h * nrm[1])

    def blend(phi, t):
        ri, zi = _ref_ellipse_point(a, c, phi)
        ro, zo = _ref_ellipse_point(bb, d, phi)
        return (ri + t * (ro - ri), zi + t * (zo - zi))

    inner_conductor, annulus_conductor = not shell_conductor, shell_conductor
    b = _RefBuilder(
        mesh.GEOM_DEG_CURVED,
        lambda r, z: np.abs((r / bb) ** 2 + (z / d) ** 2 - 1.0) < 1e-12,
    )
    for j in range(len(inner_h) - 1):
        h_lo, h_hi = inner_h[j], inner_h[j + 1]
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]

            def gen(u, v, p0=p0, p1=p1, h_lo=h_lo, h_hi=h_hi):
                return offset(_ref_lin(p0, p1, u), _ref_lin(h_hi, h_lo, v))

            b.add_element(gen, inner_conductor)
    for j in range(len(tlev) - 1):
        t_lo, t_hi = tlev[j], tlev[j + 1]
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]

            def gen(u, v, p0=p0, p1=p1, t_lo=t_lo, t_hi=t_hi):
                return blend(_ref_lin(p0, p1, u), _ref_lin(t_lo, t_hi, v))

            b.add_element(gen, annulus_conductor)
    rect_r = np.asarray(rlev)
    rect_z = np.asarray(zlev_desc[::-1])
    for j in range(nz):
        for i in range(nr):
            r0, r1 = rect_r[i], rect_r[i + 1]
            z0, z1 = rect_z[j], rect_z[j + 1]

            def gen(u, v, r0=r0, r1=r1, z0=z0, z1=z1):
                return (_ref_lin(r0, r1, u), _ref_lin(z0, z1, v))

            b.add_element(gen, inner_conductor)
    for j in range(ns):
        s_lo, s_hi = j / ns, (j + 1) / ns
        for i in range(n_phi):
            p0, p1 = phi_nodes[i], phi_nodes[i + 1]
            q0, q1 = path[i], path[i + 1]

            def gen(u, v, p0=p0, p1=p1, q0=q0, q1=q1, s_lo=s_lo, s_hi=s_hi):
                s = _ref_lin(s_lo, s_hi, v)
                pr, pz = _ref_lin(q0[0], q1[0], u), _ref_lin(q0[1], q1[1], u)
                cr, cz = offset(_ref_lin(p0, p1, u), t_core)
                return (_ref_lin(pr, cr, s), _ref_lin(pz, cz, s))

            b.add_element(gen, inner_conductor)
    return b.finish()


# A M1-M8; B1/B2/C1/C2 M1-M6 meshed for sigma_max 20, 80 and 400, and M3
# at omega = 1.2e8.
BUILDER_CASES = (
    [("A", k, 80.0, OMEGA_DEFAULT) for k in range(1, 9)]
    + [(c, k, s, OMEGA_DEFAULT) for c in ("B1", "B2", "C1", "C2") for k in range(1, 7)
       for s in (20.0, 80.0, 400.0)]
    + [(c, 3, 80.0, 1.2e8) for c in ("B1", "B2", "C1", "C2")]
)


@pytest.mark.parametrize("config,k,sigma_max,omega", BUILDER_CASES, ids=str)
def test_block_builder_matches_scalar_builder(config, k, sigma_max, omega):
    """Same elements, conductor and DOF numbering as the scalar builder.
    Config B/C meshes keep its node numbering, so their `FeSpace` is the
    same; config A's nodes are numbered by first appearance over the
    elements, no longer row by row, and its DOFs are compared. Node
    coordinates may differ by an ulp where numpy's sin, cos or hypot round
    differently from math's."""
    if config == "A":
        ref, new = _ref_square_mesh_A(k), square_mesh_A(k)
        assert np.array_equal(FeSpace(new, 3).elem_dofs, FeSpace(ref, 3).elem_dofs)
    else:
        ref = _ref_layered_mesh_B(CONFIGURATIONS[config], k, sigma_max, omega)
        new = layered_mesh_B(CONFIGURATIONS[config], k, sigma_max, omega)
        assert np.array_equal(new.elem_nodes, ref.elem_nodes)
    assert new.geomdeg == ref.geomdeg
    assert new.conductor.dtype == bool and np.array_equal(new.conductor, ref.conductor)
    assert new.nodes.shape == ref.nodes.shape
    X, X_ref = new.nodes[new.elem_nodes], ref.nodes[ref.elem_nodes]
    assert np.max(np.abs(X - X_ref)) <= 1e-15 * np.max(np.abs(ref.nodes))


# Elements of the whole meridian's meshes, before they were cut to z >= 0:
# A M1-M8, then per configuration and sigma_max M1-M6.
FULL_COUNTS = {
    ("A", 80.0): [8, 32, 72, 128, 200, 288, 392, 512],
    ("B1", 20.0): [112, 122, 132, 142, 152, 162],
    ("B1", 80.0): [112, 122, 142, 152, 162, 172],
    ("B1", 400.0): [122, 132, 152, 162, 172, 182],
    ("B2", 20.0): [102, 112, 122, 132, 142, 152],
    ("B2", 80.0): [112, 122, 132, 142, 152, 162],
    ("B2", 400.0): [112, 132, 142, 152, 162, 172],
    **{(c, s): [102, 112, 122, 132, 142, 152] for c in ("C1", "C2") for s in (20.0, 80.0, 400.0)},
}
HALF_CASES = [(c, k + 1, s) for (c, s), counts in FULL_COUNTS.items() for k in range(len(counts))]


@pytest.mark.parametrize("config,k,sigma_max", HALF_CASES, ids=str)
def test_mesh_holds_the_half_meridian(config, k, sigma_max):
    # Every node at z >= 0, those within 1e-12 of the symmetry plane
    # exactly on it, some facets on it, and half the whole meridian's
    # elements.
    m = mesh_for(config, f"M{k}", sigma_max=sigma_max)
    z = m.nodes[:, 1]
    assert np.all(z >= 0.0) and np.all(z[z < 1e-12] == 0.0)
    one, _ = mesh._facet_owners(m)
    assert np.any(mesh._on_line(m, one, 1))
    assert 2 * m.n_elements == FULL_COUNTS[config, sigma_max][k - 1]


def test_crack_off_the_symmetry_plane_is_rejected():
    # A M2 without its bottom row of elements: the facets at z = 0.5 then
    # have one owner and lie on no boundary.
    m = square_mesh_A(2)
    assert mesh._check_cracks(m, mesh._facet_owners(m)[0], lambda r, z: (r == 2.0) | (z == 2.0)) is None
    keep = m.nodes[m.corners].min(axis=1)[:, 1] >= 0.5
    cut = mesh.QuadMesh(m.nodes, m.elem_nodes[keep], m.geomdeg, m.conductor[keep])
    with pytest.raises(MeshGenerationError, match="facet has one owner but lies inside"):
        mesh._check_cracks(cut, mesh._facet_owners(cut)[0], lambda r, z: (r == 2.0) | (z == 2.0))


@pytest.mark.parametrize("config,spec", [("A", "M2"), ("B1", "M2"), ("C1", "M1"), ("C2", "M2")])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_symmetry_plane_dofs_are_free(config, spec, p):
    # The DOFs on z = 0 off the axis and the outer boundary are neither
    # axis nor outer DOFs; the two at its ends are, the axis one axis.
    m = mesh_for(config, spec, sigma_max=80.0)
    space = FeSpace(m, p)
    r, z = space.dof_coords.T
    on_plane = np.flatnonzero(z == 0.0)
    ends = on_plane[[np.argmin(r[on_plane]), np.argmax(r[on_plane])]]
    inner = np.setdiff1d(on_plane, ends)
    assert len(inner) and not np.any(space.constrained[inner])
    assert not np.intersect1d(inner, np.r_[space.axis_dofs, space.outer_dofs]).size
    assert ends[0] in space.axis_dofs and ends[1] in space.outer_dofs
