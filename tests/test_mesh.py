import os

import numpy as np
import pytest

from skinfem import cli, mesh
from skinfem.basis import gauss_rule, tensor_lagrange_grid
from skinfem.fem import _geometry_eval
from skinfem.geometry import CONFIG_PARAMS
from skinfem.mesh import (
    FACET_AXIS,
    FACET_INTERFACE,
    FACET_OUTER,
    TAG_CONDUCTOR,
    MeshGenerationError,
    layered_mesh_B,
    mesh_for,
    read_mesh,
    square_mesh_A,
    write_mesh,
)


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
        assert m1.n_elements == 8
        assert sum(t == TAG_CONDUCTOR for t in m1.elem_tag) == 2
        m2 = square_mesh_A(2)
        assert m2.n_elements == 32
        assert sum(t == TAG_CONDUCTOR for t in m2.elem_tag) == 8

    def test_nesting(self):
        coarse = square_mesh_A(2)
        fine = square_mesh_A(4)
        fine_nodes = {tuple(p) for p in fine.nodes}
        for p in coarse.nodes:
            assert tuple(p) in fine_nodes

    def test_domain_extent(self):
        m = square_mesh_A(3)
        assert m.nodes[:, 0].min() == 0.0 and m.nodes[:, 0].max() == 2.0
        assert m.nodes[:, 1].min() == -2.0 and m.nodes[:, 1].max() == 2.0

    def test_facet_tags(self):
        m = square_mesh_A(1)
        tags = {t for _, _, t in m.facets}
        assert tags == {FACET_AXIS, FACET_OUTER, FACET_INTERFACE}

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


def _on_outer_boundary(m, pts):
    """Whether each point lies on the outer boundary of m's configuration."""
    params = CONFIG_PARAMS[m.name.split(":")[0]]
    r, z = pts[:, 0], pts[:, 1]
    if "r1" in params:
        return np.isclose(r, params["r1"], rtol=0, atol=1e-12) | np.isclose(
            np.abs(z), params["l1"] / 2, rtol=0, atol=1e-12
        )
    return np.abs((r / params["b"]) ** 2 + (z / params["d"]) ** 2 - 1.0) <= 1e-12


def _check_conforming(m):
    t = np.linspace(0.0, 1.0, 9)
    adj = facet_adjacency(m)
    fc = m.face_corners
    for key, owners in adj.items():
        assert len(owners) <= 2
        if len(owners) == 1:
            # a facet with one owner is on the axis or the outer boundary
            pts = m.nodes[face_node_ids(m, *owners[0])]
            assert np.all(pts[:, 0] == 0.0) or np.all(_on_outer_boundary(m, pts)), owners
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
    _check_conforming(m)
    areas, detmin = element_areas(m)
    assert np.all(detmin > 0.0)
    assert np.all(areas > 0.0)


def test_sigma_sweep_mesh_conforming():
    # the mesh of a B1 M3 sweep up to sigma = 400 has a thinner band
    _check_conforming(mesh_for("B1", "M3", sigma_max=400.0))


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
    cond = np.array([t == TAG_CONDUCTOR for t in m.elem_tag])
    assert areas[cond].sum() == pytest.approx(np.pi * 2.0 * 1.0 / 2.0, abs=1e-6)
    assert areas.sum() == pytest.approx(np.pi * 4.0 * 2.0 / 2.0, abs=1e-6)


def test_b1_layer_count_refines():
    m1 = mesh_for("B1", "M1", sigma_max=80.0)
    m3 = mesh_for("B1", "M3", sigma_max=80.0)
    assert m3.n_elements > m1.n_elements


def test_interface_facet_nodes_on_ellipse():
    m = mesh_for("B1", "M2", sigma_max=80.0)
    found = 0
    for e, face, tag in m.facets:
        if tag != FACET_INTERFACE:
            continue
        found += 1
        pts = m.nodes[face_node_ids(m, e, face)]
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
        layered_mesh_B("B1", 3, 1e-4, 3e7)


def test_mesh_io_roundtrip(tmp_path):
    m = mesh_for("B1", "M1", sigma_max=80.0)
    path = tmp_path / "m.txt"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.elem_nodes, m2.elem_nodes)
    assert m2.elem_nodes.dtype == np.int64
    assert list(m.elem_tag) == list(m2.elem_tag)
    assert m.geomdeg == m2.geomdeg
    assert m.facets == m2.facets


def test_mesh_for_rejects_bad_spec():
    with pytest.raises(ValueError):
        mesh_for("B1", "fine")


def _edit(lineno, edit):
    """Replace the fields of 1-based line lineno of a QUADMESH file by edit(fields)."""

    def cut(lines):
        fields = edit(lines[lineno - 1].split())
        return lines[: lineno - 1] + [" ".join(fields)] + lines[lineno:]

    return cut


# square_mesh_A(1) as written: 15 nodes on lines 3-17, 8 elements on lines
# 19-26 ("e tag geomdeg count ids..."), 16 facets from line 28 ("e face tag").
@pytest.mark.parametrize(
    "cut, message",
    [
        pytest.param(lambda lines: [], "bad.txt", id="empty"),
        pytest.param(lambda lines: lines[:1], "bad.txt", id="header"),
        pytest.param(lambda lines: lines[:5], "bad.txt", id="nodes"),
        pytest.param(lambda lines: lines[:-1], "bad.txt", id="facets"),
        pytest.param(
            lambda lines: lines[:1] + ["many"] + lines[2:], "bad.txt", id="node-count"
        ),
        pytest.param(
            lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
            "bad.txt",
            id="node-order",
        ),
        pytest.param(
            _edit(19, lambda f: f[:4] + ["99999"] + f[5:]),
            r"bad\.txt, line 19: node id",
            id="elem-node-high",
        ),
        pytest.param(
            _edit(20, lambda f: f[:5] + ["-1"] + f[6:]),
            r"bad\.txt, line 20: node id",
            id="elem-node-negative",
        ),
        pytest.param(
            _edit(21, lambda f: f[:3] + ["3"] + f[4:-1]),
            r"bad\.txt, line 21: expected 4 node ids",
            id="elem-id-count",
        ),
        pytest.param(
            _edit(28, lambda f: ["8"] + f[1:]),
            r"bad\.txt, line 28: facet element",
            id="facet-element",
        ),
        pytest.param(
            _edit(29, lambda f: f[:1] + ["4"] + f[2:]),
            r"bad\.txt, line 29: facet face",
            id="facet-face",
        ),
        pytest.param(
            _edit(19, lambda f: f[:1] + ["conductr"] + f[2:]),
            r"bad\.txt, line 19: unknown element tag 'conductr'",
            id="elem-tag",
        ),
        pytest.param(
            _edit(30, lambda f: f[:2] + ["outr"]),
            r"bad\.txt, line 30: unknown facet tag 'outr'",
            id="facet-tag",
        ),
        pytest.param(
            _edit(19, lambda f: f[:2] + ["0", "1"] + f[4:5]),
            r"bad\.txt, line 19: geometry degree 0 < 1",
            id="elem-degree-0",
        ),
        pytest.param(
            _edit(22, lambda f: f[:2] + ["2", "9"] + f[4:] + f[4:] + f[4:5]),
            r"bad\.txt, line 22: geometry degree 2 differs from the first element's 1",
            id="mixed-degrees",
        ),
    ],
)
def test_read_mesh_bad_file_names_file(tmp_path, cut, message):
    path = tmp_path / "bad.txt"
    write_mesh(square_mesh_A(1), path)
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in cut(lines)))
    with pytest.raises(ValueError, match=message):
        read_mesh(path)
