import dataclasses
import gc
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from scipy.spatial import cKDTree
from skinfem import cli, fem, geometry, kernels, mesh, physics, postprocess
from skinfem.basis import (
    gll_points,
    lagrange_deriv_matrix,
    lagrange_matrix,
    tensor_lagrange,
    tensor_lagrange_grid,
)
from skinfem.fem import (
    AssemblyError,
    FeSpace,
    PointLocationError,
    SourceSpec,
    assemble,
    evaluate,
    inverse_map,
    locate,
    solve,
)
from test_kernels import dense_element_matrix, unpacked
from test_mesh import face_node_ids, facet_adjacency


def _element_triplets(dofs):
    """Row and column indices of the entries of element matrices over dofs."""
    k = dofs.shape[1]
    return np.repeat(dofs, k, axis=1).ravel(), np.tile(dofs, (1, k)).ravel()


def coefficients(system):
    """Each element's stiffness coefficient at the system's params:
    1/eps_conductor in the conductor, 1 elsewhere or under uniform_eps."""
    coef = np.ones(system.space.mesh.n_elements, dtype=np.complex128)
    if not system.uniform_eps:
        coef[system.space.mesh.conductor] = 1.0 / system.params.eps_conductor
    return coef


def lifted_rhs(system):
    """b - A g over all dofs, from the solver's own lifting."""
    full = kernels.full_index((system.space.p + 1) ** 2)
    return fem._lifted_rhs(system, coefficients(system)[None], full)[0]


def global_matrix(system):
    """The assembled n_dofs x n_dofs matrix in CSC, constrained rows included.

    Duplicates are summed in element order, so the exact complex symmetry
    of the element matrices is kept.
    """
    n = system.space.n_dofs
    rows, cols = _element_triplets(system.space.elem_dofs)
    k = system.space.elem_shape
    S, M = unpacked(system.stiffness), unpacked(system.mass)
    vals = coefficients(system)[:, None, None] * S[k] - system.params.kappa**2 * M[k]
    keys = cols * np.int64(n) + rows
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    data = np.add.reduceat(vals.ravel()[order], starts)
    entry = keys[order][starts]
    return sparse.csc_matrix((data, (entry % n, entry // n)), shape=(n, n))


@pytest.fixture(scope="module")
def params5():
    return physics.PhysicalParams(sigma=5.0)


@pytest.fixture(scope="module")
def mesh_a2():
    return mesh.square_mesh_A(2)


@pytest.fixture(scope="module")
def mesh_b1():
    return mesh.mesh_for("B1", "M1", sigma_max=80.0)


class TestShapeBasis:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_partition_of_unity(self, p, u, v):
        vals = tensor_lagrange(p, u, v)[0][0]
        assert np.sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_nodal_property(self):
        p = 4
        nodes = gll_points(p)
        for j, vn in enumerate(nodes):
            for i, un in enumerate(nodes):
                vals = tensor_lagrange(p, un, vn)[0][0]
                expect = np.zeros((p + 1) ** 2)
                expect[j * (p + 1) + i] = 1.0
                assert np.allclose(vals, expect, atol=1e-12)

    def test_degree_bounds(self, mesh_a2):
        with pytest.raises(ValueError):
            FeSpace(mesh_a2, 0)
        with pytest.raises(ValueError):
            FeSpace(mesh_a2, 21)


class TestSpace:
    def test_dof_count(self, mesh_a2):
        p = 3
        sp = FeSpace(mesh_a2, p)
        nv = len(np.unique(mesh_a2.corners))
        ne_edges = sp.n_dofs - nv - mesh_a2.n_elements * (p - 1) ** 2
        assert ne_edges % (p - 1) == 0
        # Euler check on a structured 4x4 grid: 40 edges
        assert ne_edges // (p - 1) == 40

    def test_shared_edge_dof_coords_consistent(self, mesh_b1):
        sp = FeSpace(mesh_b1, 5)
        # dof coordinates were written once per adjacent element; recompute
        # from each element and compare
        for e in range(mesh_b1.n_elements):
            GV = tensor_lagrange_grid(mesh_b1.geomdeg, gll_points(5))[0]
            pts = GV @ mesh_b1.nodes[mesh_b1.elem_nodes[e]]
            assert np.max(np.abs(pts - sp.dof_coords[sp.elem_dofs[e]])) < 1e-12

    def test_axis_dofs_on_axis(self, mesh_a2):
        sp = FeSpace(mesh_a2, 4)
        assert np.all(np.abs(sp.dof_coords[sp.axis_dofs, 0]) < 1e-12)
        assert len(sp.axis_dofs) > 0
        assert len(sp.outer_dofs) > 0
        assert not set(sp.axis_dofs) & set(sp.outer_dofs)


# Reference for TestNumbering: the element-by-element numbering that the
# array one in FeSpace._build_numbering replaced, kept verbatim apart from
# reading the corners from mesh.corners and returning what it built.

def _ref_numbering(mesh, p):
    n1 = p + 1
    vertex_dof: dict[int, int] = {}
    edge_dof: dict[tuple[int, int], int] = {}
    next_dof = 0
    elem_dofs = []
    for e in range(mesh.n_elements):
        c = mesh.corners[e].tolist()
        for cid in c:
            if cid not in vertex_dof:
                vertex_dof[cid] = next_dof
                next_dof += 1
    if p > 1:
        for e in range(mesh.n_elements):
            c = mesh.corners[e].tolist()
            for pair in ((c[0], c[1]), (c[1], c[2]), (c[3], c[2]), (c[0], c[3])):
                key = (min(pair), max(pair))
                if key not in edge_dof:
                    edge_dof[key] = next_dof
                    next_dof += p - 1
    n_skeleton = next_dof
    for e in range(mesh.n_elements):
        c = mesh.corners[e].tolist()
        dofs = np.empty(n1 * n1, dtype=np.int64)
        dofs[0] = vertex_dof[c[0]]
        dofs[p] = vertex_dof[c[1]]
        dofs[p * n1 + p] = vertex_dof[c[2]]
        dofs[p * n1] = vertex_dof[c[3]]
        if p > 1:
            inner = np.arange(1, p)
            for face, pair in zip(
                range(4), ((c[0], c[1]), (c[1], c[2]), (c[3], c[2]), (c[0], c[3]))
            ):
                key = (min(pair), max(pair))
                start = edge_dof[key]
                seq = start + inner - 1
                if pair[0] > pair[1]:
                    seq = seq[::-1]
                if face == 0:
                    dofs[inner] = seq
                elif face == 1:
                    dofs[inner * n1 + p] = seq
                elif face == 2:
                    dofs[p * n1 + inner] = seq
                else:
                    dofs[inner * n1] = seq
            for j in range(1, p):
                for i in range(1, p):
                    dofs[j * n1 + i] = next_dof
                    next_dof += 1
        elem_dofs.append(dofs)
    return np.array(elem_dofs, dtype=np.int64).reshape(-1, n1 * n1), n_skeleton, next_dof


def _ref_boundary_dofs(mesh, p, elem_dofs):
    """(axis_dofs, outer_dofs) on the facets with one owner, the axis where
    every geometry node has r == 0, the axis winning at corners; a facet
    whose every geometry node has z == 0 lies on the symmetry plane and
    adds neither."""
    from skinfem.mesh import _face_locals

    outer, axis = set(), set()
    for owners in facet_adjacency(mesh).values():
        if len(owners) == 1:
            e, face = owners[0]
            ids = elem_dofs[e][_face_locals(p)[face]]
            on_axis, on_plane = np.all(mesh.nodes[face_node_ids(mesh, e, face)] == 0.0, axis=0)
            if on_axis or not on_plane:
                (axis if on_axis else outer).update(int(i) for i in ids)
    return sorted(axis), sorted(outer - axis)


class TestNumbering:
    @pytest.mark.parametrize(
        "config, spec",
        [("A", "M1"), ("A", "M3"), ("B1", "M1"), ("B1", "M3"), ("C1", "M1"), ("B2", "M2")],
    )
    @pytest.mark.parametrize("p", [1, 2, 5, 16])
    def test_matches_elementwise_numbering(self, config, spec, p):
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        space = FeSpace(m, p)
        elem_dofs, n_skeleton, n_dofs = _ref_numbering(m, p)
        assert np.array_equal(space.elem_dofs, elem_dofs)
        assert (space.n_skeleton, space.n_dofs) == (n_skeleton, n_dofs)
        axis, outer = _ref_boundary_dofs(m, p, elem_dofs)
        assert space.axis_dofs.tolist() == axis and space.outer_dofs.tolist() == outer

    @pytest.mark.parametrize(
        "config, spec",
        [("A", f"M{k}") for k in range(1, 5)]
        + [(c, f"M{k}") for c in ("B1", "B2", "C1", "C2") for k in range(1, 4)],
    )
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_boundary_dofs_from_geometry(self, config, spec, p):
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        space = FeSpace(m, p)
        axis, outer = _ref_boundary_dofs(m, p, space.elem_dofs)
        assert space.axis_dofs.tolist() == axis and space.outer_dofs.tolist() == outer
        assert len(axis) and len(outer)

    @pytest.mark.parametrize("config, spec", [("B1", "M1"), ("C1", "M1"), ("B2", "M2")])
    def test_axis_rectangles_are_bilinear(self, config, spec):
        # The axis rectangle's elements have axis-parallel corner boxes; at
        # geometry degree 4 they must still map (u, v) bilinearly.
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        C = m.nodes[m.corners]  # (n_elements, 4, 2), counterclockwise
        rect = np.flatnonzero(
            (C[:, 0, 0] == C[:, 3, 0]) & (C[:, 1, 0] == C[:, 2, 0])
            & (C[:, 0, 1] == C[:, 1, 1]) & (C[:, 3, 1] == C[:, 2, 1])
        )
        assert len(rect) == mesh._NR_CORE * mesh._NZ_CORE
        u, v = np.random.default_rng(7).random((2, 200))
        GV = tensor_lagrange(m.geomdeg, u, v)[0]
        got = np.einsum("kj,ejd->ekd", GV, m.nodes[m.elem_nodes[rect]])
        w = np.column_stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v])
        want = np.einsum("kc,ecd->ekd", w, C[rect])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(C))


class TestAssembly:
    def test_exact_complex_symmetry(self, mesh_b1, params5):
        sp = FeSpace(mesh_b1, 3)
        A = global_matrix(assemble(sp, params5, SourceSpec.dirichlet_radius()))
        d = (A - A.T).tocoo()
        assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0

    def test_energy_of_linear_field(self, params5):
        # For H = r on configuration A with uniform eps:
        # x^T A x = int 4 r - kappa^2 int r^3 over the half box [0,2]x[0,2]
        m = mesh.square_mesh_A(2)
        sp = FeSpace(m, 3)
        sys_ = assemble(sp, params5, SourceSpec(), uniform_eps=True)
        x = sp.dof_coords[:, 0].astype(np.complex128)
        k2 = params5.kappa**2
        expect = 16.0 - 8.0 * k2
        assert x @ (global_matrix(sys_) @ x) == pytest.approx(expect, rel=1e-12)

    def test_element_order_invariance(self, params5):
        import dataclasses

        m = mesh.square_mesh_A(1)
        rev = dataclasses.replace(
            m,
            elem_nodes=m.elem_nodes[::-1],
            conductor=m.conductor[::-1],
        )
        f1 = solve(assemble(FeSpace(m, 4), params5, SourceSpec.dirichlet_radius()))
        f2 = solve(assemble(FeSpace(rev, 4), params5, SourceSpec.dirichlet_radius()))
        pts = np.array([[0.5, 0.25], [1.5, -1.2], [0.9, 1.7]])
        assert np.max(np.abs(evaluate(f1, pts) - evaluate(f2, pts))) < 1e-10

    def test_nonpositive_jacobian_names_element(self, params5):
        m = mesh.square_mesh_A(1)
        m.elem_nodes[3] = m.elem_nodes[3][[1, 0, 3, 2]]  # mirrored in u
        with pytest.raises(AssemblyError, match=r"nonpositive Jacobian in element 3\b"):
            assemble(FeSpace(m, 2), params5, SourceSpec.dirichlet_radius())

    def test_quadrature_point_off_axis_names_element(self, params5):
        # Element 3 gets its own corner nodes, moved from r in [1, 2] to
        # [-1.5, -0.5]; its Jacobian stays positive.
        m = mesh.square_mesh_A(1)
        moved = m.nodes[m.elem_nodes[3]] - [2.5, 0.0]
        m.elem_nodes[3] = len(m.nodes) + np.arange(4)
        m.nodes = np.vstack([m.nodes, moved])
        with pytest.raises(AssemblyError, match=r"r <= 0 in element 3\b"):
            assemble(FeSpace(m, 2), params5, SourceSpec.dirichlet_radius())

    def test_galerkin_residual(self, mesh_b1, params5):
        sp = FeSpace(mesh_b1, 4)
        sys_ = assemble(sp, params5, SourceSpec.dirichlet_radius())
        f = solve(sys_)
        A = global_matrix(sys_)
        free = sp.free
        rhs = lifted_rhs(sys_)
        # rhs already contains -A g; full residual on free rows:
        r = (A @ f.coeffs)[free] - (rhs + A @ sys_.gvec)[free]
        scale = np.max(np.abs(rhs[free])) or 1.0
        assert np.max(np.abs(r)) / scale < 1e-9


class TestEliminationTree:
    """FeSpace.tree against a count over all skeleton DOFs at every node."""

    @pytest.mark.parametrize(
        "config, spec, p", [("A", "M2", 4), ("B1", "M1", 3), ("C1", "M1", 2), ("B2", "M2", 2)]
    )
    def test_eliminates_where_every_element_is_below(self, config, spec, p):
        space = FeSpace(mesh.mesh_for(config, spec, sigma_max=80.0), p)
        skel = space.elem_dofs[:, fem._skeleton_locals(p)]
        count = np.bincount(skel.ravel(), minlength=space.n_skeleton)
        below = []
        for dofs, n, children, lowest, keep in space.tree:
            if children:
                elems = np.concatenate([below[c] for c, _ in children])
            else:
                elems = np.array([lowest])
                assert np.array_equal(dofs, skel[lowest, keep])
            below.append(elems)
            here = np.bincount(skel[elems].ravel(), minlength=space.n_skeleton)[dofs] == count[dofs]
            assert np.all(here[:n]) and not np.any(here[n:])
        assert np.array_equal(np.sort(below[-1]), np.arange(space.mesh.n_elements))
        free = np.concatenate([dofs[:n] for dofs, n, *_ in space.tree])
        assert np.array_equal(np.sort(free), space.free[space.free < space.n_skeleton])

    # Three times sum n^3/3 + n^2 m + n m^2 over the fronts (n eliminated,
    # m passed up), with each cut the best in the middle half of its split
    # order, on the half meridian. The full meridian read 18,359,181,
    # 80,166,445, 334,719,801, 29,182,267, 278,432,973 and 213,616,977.
    WORK = [
        ("A", "M2", 80.0, 16, 5923152),
        ("A", "M3", 80.0, 16, 26519736),
        ("B1", "M3", 400.0, 16, 90077966),
        ("C1", "M3", 80.0, 8, 8055059),
        ("B2", "M3", 80.0, 16, 75391996),
        ("C2", "M2", 80.0, 16, 60235962),
    ]

    @pytest.mark.parametrize(
        "config, spec, sigma_max, p, work3", WORK, ids=[f"{c}-{s}-p{p}" for c, s, _, p, _ in WORK]
    )
    def test_front_work(self, config, spec, sigma_max, p, work3):
        space = FeSpace(mesh.mesh_for(config, spec, sigma_max=sigma_max), p)
        fronts = [(n, len(dofs) - n) for dofs, n, *_ in space.tree]
        assert sum(n**3 + 3 * n * n * m + 3 * n * m * m for n, m in fronts) == work3

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_node_eliminates_on_A(self, k):
        # A square block of elements has a repeated Fiedler eigenvalue; a
        # cut along any vector of its eigenspace can leave halves that share
        # no edge.
        space = FeSpace(mesh.square_mesh_A(k), 2)
        assert all(n for dofs, n, children, *_ in space.tree if children)

    @pytest.mark.parametrize("config, spec", [("B1", "M3"), ("B2", "M3"), ("C1", "M3"), ("C2", "M2")])
    def test_every_node_eliminates_on_curved_meshes(self, config, spec):
        # A cut at the median of a small set could leave as one half two
        # elements that share no facet, whose front then eliminated nothing
        # (1 to 4 such fronts per mesh); a cut anywhere in the middle half
        # scores lower than those.
        space = FeSpace(mesh.mesh_for(config, spec, sigma_max=80.0), 2)
        assert all(n for dofs, n, children, *_ in space.tree if children)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_best_cut_against_a_count_per_cut(self, data):
        # The prefix-count scores of _best_cut against the halves' shared
        # DOFs counted cut by cut, on random elements, orders and outside
        # holders.
        n = data.draw(st.integers(2, 12), label="n")
        n_dofs = data.draw(st.integers(4, 16), label="n_dofs")
        w = data.draw(st.integers(1, min(4, n_dofs)), label="w")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        held = np.array([rng.choice(n_dofs, w, replace=False) for _ in range(n)])
        here = np.bincount(held.ravel(), minlength=n_dofs)
        free_count = np.where(rng.random(n_dofs) < 0.2, 0, here + rng.integers(0, 3, n_dofs))
        orders = np.array([rng.permutation(n) for _ in range(data.draw(st.integers(1, 2)))])

        def shared(half):
            held_half = np.bincount(held[half].ravel(), minlength=n_dofs)
            return np.count_nonzero((0 < held_half) & (held_half < free_count))

        scores, quarter = [], -(-n // 4)
        for k, order in enumerate(orders):
            for h in range(quarter, n - quarter + 1):
                a, b = shared(order[:h]), shared(order[h:])
                scores.append((max(a, b), min(a, b), abs(h - (n + 1) // 2), h, k))
        *_, h, k = min(scores)
        assert fem._best_cut(orders, held, free_count) == (k, h)

    def test_tree_is_the_same_under_any_blas(self):
        # The tree's digest from child processes with one and two OpenBLAS
        # threads, with the default kernels and another type the CPU can
        # run, under which LAPACK may return another vector of a repeated
        # eigenspace and rounds otherwise. So are the digests of the GLL
        # points and Gauss rules, and of a geometry-degree-8 mesh and its
        # shape classes, which hold GLL points of degree 8.
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            blas = ""
        if "openblas" not in blas.lower():
            pytest.skip("numpy is not linked to OpenBLAS; its variables would change nothing")
        cases = ["A:M2:80:16", "A:M8:80:2", "B1:M3:400:16", "C1:M3:80:8", "C2:M2:80:16"]
        code = (
            "import hashlib, sys\n"
            "from skinfem import mesh\n"
            "from skinfem.fem import FeSpace\n"
            "for case in sys.argv[1:]:\n"
            "    config, spec, sigma_max, p = case.split(':')\n"
            "    m = mesh.mesh_for(config, spec, sigma_max=float(sigma_max))\n"
            "    tree = [(d.tolist(), n, [(c, pos.tolist()) for c, pos in ch], lo, k.tolist())\n"
            "            for d, n, ch, lo, k in FeSpace(m, int(p)).tree]\n"
            "    print(case, hashlib.sha256(repr(tree).encode()).hexdigest())\n"
            "from skinfem import basis\n"
            "gll = [basis.gll_points(p).tolist() for p in range(1, 21)]\n"
            "gauss = [[a.tolist() for a in basis.gauss_rule(n)] for n in range(1, 24)]\n"
            "mesh.GEOM_DEG_CURVED = 8\n"
            "m = mesh.mesh_for('B1', 'M3', sigma_max=400.0)\n"
            "deg8 = (m.nodes.tolist(), m.elem_nodes.tolist(), FeSpace(m, 2).elem_shape.tolist())\n"
            "for name, x in [('gll', gll), ('gauss', gauss), ('deg8', deg8)]:\n"
            "    print(name, hashlib.sha256(repr(x).encode()).hexdigest())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        pkg_parent = str(Path(fem.__file__).resolve().parents[1])
        env["PYTHONPATH"] = pkg_parent + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        envs = [
            {**env, "OPENBLAS_NUM_THREADS": threads, **core}
            for core in [{}] + [{"OPENBLAS_CORETYPE": c} for c in _safe_openblas_kernels()]
            for threads in ("1", "2")
        ]
        # Two children at a time, one of each thread count: two children with
        # two OpenBLAS threads each, which spin between calls, would slow
        # each other down on a two-CPU machine.
        runs = []
        for k in range(0, len(envs), 2):
            procs = [
                subprocess.Popen(
                    [sys.executable, "-c", code, *cases], env=e, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                for e in envs[k : k + 2]
            ]
            runs += [(*proc.communicate(timeout=120), proc.returncode) for proc in procs]
        for out, err, returncode in runs:
            assert returncode == 0 and len(out.splitlines()) == len(cases) + 3, err
        digests = {out for out, _, _ in runs}
        assert len(digests) == 1, digests


def _safe_openblas_kernels() -> list:
    """The widest OpenBLAS x86 kernel type that the CPU can run, as a list
    of at most one: Sandybridge needs AVX, Nehalem SSE4.2; a type the CPU
    lacks dies of an illegal instruction. Empty where /proc/cpuinfo lists
    no x86 flags, as off x86-64 Linux."""
    try:
        flags = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return []
    flags = set(flags.group(1).split()) if flags else set()
    return [core for core, flag in (("Sandybridge", "avx"), ("Nehalem", "sse4_2")) if flag in flags][:1]


class TestCondensation:
    """solve() against an uncondensed direct solve of the same system."""

    CASES = [(c, "M1", p) for p in (1, 2, 4, 8) for c in ("A", "B1", "C1")]
    CASES += [("A", "M3", 8), ("B2", "M2", 8)]

    @pytest.mark.parametrize(
        "config, spec, p", CASES,
        ids=[f"{p}-{c}" + (f"-{s}" if s != "M1" else "") for c, s, p in CASES],
    )
    def test_matches_global_solve(self, params5, config, spec, p):
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        space = FeSpace(m, p)
        if p == 1:
            assert space.n_skeleton == space.n_dofs  # nothing to condense
        src = cli.STUDY_TABLE[config].source
        sys_ = assemble(space, params5, src)
        # Global CSR from the class matrices over the DOF table; scipy sums
        # the duplicates.
        dofs = space.elem_dofs
        n2 = dofs.shape[1]
        rows = np.repeat(dofs, n2, axis=1).ravel()
        cols = np.tile(dofs, (1, n2)).ravel()
        k = space.elem_shape
        S, M = unpacked(sys_.stiffness), unpacked(sys_.mass)
        Ae = coefficients(sys_)[:, None, None] * S[k] - sys_.params.kappa**2 * M[k]
        A = sparse.csr_matrix((Ae.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2)
        free = space.free
        ref = sys_.gvec.copy()
        ref[free] = spla.spsolve(A[free][:, free].tocsc(), lifted_rhs(sys_)[free])
        got = solve(sys_).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_interior_block_names_element(self, mesh_a2, params5):
        # Element 5's block is its shape class's, so every member of the
        # class has a singular block; the lowest-numbered one is named.
        sys_ = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec.dirichlet_radius())
        il = fem._interior_locals(3)
        k = sys_.space.elem_shape[5]
        full = kernels.full_index(16)
        sys_.stiffness[k][full[np.ix_(il, il)]] = 0.0
        sys_.mass[k][full[np.ix_(il, il)]] = 0.0
        lowest = np.flatnonzero(sys_.space.elem_shape == k)[0]
        assert lowest < 5
        with pytest.raises(AssemblyError, match=rf"element {lowest}\b"):
            solve(sys_)

    def test_singular_skeleton_names_element(self, mesh_a2, params5):
        # Regular interior blocks, zero Schur complements: the first front
        # that eliminates anything is singular.
        space = FeSpace(mesh_a2, 3)
        sys_ = assemble(space, params5, SourceSpec.dirichlet_radius())
        bl = fem._skeleton_locals(3)
        full = kernels.full_index(16)
        for a in (sys_.stiffness, sys_.mass):
            a[:, full[bl, :]] = 0.0
            a[:, full[:, bl]] = 0.0
        lowest = next(node[3] for node in space.tree if node[1])  # first front with eliminations
        with pytest.raises(AssemblyError, match=rf"singular front at element {lowest}\b"):
            solve(sys_)

    def test_non_finite_solution_raises_without_rhs(self, mesh_a2, params5):
        # No source: the free rhs is zero and the residual check is skipped.
        sys_ = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec())
        assert not np.any(lifted_rhs(sys_))
        bl = fem._skeleton_locals(3)
        sys_.stiffness[:, kernels.full_index(16)[bl[0], bl[0]]] = np.nan
        with pytest.raises(AssemblyError, match="non-finite"):
            solve(sys_)

    def test_all_skeleton_dofs_prescribed(self, params5):
        # One element with four outer facets, off the symmetry plane: the
        # free skeleton is empty and only the interior is solved for. H = r
        # is exact in Q_3.
        m = mesh.QuadMesh(
            nodes=np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]]),
            elem_nodes=np.array([[0, 1, 2, 3]]),
            geomdeg=1,
            conductor=np.array([True]),
        )
        space = FeSpace(m, 3)
        assert np.all(space.constrained[: space.n_skeleton])
        src = SourceSpec.manufactured(params5.kappa)
        field = solve(assemble(space, params5, src, uniform_eps=True))
        r = space.dof_coords[:, 0]
        assert np.max(np.abs(field.coeffs - r)) <= 1e-12

    def test_full_residual_checked(self, mesh_a2, params5, monkeypatch):
        sys_ = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec.dirichlet_radius())
        eliminate = fem._eliminate
        monkeypatch.setattr(fem, "_eliminate", lambda *args: eliminate(*args) * (1 + 1e-6))
        with pytest.raises(AssemblyError, match="residual"):
            solve(sys_)

    def test_residual_checked_on_conductor_rows(self, monkeypatch):
        # C2 at sigma 400: the conductor shell's coefficient, |1/eps| =
        # 6.6e-7, makes its rows tiny beside the dielectric's. A skeleton
        # scaled by 1 + 1e-8 read 8e-15 against ||A|| ||y|| + ||b|| over all
        # rows and passed; against each row's own scale it reads 2.3e-9.
        space = FeSpace(mesh.mesh_for("C2", "M3", sigma_max=400.0), 8)
        sys_ = assemble(space, physics.PhysicalParams(sigma=400.0), SourceSpec.dirichlet_radius())
        eliminate = fem._eliminate
        monkeypatch.setattr(fem, "_eliminate", lambda *args: eliminate(*args) * (1 + 1e-8))
        with pytest.raises(AssemblyError, match="residual"):
            solve(sys_)

    def test_interior_source_at_p20_passes(self):
        # Zero Dirichlet data and an interior source: max|b| over the free
        # rows is far below ||A|| ||y||. max|A y - b| / max|b| read 1.22e-10
        # here, over its former bound of 1e-10; the backward error reads
        # 1.8e-16.
        space = FeSpace(mesh.mesh_for("C2", "M2", sigma_max=80.0), 20)
        system = assemble(space, physics.PhysicalParams(sigma=80.0), SourceSpec.config_C1())
        assert np.all(np.isfinite(solve(system).coeffs))


class TestSigmaReuse:
    """One assembly solved at another sigma against a fresh assembly at it."""

    @pytest.mark.parametrize("uniform_eps", [False, True], ids=["eps", "uniform"])
    @pytest.mark.parametrize("config", ["A", "B1", "C1"])
    @pytest.mark.parametrize("p", [2, 8])
    def test_at_matches_fresh_assembly(self, config, p, uniform_eps):
        space = FeSpace(mesh.mesh_for(config, "M1", sigma_max=80.0), p)
        src = cli.STUDY_TABLE[config].source
        pa = physics.PhysicalParams(sigma=5.0)
        pb = physics.PhysicalParams(sigma=80.0)
        sys_a = assemble(space, pa, src, uniform_eps=uniform_eps)
        ref = solve(assemble(space, pb, src, uniform_eps=uniform_eps)).coeffs
        got = fem.solve_all(sys_a, [pb])[0].coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        if uniform_eps:  # no coefficient depends on sigma
            assert np.array_equal(got, solve(sys_a).coeffs)


SOLVE_ALL_CASES = [
    ("B1", "M3", 400.0, 16, (80.0, 200.0, 400.0), False),
    ("C1", "M3", 80.0, 8, (5.0, 80.0), False),
    ("A", "M2", 80.0, 12, (5.0, 80.0), True),
    ("A", "M2", 200.0, 8, (80.0, 80.0, 200.0), False),
]


class TestSolveAll:
    """Every sigma of one assembly in one `solve_all` call."""

    @pytest.mark.parametrize(
        "config, spec, sigma_max, p, sigmas, uniform_eps", SOLVE_ALL_CASES,
        ids=[f"{c}-{s}-p{p}" + ("-uniform" if u else "") for c, s, _, p, _, u in SOLVE_ALL_CASES],
    )
    def test_bitwise_equal_to_solve(self, config, spec, sigma_max, p, sigmas, uniform_eps):
        space = FeSpace(mesh.mesh_for(config, spec, sigma_max=sigma_max), p)
        src = cli.STUDY_TABLE[config].source
        params = [physics.PhysicalParams(sigma=s) for s in sigmas]
        system = assemble(space, params[0], src, uniform_eps=uniform_eps)
        fields = fem.solve_all(system, params)
        assert len(fields) == len(params)
        for q, f in zip(params, fields):
            assert f.space is space
            ref = solve(assemble(space, q, src, uniform_eps=uniform_eps))
            assert np.array_equal(f.coeffs, ref.coeffs)

    def test_sigma_free_groups_condensed_once(self, mesh_a2, monkeypatch):
        # One interior solve per group and params, but a dielectric group,
        # whose matrix is the same at every sigma, is solved once.
        space = FeSpace(mesh_a2, 4)
        system = assemble(space, physics.PhysicalParams(sigma=5.0), SourceSpec.dirichlet_radius())
        params = [physics.PhysicalParams(sigma=s) for s in (5.0, 20.0, 80.0)]
        calls = []
        linalg_solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape)
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        singles = [fem.solve_all(system, [q])[0] for q in params]
        per_params = len(calls)
        calls.clear()
        fields = fem.solve_all(system, params)
        dielectric = len(np.unique(space.elem_shape[~mesh_a2.conductor]))
        assert dielectric > 0
        assert len(calls) == per_params - 2 * dielectric
        for a, b in zip(singles, fields):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_no_systems(self, mesh_a2, params5):
        system = assemble(FeSpace(mesh_a2, 2), params5, SourceSpec.dirichlet_radius())
        assert fem.solve_all(system, []) == []

    def test_other_kappa_raises(self, mesh_a2, params5):
        # kappa, set by omega, scales the mass part, which is assembled once.
        system = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec.dirichlet_radius())
        other = physics.PhysicalParams(sigma=5.0, omega=2.0 * params5.omega)
        with pytest.raises(ValueError, match=r"params 2: kappa\^2 = .* differs from the assembled"):
            fem.solve_all(system, [params5, other, other])

    def test_failing_second_system_is_named(self, mesh_a2, params5, monkeypatch):
        # The second params' skeleton solution gets a NaN.
        system = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec.dirichlet_radius())
        eliminate, calls = fem._eliminate, []

        def poisoned(*args):
            calls.append(1)
            y = eliminate(*args)
            if len(calls) == 2:
                y[5] = np.nan
            return y

        monkeypatch.setattr(fem, "_eliminate", poisoned)
        with pytest.raises(AssemblyError, match=r"non-finite solution of system 2\b"):
            fem.solve_all(system, [params5, physics.PhysicalParams(sigma=20.0)])

    def test_failing_backward_error_is_named(self, mesh_a2, params5, monkeypatch):
        # The second params' skeleton scaled by 1 + 1e-6 after its solve.
        system = assemble(FeSpace(mesh_a2, 3), params5, SourceSpec.dirichlet_radius())
        eliminate, calls = fem._eliminate, []

        def scaled(*args):
            calls.append(1)
            return eliminate(*args) * (1 + 1e-6 * (len(calls) == 2))

        monkeypatch.setattr(fem, "_eliminate", scaled)
        params = [physics.PhysicalParams(sigma=s) for s in (5.0, 20.0, 80.0)]
        with pytest.raises(AssemblyError, match=r"solver residual of system 2\b"):
            fem.solve_all(system, params)


def _per_element_arrays(space, source):
    """S, M and loads of every element from a per-element loop, the matrices
    from the dense kernel that `assemble` ran before sum factorization."""
    m, p = space.mesh, space.p
    nq1 = p + 3
    n2 = (p + 1) ** 2
    xq, w2 = fem._quad_points(nq1)
    phi = tensor_lagrange_grid(p, xq)[0]
    nel = m.n_elements
    S, M, be = np.empty((nel, n2, n2)), np.empty((nel, n2, n2)), np.zeros((nel, n2))
    X = m.nodes[m.elem_nodes]
    rq, zq, xu, xv, yu, yv, det = fem._geometry_eval(X, *tensor_lagrange_grid(m.geomdeg, xq))
    wq = w2 * det
    for e in range(nel):
        S[e], M[e] = dense_element_matrix(p, *(a[e] for a in (rq, wq, xu, xv, yu, yv, det)))
        if source.interior_f is None:
            continue
        inside = (
            [bool(source.support(float(r), float(z))) for r, z in m.nodes[m.corners[e]]]
            if source.support is not None
            else [False]
        )
        if any(inside) and not all(inside):
            sxq, sw2 = fem._quad_points(nq1, 4)
            su, sv = (t.ravel() for t in np.meshgrid(sxq, sxq))
            srq, szq, _, _, _, _, sdet = fem._geometry_eval(
                X[e], *tensor_lagrange(m.geomdeg, su, sv)
            )
            fq = source.interior_f(srq, szq)
            be[e] = tensor_lagrange(p, su, sv)[0].T @ (sw2 * sdet * srq * fq)
        else:
            be[e] = phi.T @ (wq[e] * rq[e] * source.interior_f(rq[e], zq[e]))
    return S, M, be


def _condensed_per_element(system, S, M):
    """Coefficients from a static condensation that eliminates every
    element's interior on its own, from per-element S and M."""
    space = system.space
    dofs, n, ns = space.elem_dofs, space.n_dofs, space.n_skeleton
    il = fem._interior_locals(space.p)
    bl = np.setdiff1d(np.arange(dofs.shape[1]), il)
    A = coefficients(system)[:, None, None] * S - system.params.kappa**2 * M
    rhs = fem._scatter(dofs, system.loads - np.einsum("eij,ej->ei", A, system.gvec[dofs]), n)
    schur, rhs_s, X_b, x_r = [], rhs[:ns].copy(), [], []
    for e in range(len(dofs)):
        Aii, Aib, Abi = A[e][np.ix_(il, il)], A[e][np.ix_(il, bl)], A[e][np.ix_(bl, il)]
        X_b.append(np.linalg.solve(Aii, Aib))
        x_r.append(np.linalg.solve(Aii, rhs[dofs[e, il]]))
        schur.append(A[e][np.ix_(bl, bl)] - Abi @ X_b[e])
        np.subtract.at(rhs_s, dofs[e, bl], Abi @ x_r[e])
    skel = dofs[:, bl]
    rows, cols = _element_triplets(skel)
    K = sparse.csr_matrix((np.ravel(schur), (rows, cols)), shape=(ns, ns))
    free_s = space.free[space.free < ns]
    y = np.zeros(n, dtype=np.complex128)
    y[free_s] = spla.spsolve(K[free_s][:, free_s].tocsc(), rhs_s[free_s])
    for e in range(len(dofs)):
        y[dofs[e, il]] = x_r[e] - X_b[e] @ y[skel[e]]
    return system.gvec + y


def _per_element(space, mats):
    """mats[elem_shape[e]], the packed class matrices, expanded for every
    element e."""
    return unpacked(mats)[space.elem_shape]


def _kernel_matrices(m, p, elems):
    """S and M, (len(elems), n, n), of the elements elems from the kernel on
    their own geometry."""
    xq, w2 = fem._quad_points(p + 3)
    X = m.nodes[m.elem_nodes[elems]]
    rq, _, xu, xv, yu, yv, det = fem._geometry_eval(X, *tensor_lagrange_grid(m.geomdeg, xq))
    V, D = lagrange_matrix(gll_points(p), xq), lagrange_deriv_matrix(gll_points(p), xq)
    return [unpacked(a) for a in kernels.element_matrix(V, D, rq, w2 * det, xu, xv, yu, yv, det)]


class TestShapeClasses:
    """Per-class element arrays against the per-element dense kernel loop."""

    CASES = [("A", "M1"), ("A", "M2"), ("A", "M3"), ("B1", "M1"), ("C1", "M1"), ("B2", "M2")]

    @pytest.fixture(scope="class", params=[(c, s, p) for c, s in CASES for p in (2, 8)], ids=str)
    def case(self, request):
        config, spec, p = request.param
        space = FeSpace(mesh.mesh_for(config, spec, sigma_max=80.0), p)
        src = cli.STUDY_TABLE[config].source
        system = assemble(space, physics.PhysicalParams(sigma=5.0), src)
        return system, _per_element_arrays(space, src)

    def test_element_matrices_and_loads(self, case):
        # Every member's class matrices against its own dense matrices.
        system, (S, M, be) = case
        space = system.space
        k = space.elem_shape
        assert k.shape == (space.mesh.n_elements,) and k.dtype == np.int64
        assert len(system.stiffness) == len(system.mass) == k.max() + 1
        for got, want in ((system.stiffness, S), (system.mass, M)):
            err = np.max(np.abs(_per_element(space, got) - want), axis=(1, 2))
            assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))
        assert np.max(np.abs(system.loads - be)) <= 1e-13 * max(np.max(np.abs(be)), 1e-300)

    def test_packed_class_matrices_only(self):
        # The sweep-b1 system: S and M keep one triangle per class, and
        # neither assemble nor solve allocates a full (73, n, n) stack of
        # either (48.8 MB; solve's own peak is 34.7 MB).
        space = FeSpace(mesh.mesh_for("B1", "M3", sigma_max=400.0), 16)
        n = 17**2
        params, src = physics.PhysicalParams(sigma=80.0), SourceSpec.dirichlet_radius()
        tracemalloc.start()
        try:
            system = assemble(space, params, src)
            packed = system.stiffness.nbytes + system.mass.nbytes
            assemble_peak = tracemalloc.get_traced_memory()[1] - packed
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve(system)
            solve_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert system.stiffness.shape == system.mass.shape == (73, n * (n + 1) // 2)
        assert assemble_peak < packed / 2 and solve_peak < packed

    def test_packed_schur_blocks(self):
        # The sweep-b1 system: each group's Schur complement is kept as its
        # packed upper triangle, and the tree's fronts are those of the
        # middle-half cuts. solve's traced peak reads 34.7 MB; with a full
        # (73, 64, 64) Schur stack and median cuts it read 40.1 MB. The
        # bound leaves a 5% margin.
        space = FeSpace(mesh.mesh_for("B1", "M3", sigma_max=400.0), 16)
        system = assemble(space, physics.PhysicalParams(sigma=80.0), SourceSpec.dirichlet_radius())
        tracemalloc.start()
        try:
            solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36.5e6

    def test_solve_matches_per_element_condensation(self, case):
        system, (S, M, _) = case
        want = _condensed_per_element(system, S, M)
        got = solve(system).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec, n_shapes", [("M1", 2), ("M2", 4), ("M3", 6)])
    def test_class_counts_on_A(self, spec, n_shapes):
        # One class per column of squares: z-translates share a class.
        m = mesh.mesh_for("A", spec)
        k = fem._shape_classes(m)
        column = np.unique(m.nodes[m.corners[:, 0], 0], return_inverse=True)[1]
        assert np.array_equal(k, column)
        assert np.array_equal(np.unique(k, return_index=True)[1], np.arange(n_shapes))

    # Classes of z-translates on the half meridian. The full meridian had
    # 143, 163 and 113 such classes on B1 M3, B1 M6 and C1 M3, and its keys
    # up to a mirror image z -> -z gave 73, 84, 60, 58 and 62.
    @pytest.mark.parametrize(
        "config, spec, sigma_max, n_shapes",
        [
            ("A", "M4", 80.0, 8),
            ("B1", "M3", 400.0, 73),
            ("B1", "M6", 80.0, 83),
            ("B2", "M2", 80.0, 58),
            ("C1", "M3", 80.0, 58),
            ("C2", "M3", 80.0, 58),
        ],
    )
    def test_class_counts(self, config, spec, sigma_max, n_shapes):
        k = fem._shape_classes(mesh.mesh_for(config, spec, sigma_max=sigma_max))
        assert k.max() + 1 == n_shapes

    # Members are z-translates of their representative: they agree to
    # 4.6e-15 relative at most here (C2 M3 p=20). The mirror images that the
    # whole meridian's classes held read up to 4.2e-12 (B1 M6 p=20), under
    # a bound of 1e-11.
    @pytest.mark.parametrize("p", [4, 20])
    @pytest.mark.parametrize(
        "config, spec, sigma_max",
        [("A", "M2", 80.0), ("B1", "M3", 400.0), ("B1", "M6", 80.0), ("B2", "M2", 80.0),
         ("C1", "M3", 80.0), ("C2", "M3", 80.0)],
    )
    def test_member_matrices_match_representative(self, config, spec, sigma_max, p):
        # Each member's S and M from the kernel on its own geometry, without
        # the class table, against its representative's.
        m = mesh.mesh_for(config, spec, sigma_max=sigma_max)
        space = FeSpace(m, p)
        k = space.elem_shape
        first = np.unique(k, return_index=True)[1]
        members = np.flatnonzero(first[k] != np.arange(m.n_elements))
        mine = _kernel_matrices(m, p, members)
        theirs = _kernel_matrices(m, p, first[k[members]])
        for own, rep in zip(mine, theirs):
            err = np.max(np.abs(own - rep), axis=(1, 2))
            assert np.all(err <= 1e-13 * np.max(np.abs(own), axis=(1, 2)))

    # Shifts of the order of the mesh size: a much larger shift rounds the
    # nodes of the thin boundary-layer elements by more than 1e-13 of their
    # size, whatever the classes. A shift may move a rounded key across a
    # grid step and so regroup the elements; only their matrices are kept.
    @pytest.mark.parametrize("dz", [-3.7, 1e-3 / 3, 0.1, np.pi, 25.0 / 7])
    def test_z_shift_keeps_element_matrices(self, dz):
        m = mesh.mesh_for("B1", "M1", sigma_max=80.0)
        moved = dataclasses.replace(m, nodes=m.nodes + [0.0, dz])
        src = SourceSpec.dirichlet_radius()
        a, b = (assemble(FeSpace(x, 4), physics.PhysicalParams(sigma=5.0), src) for x in (m, moved))
        for x, y in ((a.stiffness, b.stiffness), (a.mass, b.mass)):
            err = np.max(np.abs(_per_element(a.space, x) - _per_element(b.space, y)))
            assert err <= 1e-13 * np.max(np.abs(x))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_z_shift_never_merges(self, dz):
        # The classes of A M3 (one per column of squares) differ by far more
        # than a grid step, so a shift can split a class, by moving a rounded
        # key across a step for some members, but never merge two; every
        # element keeps its matrices.
        m = mesh.mesh_for("A", "M3")
        moved = dataclasses.replace(m, nodes=m.nodes + [0.0, dz])
        src = SourceSpec.dirichlet_radius()
        a, b = (assemble(FeSpace(x, 2), physics.PhysicalParams(sigma=5.0), src) for x in (m, moved))
        pairs = np.unique(np.column_stack([a.space.elem_shape, b.space.elem_shape]), axis=0)
        assert len(np.unique(pairs[:, 1])) == len(pairs)  # refines a's classes
        for x, y in ((a.stiffness, b.stiffness), (a.mass, b.mass)):
            err = np.max(np.abs(_per_element(a.space, x) - _per_element(b.space, y)))
            assert err <= 1e-13 * np.max(np.abs(x))

    def test_moved_node_splits_its_element_off(self):
        # Element 9 of A M2 gets its own copy of its corners, and its corner
        # at (u, v) = (1, 1), an interior mesh node, moves by 1e-9 in r.
        m = mesh.square_mesh_A(2)
        before = fem._shape_classes(m)
        nodes = m.nodes[m.elem_nodes[9]]
        nodes[3, 0] += 1e-9
        m.elem_nodes[9] = len(m.nodes) + np.arange(4)
        m.nodes = np.vstack([m.nodes, nodes])
        after = fem._shape_classes(m)
        assert after.max() + 1 == before.max() + 2
        assert np.sum(after == after[9]) == 1
        others = np.arange(m.n_elements) != 9
        pairs = np.unique(np.column_stack([before[others], after[others]]), axis=0)
        assert len(pairs) == before.max() + 1  # the others keep their classes


class TestManufactured:
    @pytest.mark.parametrize("p", [1, 4, 10])
    def test_exact_linear_solution(self, params5, p):
        m = mesh.square_mesh_A(2)
        sp = FeSpace(m, p)
        src = SourceSpec.manufactured(params5.kappa)
        f = solve(assemble(sp, params5, src, uniform_eps=True))
        rng = np.random.default_rng(42)
        pts = np.column_stack([2.0 * rng.random(50), 4.0 * rng.random(50) - 2.0])
        vals = evaluate(f, pts)
        assert np.max(np.abs(vals - pts[:, 0])) <= 1e-10

    def test_exact_on_curved_mesh(self, params5):
        m = mesh.mesh_for("B1", "M1", sigma_max=80.0)
        sp = FeSpace(m, 4)
        src = SourceSpec.manufactured(params5.kappa)
        f = solve(assemble(sp, params5, src, uniform_eps=True))
        err = np.max(np.abs(f.coeffs - sp.dof_coords[:, 0]))
        assert err <= 1e-9

    @staticmethod
    def _smooth_nodal_error(m, p, params):
        """Largest nodal error for H = sin r cos z under uniform eps, with
        -(d_rr + d_r / r - 1 / r^2 + d_zz) H - kappa^2 H as its source."""
        k2 = params.kappa**2
        src = SourceSpec(
            boundary_g=lambda r, z: np.sin(r) * np.cos(z),
            interior_f=lambda r, z: (
                2.0 * np.sin(r) + np.sin(r) / r**2 - np.cos(r) / r - k2 * np.sin(r)
            ) * np.cos(z),
        )
        sp = FeSpace(m, p)
        f = solve(assemble(sp, params, src, uniform_eps=True))
        r, z = sp.dof_coords.T
        return np.max(np.abs(f.coeffs - np.sin(r) * np.cos(z)))

    @pytest.mark.parametrize("config", ["A", "B1", "C1"])
    def test_smooth_solution_converges_spectrally(self, params5, config):
        # A non-polynomial solution, so the error is the discretization's and
        # not a reproduction of the code's own history. Measured at p = 4 and
        # 8: A M1 2.0e-5 and 3.8e-11, B1 M1 and C1 M1 4.2e-5 and 1.0e-9, a
        # fall of 5e5 and 4e4 against the 1e4 asserted (margin 4 on B1/C1).
        m = mesh.mesh_for(config, "M1", sigma_max=80.0)
        e4, e8 = (self._smooth_nodal_error(m, p, params5) for p in (4, 8))
        assert e8 <= 1e-4 * e4
        if config == "A":
            # 1.9e-14 measured at p = 12: margin 500 under 1e-11.
            assert self._smooth_nodal_error(m, 12, params5) < 1e-11


class TestEvaluation:
    def test_inverse_forward_roundtrip(self, mesh_b1):
        rng = np.random.default_rng(3)
        elems = rng.integers(0, mesh_b1.n_elements, 10)
        uv0 = rng.random((10, 2))
        pts = np.array([
            tensor_lagrange(mesh_b1.geomdeg, u0, v0)[0][0] @ mesh_b1.nodes[mesh_b1.elem_nodes[e]]
            for e, (u0, v0) in zip(elems, uv0)
        ])
        uv = inverse_map(mesh_b1, elems, pts)
        assert np.allclose(uv, uv0, rtol=0, atol=1e-10)

    def test_continuity_across_facets(self, mesh_b1, params5):
        sp = FeSpace(mesh_b1, 4)
        f = solve(assemble(sp, params5, SourceSpec.dirichlet_radius()))
        adj = facet_adjacency(mesh_b1)
        checked = 0
        for owners in adj.values():
            if len(owners) != 2 or checked >= 10:
                continue
            (e0, f0), (e1, f1) = owners
            pts = mesh_b1.nodes[face_node_ids(mesh_b1, e0, f0)]
            mid = pts[len(pts) // 2]
            vals = []
            for e in (e0, e1):
                (u, v), = inverse_map(mesh_b1, [e], mid)
                assert np.isfinite(u) and np.isfinite(v)
                vals.append(tensor_lagrange(4, u, v)[0][0] @ f.coeffs[sp.elem_dofs[e]])
            assert abs(vals[0] - vals[1]) < 1e-10
            checked += 1
        assert checked > 0

    def test_locator_does_not_pin_mesh(self, params5):
        m = mesh.square_mesh_A(1)
        f = solve(assemble(FeSpace(m, 2), params5, SourceSpec.dirichlet_radius()))
        evaluate(f, np.array([[0.5, 0.5], [1.5, -1.0]]))
        ref = weakref.ref(m)
        del f, m
        gc.collect()
        assert ref() is None

    def test_outside_raises(self, mesh_a2, params5):
        sp = FeSpace(mesh_a2, 2)
        f = solve(assemble(sp, params5, SourceSpec.dirichlet_radius()))
        with pytest.raises(PointLocationError):
            evaluate(f, np.array([3.5, 0.0]))


def band_points(config, sigma, n=4000, seed=0):
    """n random points of the conductor within 3 ell of the B/C interface."""
    g = geometry.CONFIGURATIONS[config]
    rng = np.random.default_rng(seed)
    phi, h = np.pi * rng.random(n), 3.0 * physics.PhysicalParams(sigma=sigma).ell * rng.random(n)
    inner = geometry.Ellipse(g.a, g.c)
    (r, z), (nr, nz) = inner.point(phi), inner.inward_normal(phi)
    side = -1.0 if g.shell else 1.0  # a shell conductor lies outside the interface
    return np.column_stack([r + side * h * nr, z + side * h * nz])


class TestBandLocation:
    """Points inside the thin curved elements of the skin band, where
    Newton from the element's centre can leave the element."""

    def test_point_in_band_element(self):
        m = mesh.mesh_for("B1", "M3", sigma_max=80.0)
        pt = np.array([1.99326, 0.00032])
        elem, u, v = locate(m, pt[None])
        assert elem[0] == 4
        back = tensor_lagrange(m.geomdeg, u, v)[0] @ m.nodes[m.elem_nodes[4]]
        assert np.max(np.abs(back - pt)) <= 1e-12

    @pytest.mark.parametrize("config", ["B1", "B2", "C1", "C2"])
    def test_band_points_located(self, config):
        # At the parent commit 92, 218, 135 and 320 of these were missed.
        m = mesh.mesh_for(config, "M3", sigma_max=400.0)
        assert np.all(locate(m, band_points(config, 400.0))[0] >= 0)


# TestBatchedLocation checks the batched locator against the per-point
# scalar one, whose (elem, u, v) at locate_points(mesh) are stored in
# tests/golden/locate by tests/golden/generate.py.

LOCATE_CASES = [("A", "M2"), ("B1", "M2"), ("C1", "M1")]
GOLDEN_LOCATE = Path(__file__).resolve().parent / "golden" / "locate"


def locate_points(m):
    """An 81x81 grid over the mesh's box (5% margin), then every mesh node."""
    lo, hi = m.nodes.min(axis=0), m.nodes.max(axis=0)
    lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    R, Z = np.meshgrid(np.linspace(lo[0], hi[0], 81), np.linspace(lo[1], hi[1], 81))
    return np.vstack([np.column_stack([R.ravel(), Z.ravel()]), m.nodes])


class TestBatchedLocation:
    """Batched locate/evaluate against the stored per-point reference, on
    81x81 grids over each mesh's box (5% margin) plus every mesh node."""

    @pytest.fixture(scope="class", params=LOCATE_CASES, ids=str)
    def case(self, request):
        config, spec = request.param
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        src = cli.STUDY_TABLE[config].source
        f = solve(assemble(FeSpace(m, 4), physics.PhysicalParams(sigma=20.0), src))
        pts = locate_points(m)
        ref = np.loadtxt(GOLDEN_LOCATE / f"{config}_{spec}.csv", delimiter=",", skiprows=1)
        assert len(ref) == len(pts)
        elem, inside = ref[:, 0].astype(np.int64), ref[:, 0] >= 0
        phi = tensor_lagrange(f.space.p, ref[inside, 1], ref[inside, 2])[0]
        c = f.coeffs[f.space.elem_dofs[elem[inside]]]
        want = np.full(len(pts), np.nan, dtype=np.complex128)
        want[inside] = np.matmul(phi[:, None, :], c[:, :, None])[:, 0, 0]
        return f, pts, ref, want

    def test_same_elements_and_coordinates(self, case):
        f, pts, ref, _ = case
        elem, u, v = locate(f.space.mesh, pts)
        assert np.array_equal(elem, ref[:, 0])
        inside = elem >= 0
        assert np.max(np.abs(np.column_stack([u, v])[inside] - ref[inside, 1:])) <= 1e-12

    def test_same_values(self, case):
        f, pts, _, want = case
        inside = ~np.isnan(want)
        got = evaluate(f, pts[inside])
        assert np.max(np.abs(got - want[inside])) <= 1e-12 * np.max(np.abs(want[inside]))

    def test_field_map_matches(self, case):
        f, pts, _, want = case
        grid, want = pts[: 81 * 81], want[: 81 * 81]
        lo, hi = grid.min(axis=0), grid.max(axis=0)
        _, _, vals = postprocess.imag_field_map(f, (lo[0], hi[0]), (lo[1], hi[1]), 81, 81)
        vals = vals.ravel()
        inside = ~np.isnan(want)
        assert np.array_equal(np.isnan(vals), ~inside)
        err = np.abs(vals[inside] - want[inside].imag)
        assert np.max(err) <= 1e-12 * np.max(np.abs(want[inside].imag))

    def test_evaluate_names_first_outside_point(self, case):
        f, pts, ref, _ = case
        outside = np.flatnonzero(ref[:, 0] < 0)
        assert len(outside)
        r, z = pts[outside[0]]
        with pytest.raises(PointLocationError, match=re.escape(f"({r}, {z})")):
            evaluate(f, pts)


def test_field_decays_into_the_b1_core():
    # (0.7, -0.2) lies 0.72 inside the interface (r/2)^2 + z^2 = 1, 28 skin
    # depths (ell = 0.0258 at sigma = 80): |H| there is about e^-28 = 7e-13
    # of its interface value, which is of order 1.
    m = mesh.mesh_for("B1", "M2", sigma_max=400.0)
    params = physics.PhysicalParams(sigma=80.0)
    system = assemble(FeSpace(m, 8), params, SourceSpec.dirichlet_radius())
    assert abs(evaluate(solve(system), np.array([0.7, -0.2]))) <= 1e-9


class TestSources:
    def test_interior_source_cut_elements(self, params5):
        # discontinuous indicator: assembly must not fail, solution nonzero
        m = mesh.mesh_for("C1", "M1", sigma_max=80.0)
        sp = FeSpace(m, 3)
        f = solve(assemble(sp, params5, SourceSpec.config_C1()))
        assert np.max(np.abs(f.coeffs)) > 0
        # outer boundary is homogeneous
        assert np.max(np.abs(f.coeffs[sp.outer_dofs])) == 0.0

    @pytest.mark.parametrize(
        "name, source",
        [
            ("boundary_g", SourceSpec(boundary_g=lambda r, z: r + z)),
            ("interior_f", SourceSpec(interior_f=lambda r, z: r * z)),
            ("support", SourceSpec(interior_f=lambda r, z: np.ones_like(r), support=lambda r, z: z > 0.3)),
        ],
        ids=["g", "f", "support"],
    )
    def test_source_odd_in_z_rejected(self, params5, name, source):
        # The half meridian holds the problem only for data even in z; an
        # odd part would be solved as if it were even.
        space = FeSpace(mesh.mesh_for("B1", "M1", sigma_max=80.0), 2)
        with pytest.raises(ValueError, match=rf"source field {name} is not even in z"):
            assemble(space, params5, source)


def reflected(m):
    """The whole meridian: the half mesh m and its mirror image z -> -z,
    whose elements have the v index reversed so that they stay
    counterclockwise; the nodes on z = 0 are shared."""
    g1 = m.geomdeg + 1
    upper = m.nodes[:, 1] > 0.0
    image = np.arange(len(m.nodes))
    image[upper] = len(m.nodes) + np.arange(np.count_nonzero(upper))
    below = image[m.elem_nodes.reshape(-1, g1, g1)[:, ::-1]].reshape(m.n_elements, -1)
    return mesh.QuadMesh(
        nodes=np.vstack([m.nodes, m.nodes[upper] * [1.0, -1.0]]),
        elem_nodes=np.vstack([m.elem_nodes, below]),
        geomdeg=m.geomdeg,
        conductor=np.tile(m.conductor, 2),
    )


REFLECTED_CASES = [
    ("A", "M2", 80.0, 16, 80.0),
    ("A", "M3", 80.0, 16, 80.0),
    ("B1", "M3", 400.0, 16, 80.0),
    ("B1", "M3", 400.0, 16, 200.0),
    ("B1", "M3", 400.0, 16, 400.0),
    ("C1", "M3", 80.0, 20, 80.0),
    ("C2", "M2", 80.0, 8, 80.0),
]


class TestReflectedMeridian:
    """The half meridian's solution against the whole meridian's: the half
    mesh reflected in z = 0 (`reflected`) and solved through the same code,
    with its own shape classes, z-translates only. Measured largest
    differences, relative: coefficients 1.1e-13 (C1 M3 p=20), conductor
    norms 1.2e-13 (C1) and equator traces 1.1e-13 (B1 M3 p=16)."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {}  # the assembled half and whole systems of one (mesh, p)

    @pytest.fixture(
        scope="class", params=REFLECTED_CASES, ids=[f"{c}-{s}-p{p}-s{g:g}" for c, s, _, p, g in REFLECTED_CASES]
    )
    def fields(self, request, systems):
        config, spec, sigma_max, p, sigma = request.param
        params = physics.PhysicalParams(sigma=sigma)
        if (config, spec, p) not in systems:
            systems.clear()
            m = mesh.mesh_for(config, spec, sigma_max=sigma_max)
            src = cli.STUDY_TABLE[config].source
            systems[config, spec, p] = [assemble(FeSpace(x, p), params, src) for x in (m, reflected(m))]
        half, whole = (fem.solve_all(s, [params])[0] for s in systems[config, spec, p])
        return config, half, whole

    def test_coefficients_at_shared_nodes(self, fields):
        _, half, whole = fields
        dist, at = cKDTree(whole.space.dof_coords).query(half.space.dof_coords)
        assert np.max(dist) <= 1e-12
        assert np.max(np.abs(half.coeffs - whole.coeffs[at])) <= 1e-12 * np.max(np.abs(whole.coeffs))

    def test_conductor_norm(self, fields):
        # conductor_norm doubles its mesh's integral, and the whole
        # meridian's integral is twice the half's.
        _, half, whole = fields
        want = postprocess.conductor_norm(whole) / np.sqrt(2.0)
        assert postprocess.conductor_norm(half) == pytest.approx(want, rel=1e-12, abs=0)

    def test_equator_trace(self, fields):
        config, half, whole = fields
        a = geometry.CONFIGURATIONS[config].equator_interface_radius
        (y_half, v_half), (y_whole, v_whole) = (postprocess.extract_radial(f, a) for f in (half, whole))
        assert len(y_half) == len(y_whole) and np.max(np.abs(y_half - y_whole)) <= 1e-12
        assert np.max(np.abs(v_half - v_whole)) <= 1e-12 * np.max(np.abs(v_whole))


def test_reflected_mesh_has_translation_classes_only():
    # The whole B1 M3 meridian, keyed by z-translation alone, has about
    # twice the half's 73 classes: a mirror image is no translate.
    m = reflected(mesh.mesh_for("B1", "M3", sigma_max=400.0))
    assert fem._shape_classes(m).max() + 1 == 143
