"""High-order Q_p discretization of the axisymmetric orthoradial form.

The sesquilinear form is assembled with a bilinear (unconjugated) complex
pairing, so the matrix is complex symmetric. Quadrature is tensor
Gauss-Legendre with p+3 points per direction; Gauss points are interior so
the 1/r factors stay finite. Essential conditions (outer boundary data and
the homogeneous axis condition) are imposed by interpolation at boundary
DOF nodes plus right-hand-side lifting.

The domain and the data are even in z, so H is too: the mesh holds the half
meridian z >= 0, and the symmetry plane z = 0 carries the natural condition
dH/dz = 0, which the weak form imposes by leaving its DOFs free (Bossavit,
CMAME 56, 1986, on reducing a problem with a geometric symmetry to its
fundamental domain). `assemble` rejects data that is not even in z. The
form's weights depend on r alone, so elements that differ only by a shift in
z have the same stiffness and mass in the same local DOF order. `FeSpace`
finds these shape classes once; `assemble` computes S and M once per class,
with the sum-factorized `kernels.element_matrix` on 1D Lagrange tables.
Sigma enters only the conductor's coefficient 1/eps_conductor, so
`solve_all` solves one assembly at many sigmas: it condenses a class's
elements outside the conductor once, and those in it once per sigma.
The skeleton system left by the condensation is solved by multifrontal
elimination over a nested-dissection tree of the elements (George 1973;
Duff & Reid 1983), which `FeSpace` builds once; numpy is the only
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import basis, kernels
from .mesh import (
    QuadMesh,
    _corner_locals,
    _face_locals,
    _facet_owners,
    _first_appearance,
    _on_line,
    _sorted_unique,
)
from .physics import PhysicalParams

__all__ = [
    "FeSpace",
    "DiscreteField",
    "SourceSpec",
    "AssembledSystem",
    "AssemblyError",
    "PointLocationError",
    "assemble",
    "solve",
    "solve_all",
    "locate",
    "inverse_map",
    "evaluate",
]

MAX_DEGREE = 20
# `solve`'s bound on its row-scaled backward error: the largest reading over
# the test suite's solves is 5.7e-16, and over p=20 solves on every
# configuration 7.1e-16.
BACKWARD_ERROR_BOUND = 1e-14


class AssemblyError(RuntimeError):
    pass


class PointLocationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Quadrature and geometry

def _quad_points(nq1: int, nsub: int = 1):
    """nq1-point Gauss rule on each of nsub equal subintervals of [0, 1]:
    (points, tensor weights), the weights ordered like the tensor grid."""
    gx, gw = basis.gauss_rule(nq1)
    x = np.concatenate([(s + gx) / nsub for s in range(nsub)])
    w = np.tile(gw / nsub, nsub)
    return x, np.outer(w, w).reshape(-1)


def _geometry_eval(coords, GV, GDu, GDv):
    """Physical coordinates, Jacobian entries and determinant at points.

    coords holds geometry nodes, (n, 2) for one element or (k, n, 2) for k;
    each result has shape (n_points,) or (k, n_points).
    """
    x, y = np.moveaxis(GV @ coords, -1, 0)
    xu, yu = np.moveaxis(GDu @ coords, -1, 0)
    xv, yv = np.moveaxis(GDv @ coords, -1, 0)
    det = xu * yv - xv * yu
    return x, y, xu, xv, yu, yv, det


# ---------------------------------------------------------------------------
# Finite element space

class FeSpace:
    """C0 Q_p space on a QuadMesh with Gauss-Lobatto nodal basis.

    DOFs are identified topologically: one DOF per mesh vertex, p-1 per mesh
    edge (oriented from the lower to the higher vertex id), (p-1)^2 per
    element interior. The vertex, then the edge (skeleton) DOFs are numbered
    first, each in order of first appearance over the elements, `n_skeleton`
    of them; the interior DOFs follow, element by element.
    `elem_dofs` is an (n_elements, (p+1)^2) array in local tensor order;
    assembly, the solver and evaluation all read it. The faces that belong
    to one element lie on the axis (r == 0), on the symmetry plane (z ==
    0) or on the outer boundary. Axis DOFs are constrained to zero and
    outer DOFs to the boundary data, the axis winning where the two meet;
    the symmetry plane's DOFs are free (the natural condition dH/dz = 0)
    unless they lie on the axis or the outer boundary too. `tree` is the
    elimination tree of the free skeleton DOFs (`_build_tree`).

    Element e has shape class `elem_shape[e]` (`_shape_classes`): the
    classes are z-translates of each other, so every member shares the
    matrices of its class's lowest-numbered element in its own local order.
    """

    def __init__(self, mesh: QuadMesh, p: int):
        if not 1 <= p <= MAX_DEGREE:
            raise ValueError(f"degree p={p} outside supported range 1..{MAX_DEGREE}")
        self.mesh = mesh
        self.p = p
        one, two = _facet_owners(mesh)
        self._build_numbering()
        self.elem_shape = _shape_classes(mesh)
        self._compute_dof_coords()
        self._collect_boundary_dofs(one)
        self._build_tree(two // 4)

    # -- numbering ----------------------------------------------------------

    def _build_numbering(self):
        mesh, p = self.mesh, self.p
        nel = mesh.n_elements
        dofs = np.empty((nel, (p + 1) ** 2), dtype=np.int64)
        vertex, first = _first_appearance(mesh.corners)
        n_skeleton = len(first)
        dofs[:, list(_corner_locals(p))] = vertex
        if p > 1:
            # p-1 dofs per edge, run from its lower to its higher vertex id.
            fc = mesh.face_corners
            lo, hi = np.sort(fc, axis=2).transpose(2, 0, 1)
            edge, first = _first_appearance(lo * len(mesh.nodes) + hi)
            k = np.arange(p - 1)
            step = np.where((fc[:, :, 0] > fc[:, :, 1])[..., None], p - 2 - k, k)
            seq = n_skeleton + (p - 1) * edge[..., None] + step
            dofs[:, _face_locals(p)[:, 1:-1]] = seq
            n_skeleton += (p - 1) * len(first)
            interior = np.arange(nel * (p - 1) ** 2).reshape(nel, -1)
            dofs[:, _interior_locals(p)] = n_skeleton + interior
        self.n_skeleton = n_skeleton
        self.n_dofs = n_skeleton + nel * (p - 1) ** 2
        self.elem_dofs = dofs

    # -- dof coordinates ----------------------------------------------------

    def _compute_dof_coords(self):
        mesh = self.mesh
        GV = basis.tensor_lagrange_grid(mesh.geomdeg, basis.gll_points(self.p))[0]
        coords = np.empty((self.n_dofs, 2))
        coords[self.elem_dofs] = GV @ mesh.nodes[mesh.elem_nodes]
        self.dof_coords = coords

    # -- boundary dofs ------------------------------------------------------

    def _collect_boundary_dofs(self, one):
        """Axis and outer DOFs on the one-owner faces `one` (4*e + face);
        the symmetry plane's faces add none."""
        ids = self.elem_dofs[one[:, None] // 4, _face_locals(self.p)[one % 4]]
        axis = _on_line(self.mesh, one, 0)
        outer = ~axis & ~_on_line(self.mesh, one, 1)
        # The axis condition is essential and wins at shared corners.
        self.axis_dofs = _sorted_unique(ids[axis])
        self.outer_dofs = np.setdiff1d(
            _sorted_unique(ids[outer]), self.axis_dofs, assume_unique=True
        )
        constrained = np.zeros(self.n_dofs, dtype=bool)
        constrained[self.axis_dofs] = True
        constrained[self.outer_dofs] = True
        self.constrained = constrained
        self.free = np.nonzero(~constrained)[0]

    # -- elimination tree ---------------------------------------------------

    def _build_tree(self, pairs):
        """Binary tree of the elements by recursive spectral bisection;
        pairs is an (n, 2) array of the elements that share a facet.

        A set of elements is cut in two in the order of a split vector.
        The vector lies in the eigenspace of the second-smallest
        eigenvalue of the set's facet-adjacency Laplacian (Pothen, Simon &
        Liou, SIAM J. Matrix Anal. Appl. 11, 1990), taken whole: every
        eigenvector whose eigenvalue is within 1e-8 times the largest of it.
        On a square block of elements that eigenvalue is repeated, and
        LAPACK may return any vector of the space, so no single eigenvector
        is used. The two candidates are the projections onto the space of
        the elements' centroid r and z (corner means, less their mean): a
        function of the mesh alone, oriented by its coordinate. A projection
        shorter than 1e-6 times its coordinate is dropped; if both are, the
        coordinates themselves are the candidates. The elements are sorted
        by a candidate, values within 1e-6 of its largest magnitude taken as
        equal (`_tie_ranks`), then by the coordinate, then by number.

        Of n elements, the first h go to one half for every cut h in the
        middle half of both orders, ceil(n/4) <= h <= n - ceil(n/4). A cut
        scores the free skeleton DOFs that the half sharing more of them
        with the elements outside it shares, then the other half's count;
        the lowest score is kept, then the cut nearer the median (n+1)//2,
        then the lower cut, then r's. The scores are integers, so the tree
        is a function of the mesh. They come for all cuts at once from
        prefix counts of each DOF's first and last holder in the order: a
        DOF also held outside the set is shared by every half that holds
        it, one held inside alone by both halves when the cut falls between
        its holders. (A cut at the median left larger fronts on the curved
        meshes, and some inner fronts that eliminated nothing: halves of
        two elements that share no facet.) A leaf is one element.

        A free skeleton DOF is eliminated at the first node that holds every
        element it belongs to, and passed up from the nodes below that,
        with the number of elements below that hold it.
        `tree` lists the nodes in postorder, the root last, each as
        (dofs, n_elim, children, lowest, keep): its front's free skeleton
        DOFs, the n_elim eliminated there first; (node index, positions of
        the node's passed-up DOFs in dofs) per child; the lowest-numbered
        element below it; for a leaf, dofs as indices into its element's
        skeleton.
        """
        nel = self.mesh.n_elements
        adj = np.zeros((nel, nel))
        adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = 1.0
        skel = self.elem_dofs[:, _skeleton_locals(self.p)]
        count = np.bincount(skel.ravel(), minlength=self.n_skeleton)
        free_count = np.where(self.constrained[: self.n_skeleton], 0, count)
        centroid = self.mesh.nodes[self.mesh.corners].mean(axis=1)
        tree, passed, where = [], [], np.empty(self.n_skeleton, dtype=np.int64)

        def bisect(elems):
            """elems ordered by the split vector, and the cut kept."""
            A = adj[elems[:, None], elems]
            lam, vec = np.linalg.eigh(np.diag(A.sum(axis=1)) - A)
            space = vec[:, np.abs(lam - lam[1]) <= 1e-8 * lam[-1]]
            c = centroid[elems] - centroid[elems].mean(axis=0)
            v = space @ (space.T @ c)
            kept = np.linalg.norm(v, axis=0) > 1e-6 * np.linalg.norm(c, axis=0)
            if not kept.any():
                v, kept = c, np.ones(2, dtype=bool)
            orders = np.array([
                np.lexsort((elems, c[:, k], _tie_ranks(v[:, k]))) for k in np.flatnonzero(kept)
            ])
            k, h = _best_cut(orders, skel[elems], free_count)
            return elems[orders[k]], h

        def build(elems):
            if len(elems) == 1:
                children, keep = (), np.flatnonzero(~self.constrained[skel[elems[0]]])
                dofs, below = skel[elems[0], keep], np.ones(len(keep))
            else:
                order, h = bisect(elems)
                children = [build(order[:h]), build(order[h:])]
                up = np.concatenate([passed[c][0] for c in children])
                keep = dofs = _sorted_unique(up)
                below = np.bincount(
                    np.searchsorted(dofs, up),
                    np.concatenate([passed[c][1] for c in children]),
                    len(dofs),
                )
            here = below == count[dofs]
            order = np.argsort(~here, kind="stable")
            dofs, keep, n_elim = dofs[order], keep[order], int(np.count_nonzero(here))
            passed.append((dofs[n_elim:], below[order][n_elim:]))
            where[dofs] = np.arange(len(dofs))
            children = tuple((c, where[passed[c][0]]) for c in children)
            tree.append((dofs, n_elim, children, int(elems.min()), keep))
            return len(tree) - 1

        build(np.arange(nel))
        self.tree = tree


def _best_cut(orders, held, free_count):
    """The candidate k and the cut h of `FeSpace._build_tree`'s rule: the
    first h elements of the order orders[k] form one half, h in the middle
    half. orders is (candidates, n), held the (n, w) DOFs of each element,
    and free_count[d] the number of elements in all that hold DOF d if it
    is free, else 0.
    """
    n_orders, n = orders.shape
    if n == 2:  # one cut: every order gives the same halves
        return 0, 1
    # The incidences grouped by DOF, and the kind of each DOF: 0 if free and
    # held outside these elements too, so shared by whichever half holds
    # it; 2 if free and held here alone, so shared if both halves hold it;
    # 4 if constrained.
    flat = held.ravel()
    by = np.argsort(flat, kind="stable")
    dof = flat[by]
    starts = np.flatnonzero(np.concatenate([[True], dof[1:] != dof[:-1]]))
    total = free_count[dof[starts]]
    here = np.append(starts[1:], len(by)) - starts
    kind = np.where(total == 0, 4, np.where(here < total, 0, 2))
    # Per order, each DOF's first and last position among its holders, and
    # in one bincount the counts at each position of the first and the last
    # holders of the kind 0 and 2 DOFs.
    pos = np.empty_like(orders)
    pos[np.arange(n_orders)[:, None], orders] = np.arange(n)
    at = pos[:, by // held.shape[1]]
    first, last = np.minimum.reduceat(at, starts, axis=1), np.maximum.reduceat(at, starts, axis=1)
    keys = np.concatenate([kind * n + first, (kind + 1) * n + last], axis=1)
    keys += 6 * n * np.arange(n_orders)[:, None]
    counts = np.bincount(keys.ravel(), minlength=6 * n * n_orders).reshape(n_orders, 6, n)
    quarter = -(-n // 4)  # ceil(n/4)
    cuts = np.arange(quarter, n - quarter + 1)
    outer_f, outer_l, inner_f, inner_l = counts.cumsum(axis=2)[:, :4, cuts - 1].transpose(1, 0, 2)
    # The shared DOFs of the half before each cut and of the one after.
    both = inner_f - inner_l
    before, after = outer_f + both, np.count_nonzero(kind == 0) - outer_l + both
    at_cut = cuts[None].repeat(n_orders, axis=0).ravel()
    best = np.lexsort((
        at_cut, np.abs(at_cut - (n + 1) // 2),
        np.minimum(before, after).ravel(), np.maximum(before, after).ravel(),
    ))[0]
    return int(best // len(cuts)), int(at_cut[best])


def _tie_ranks(v) -> np.ndarray:
    """Rank of each value of v among the runs of its sorted values that lie
    within 1e-6 * max|v| of their neighbours: values that rounding alone
    tells apart share a rank."""
    order = np.argsort(v, kind="stable")
    step = np.diff(v[order]) > 1e-6 * np.max(np.abs(v))
    ranks = np.empty(len(v), dtype=np.int64)
    ranks[order] = np.concatenate([[0], np.cumsum(step)])
    return ranks


def _quantized(x, scale: float) -> np.ndarray:
    """x in units of the step 1e-13 * scale, rounded. Values that round
    alike differ by less than a step; closer values may still round apart."""
    return np.round(np.asarray(x) / (1e-13 * scale))


@dataclass(frozen=True)
class SourceSpec:
    """Problem data: either outer Dirichlet data g(r,z) or interior f(r,z).

    Each function must be even in z, as the half meridian z >= 0 holds the
    whole problem; `assemble` checks it. `support` marks a discontinuous
    indicator inside f: it takes arrays (r, z) and returns a bool array of
    the same shape. Elements whose corners it splits are integrated on a
    subdivided quadrature rule.
    """

    boundary_g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    interior_f: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    support: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @staticmethod
    def dirichlet_radius() -> "SourceSpec":
        """g = r on the outer boundary (configurations A and B)."""
        return SourceSpec(boundary_g=lambda r, z: r)

    @staticmethod
    def config_C1() -> "SourceSpec":
        """Interior density f = 100 on r^2/4 + z^2 <= 0.8, zero Dirichlet."""

        def f(r, z):
            return np.where(r**2 / 4.0 + z**2 <= 0.8, 100.0, 0.0)

        return SourceSpec(
            interior_f=f, support=lambda r, z: r**2 / 4.0 + z**2 <= 0.8
        )

    @staticmethod
    def manufactured(kappa: float) -> "SourceSpec":
        """f = -kappa^2 r with g = r: exact solution H = r for uniform eps."""
        return SourceSpec(
            boundary_g=lambda r, z: r,
            interior_f=lambda r, z: -(kappa**2) * r,
        )


@dataclass
class DiscreteField:
    """Complex DOF vector over a Q_p space: coeffs[i] is the field's value
    at the node space.dof_coords[i]."""

    space: FeSpace
    coeffs: np.ndarray


@dataclass(frozen=True)
class AssembledSystem:
    """Sigma-independent element pieces of one assembly, at params.

    The members of a shape class share S and M, each kept as its packed
    upper triangle (`kernels.full_index` reads it back): element e, of class
    k = space.elem_shape[e], has the matrix c_e * stiffness[k] - kappa^2 *
    mass[k] and the load vector loads[e] over the DOFs space.elem_dofs[e],
    kappa = params.kappa. c_e is 1/eps_conductor at params.sigma in the
    conductor (`mesh.conductor`) and 1 in the dielectric, or 1 everywhere
    under `uniform_eps`. Sigma enters only through the conductor's c_e, so
    `solve_all` solves the system at any sigma of the same omega. No global
    matrix is formed: `solve_all` condenses once per group of elements and
    eliminates the skeleton front by front.
    """

    space: FeSpace
    stiffness: np.ndarray  # (n_shapes, n (n+1) / 2) real, n = (p+1)^2, packed
    mass: np.ndarray  # (n_shapes, n (n+1) / 2) real, packed
    loads: np.ndarray  # (n_elements, (p+1)^2) real element loads
    gvec: np.ndarray  # prescribed values at constrained dofs, 0 elsewhere
    params: PhysicalParams
    uniform_eps: bool = False


# ---------------------------------------------------------------------------
# Assembly

def _shape_classes(mesh: QuadMesh) -> np.ndarray:
    """Shape class of each element, numbered in order of first appearance.

    An element is keyed by its geometry nodes shifted so that the first node
    has z = 0, on the `_quantized` grid of 1e-13 * max|nodes|; elements
    with equal keys share a class, whose representative is its
    lowest-numbered element.
    """
    rel = mesh.nodes[mesh.elem_nodes]
    rel[..., 1] -= rel[:, :1, 1]
    keys = _quantized(rel, np.max(np.abs(mesh.nodes))).reshape(len(rel), -1)
    return _first_appearance(keys, axis=0)[0]


def _members(labels) -> list:
    """Element indices of each label 0, 1, ..., ascending within a label."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def assemble(
    space: FeSpace,
    params: PhysicalParams,
    source: SourceSpec,
    uniform_eps: bool = False,
) -> AssembledSystem:
    """Stiffness and mass per shape class and loads per element, at params.
    The matrices of a class are those of its lowest-numbered element.

    Raises ValueError naming the field of `source` (boundary_g, interior_f
    or support) that is not even in z (`_even`) where it is read: g at the
    outer DOFs, f at the quadrature points, support at the element corners.
    """
    mesh, p = space.mesh, space.p
    nq1 = p + 3

    xq, w2 = _quad_points(nq1)
    X = mesh.nodes[mesh.elem_nodes]
    rq, zq, xu, xv, yu, yv, det = _geometry_eval(X, *basis.tensor_lagrange_grid(mesh.geomdeg, xq))
    bad_det, bad_r = np.any(det <= 0.0, axis=1), np.any(rq <= 0.0, axis=1)
    if np.any(bad_det | bad_r):
        e = int(np.argmax(bad_det | bad_r))
        what = "nonpositive Jacobian" if bad_det[e] else "quadrature point with r <= 0"
        raise AssemblyError(f"{what} in element {e}")
    wq = w2 * det

    first = np.unique(space.elem_shape, return_index=True)[1]
    S, M = kernels.element_matrix(
        basis.lagrange_matrix(basis.gll_points(p), xq),
        basis.lagrange_deriv_matrix(basis.gll_points(p), xq),
        *(a[first] for a in (rq, wq, xu, xv, yu, yv, det)),
    )

    be = np.zeros((mesh.n_elements, (p + 1) ** 2))
    if source.interior_f is not None:
        phi = basis.tensor_lagrange_grid(p, xq)[0]
        fq = _even(source.interior_f, "interior_f", rq, zq).astype(float)
        be = kernels.element_load(phi, rq, wq, fq)
        cut = []
        if source.support is not None:
            C = mesh.nodes[mesh.corners]
            inside = _even(source.support, "support", C[..., 0], C[..., 1]).astype(bool)
            cut = np.flatnonzero(inside.any(axis=1) & ~inside.all(axis=1))
        if len(cut):
            sxq, sw2 = _quad_points(nq1, 4)
            su, sv = (t.ravel() for t in np.meshgrid(sxq, sxq))
            sub_geom = basis.tensor_lagrange(mesh.geomdeg, su, sv)
            sub_phi = basis.tensor_lagrange(p, su, sv)[0]
            srq, szq, _, _, _, _, sdet = _geometry_eval(X[cut], *sub_geom)
            fq = np.asarray(source.interior_f(srq, szq), dtype=float)
            be[cut] = kernels.element_load(sub_phi, srq, sw2 * sdet, fq)

    gvec = np.zeros(space.n_dofs, dtype=np.complex128)
    if source.boundary_g is not None and len(space.outer_dofs):
        pts = space.dof_coords[space.outer_dofs]
        gvec[space.outer_dofs] = _even(source.boundary_g, "boundary_g", pts[:, 0], pts[:, 1])
    # axis dofs stay 0
    return AssembledSystem(
        space=space,
        stiffness=S,
        mass=M,
        loads=be,
        gvec=gvec,
        params=params,
        uniform_eps=uniform_eps,
    )


def _even(fn, name: str, r, z) -> np.ndarray:
    """fn(r, z), checked against fn(r, -z): the half meridian z >= 0 holds
    the problem only for data even in z. Raises ValueError naming the field
    `name` where the two differ by more than 1e-14 of max|fn(r, z)|."""
    values = np.asarray(fn(r, z))
    gap = np.abs(np.asarray(fn(r, -z), dtype=np.complex128) - values)
    if np.any(gap > 1e-14 * np.max(np.abs(values), initial=0.0)):
        raise ValueError(f"source field {name} is not even in z, as the half meridian z >= 0 needs")
    return values


def _lifted_rhs(system, coefs, full) -> np.ndarray:
    """b - A g over all dofs, one row per row of element coefficients in
    coefs (`_element_products`); full is `kernels.full_index` of the
    element size."""
    space = system.space
    products = _element_products(system, coefs, system.gvec[None], full)
    return np.array([_scatter(space.elem_dofs, system.loads - a, space.n_dofs) for a in products])


def _element_products(system, coefs, vs, full, rowsums=None):
    """A_e v_e for every row of coefs and every element, an (n_rows,
    n_elements, (p+1)^2) complex array: element e's matrix is coefs[n, e] *
    S - kappa^2 * M in row n. vs holds one vector per row, or one that
    every row multiplies; full is `kernels.full_index((p+1)^2)`. If given,
    rowsums, an array of that shape, takes each row's row sums of
    |coefs[n, e]| |S| + kappa^2 |M|, which bound those of |A_e|.

    One real product per shape class, with its S and M expanded and their
    absolute row sums formed once: they multiply the real and the imaginary
    parts of all its members' vectors, of every vector at once (S and M are
    symmetric, so v_e S = S v_e). No complex element matrix is formed. A
    vector whose members' v_e are all zero in a class is left out of its
    product: its products there are zero, and its rows of rowsums are left
    as given. (A class is multiplied whole: the BLAS product's rounding
    depends on its number of rows, so one vector gives the bits of a
    single-row call.)
    """
    space = system.space
    kappa2 = system.params.kappa**2
    ve = np.asarray(vs, dtype=np.complex128)[:, space.elem_dofs]
    coef = coefs[..., None]
    out = np.zeros((len(coefs),) + ve.shape[1:], dtype=np.complex128)
    nonzero = ve.any(axis=2)
    for k, idx in enumerate(_members(space.elem_shape)):
        on = np.flatnonzero(nonzero[:, idx].any(axis=1))
        if not len(on):
            continue
        S, M = system.stiffness[k][full], system.mass[k][full]
        v = ve[np.ix_(on, idx)]
        parts = np.concatenate([v.real, v.imag]).reshape(-1, v.shape[2])
        Sv, Mv = ((parts @ A).reshape((2,) + v.shape) for A in (S, M))
        at = np.ix_(on if len(ve) == len(coefs) else np.arange(len(coefs)), idx)
        c = coef[at]
        out[at] = c * (Sv[0] + 1j * Sv[1]) - kappa2 * (Mv[0] + 1j * Mv[1])
        if rowsums is not None:
            rowsums[at] = np.abs(c) * np.abs(S).sum(axis=1) + kappa2 * np.abs(M).sum(axis=1)
    return out


def _scatter(dofs, vals, n) -> np.ndarray:
    """Sum per-element vectors vals[e, i] into a length-n vector at dofs[e, i]."""
    idx = dofs.ravel()
    vals = vals.ravel()
    return np.bincount(idx, vals.real, n) + 1j * np.bincount(idx, vals.imag, n)


def _interior_locals(p: int) -> np.ndarray:
    """Local tensor indices of the (p-1)^2 element-interior nodes."""
    inner = np.arange(1, p)
    return (inner[:, None] * (p + 1) + inner[None, :]).ravel()


def _skeleton_locals(p: int) -> np.ndarray:
    """Local tensor indices of the 4p vertex and edge nodes, ascending."""
    return np.setdiff1d(np.arange((p + 1) ** 2), _interior_locals(p), assume_unique=True)


def solve(system: AssembledSystem) -> DiscreteField:
    """The solution of one system: `solve_all(system, [system.params])[0]`."""
    return solve_all(system, [system.params])[0]


def solve_all(system: AssembledSystem, params) -> list[DiscreteField]:
    """The solutions of system at each of params, in their order: direct
    solves by static condensation and multifrontal elimination, each
    checked by a row-scaled backward error over the free rows (Rigal &
    Gaches, J. ACM 14, 1967; Oettli & Prager, Numer. Math. 6, 1964; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, sec.
    7.1): the largest |A y - b|_i / (||A_i|| ||y|| + |b_i|), ||y|| in the
    max norm, at most BACKWARD_ERROR_BOUND, with the row norm ||A_i||
    bounded by the summed row sums of |c_e| |S| + kappa^2 |M|. A row whose
    denominator is 0 must have no residual. Each row is measured against
    its own scale, so rows with a tiny coefficient, as a conductor's at
    high sigma, are not hidden behind the largest row.

    The interior DOFs of each element are eliminated against its skeleton
    (vertex and edge) DOFs, once per group of elements: the members of a
    shape class in the conductor, whose coefficient c_e depends on sigma,
    and those outside it, whose c_e is 1 (`AssembledSystem`). Each group's
    Schur complement is kept as its packed upper triangle
    (`np.triu_indices` of the 4p skeleton DOFs), one stacked array for all
    groups, and eliminated front by front over `space.tree`
    (`_eliminate`); the interior right-hand sides are dropped before it,
    and the interiors are then recovered by back-substitution.

    The params are solved one after another, and only each solution is
    kept from one to the next. A group outside the conductor, and every
    group under `uniform_eps`, is condensed once for all the params; a
    conductor group once per params. The backward errors are checked after
    the last solve, in one pass over the shape classes for all the params
    (`_element_products`). Each solution is bitwise that of `solve` on an
    assembly at its params.

    Raises ValueError naming the position of the first params, counted
    from 1, whose kappa (set by omega) differs from the assembled one:
    kappa scales the mass part, which is assembled once. A singular
    interior block raises AssemblyError naming the lowest-numbered element
    that has one; a singular front, the lowest-numbered element below it; a
    non-finite solution or a backward error over the bound, the position
    of its params as "system n". No solution is returned if any fails.
    """
    params = list(params)
    kappa2 = system.params.kappa**2
    for n, q in enumerate(params, 1):
        if q.kappa**2 != kappa2:
            raise ValueError(
                f"params {n}: kappa^2 = {q.kappa**2!r} differs from the assembled {kappa2!r}"
            )
    if not params:
        return []
    space = system.space
    dofs = space.elem_dofs
    ns = space.n_skeleton
    il, bl = _interior_locals(space.p), _skeleton_locals(space.p)
    skel = dofs[:, bl]
    nel, ni, nb = len(dofs), len(il), len(bl)
    full = kernels.full_index(dofs.shape[1])
    # Element coefficients, one row per params: sigma enters only the
    # conductor's own.
    own = space.mesh.conductor & (not system.uniform_eps)
    coefs = np.ones((len(params), nel), dtype=np.complex128)
    coefs[:, own] = [[1.0 / q.eps_conductor] for q in params]
    rhs = _lifted_rhs(system, coefs, full)
    # The packed positions of the interior and skeleton blocks.
    ii, ib, bb = (full[a[:, None], b] for a, b in ((il, il), (il, bl), (bl, bl)))
    upper = np.triu_indices(nb)

    group = _first_appearance(np.column_stack([space.elem_shape, own]), axis=0)[0]
    groups = _members(group)
    kept = {}  # the pieces of each group condensed once, by group
    ys = []
    for n, coef in enumerate(coefs, 1):
        # One matrix per group, formed on the packed entries: A_ii^-1 [A_ib |
        # r_i of every member] and the Schur complement on the skeleton,
        # shared by the members. A real coefficient keeps the matrix real;
        # the members' interior right-hand sides are then solved as real
        # and imaginary columns.
        X_b, schur = [], np.empty((len(groups), len(upper[0])), dtype=np.complex128)
        x_r = np.empty((nel, ni), dtype=np.complex128)
        A_bi_x = np.empty((nel, nb), dtype=np.complex128)
        r_i = rhs[n - 1][dofs[:, il]]
        for g, idx in enumerate(groups):
            e, m = idx[0], len(idx)
            if g in kept:
                X, schur[g], x_r[idx], A_bi_x[idx] = kept[g]
                X_b.append(X)
                continue
            c, k = coef[e], space.elem_shape[e]
            A = (c if c.imag else c.real) * system.stiffness[k] - kappa2 * system.mass[k]
            r = r_i[idx].T if c.imag else np.hstack([r_i[idx].real.T, r_i[idx].imag.T])
            try:
                X = np.linalg.solve(A[ii], np.hstack([A[ib], r]))
            except np.linalg.LinAlgError:
                raise AssemblyError(f"singular interior block in element {e}") from None
            X_b.append(X[:, :nb].copy())  # not a view that keeps the r columns
            x_r[idx] = X[:, nb:].T if c.imag else (X[:, nb : nb + m] + 1j * X[:, nb + m :]).T
            # (i, j) and (j, i) share a packed entry: A_bi is A_ib transposed.
            A_bi = np.ascontiguousarray(A[ib].T)
            schur[g] = (A[bb] - A_bi @ X[:, :nb])[upper]
            A_bi_x[idx] = x_r[idx] @ A_bi.T
            if not own[e] and len(params) > 1:
                kept[g] = X_b[-1], schur[g].copy(), x_r[idx], A_bi_x[idx]
        del r_i

        # Constrained skeleton rows and columns are dropped: rhs carries -A g.
        y = np.zeros(space.n_dofs, dtype=np.complex128)  # coefficients minus gvec
        b = rhs[n - 1][:ns] - _scatter(skel, A_bi_x, ns)
        y[:ns] = _eliminate(space.tree, schur, group, b, kernels.full_index(nb))
        for idx, X in zip(groups, X_b):
            y[dofs[idx[:, None], il]] = x_r[idx] - y[skel[idx]] @ X.T
        if not np.all(np.isfinite(y)):
            raise AssemblyError(f"non-finite solution of system {n}")
        ys.append(y)
        del X_b, schur, x_r, A_bi_x
    del kept

    free = space.free
    rowsums = np.zeros((len(params),) + dofs.shape)
    products = _element_products(system, coefs, ys, full, rowsums)
    for n, (y, b, a, rowsum) in enumerate(zip(ys, rhs, products, rowsums), 1):
        r = np.abs(_scatter(dofs, a, space.n_dofs)[free] - b[free])
        norm_a = np.bincount(dofs.ravel(), rowsum.ravel(), space.n_dofs)[free]
        scale = norm_a * np.max(np.abs(y)) + np.abs(b[free])
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.max(np.where(r == 0, 0.0, r / scale), initial=0.0)
        if not err <= BACKWARD_ERROR_BOUND:
            raise AssemblyError(
                f"solver residual of system {n}: backward error {err:.3e} exceeds "
                f"{BACKWARD_ERROR_BOUND:.0e}"
            )
    return [DiscreteField(space=space, coeffs=system.gvec + y) for y in ys]


def _eliminate(tree, schur, group, b, full) -> np.ndarray:
    """Solution of the summed skeleton system, zero at constrained DOFs.

    Element e's Schur complement over its skeleton is schur[group[e]], its
    packed upper triangle, which full (`kernels.full_index` of the skeleton
    size) reads back; b is the skeleton right-hand side. Each front of
    `tree`, in postorder, takes its leaf's block or extend-adds its
    children's update blocks, eliminates its DOFs with one dense solve
    (partial pivoting within the front) and passes the update block of the
    rest up; b is updated in place of a rhs column. A front that eliminates
    nothing, as a leaf's whose skeleton DOFs are all shared, is passed up
    whole as its update.
    Back-substitution runs from the root down.
    """
    b = b.copy()
    updates, solved = {}, []
    for k, (dofs, n, children, lowest, keep) in enumerate(tree):
        if children:
            F = np.zeros((len(dofs),) * 2, dtype=np.complex128)
            for c, pos in children:  # F[pos[:, None], pos] += update, on flat indices
                flat = (pos[:, None] * len(dofs) + pos).ravel()
                np.add.at(F.reshape(-1), flat, updates.pop(c).ravel())
        else:
            F = schur[group[lowest]][full[keep[:, None], keep]]
        if not n:
            updates[k] = F
            continue
        try:
            X = np.linalg.solve(F[:n, :n], np.column_stack([F[:n, n:], b[dofs[:n]]]))
        except np.linalg.LinAlgError:
            raise AssemblyError(f"singular front at element {lowest}") from None
        b[dofs[n:]] -= F[n:, :n] @ X[:, -1]
        updates[k] = F[n:, n:] - F[n:, :n] @ X[:, :-1]
        solved.append((dofs, n, X))
    y = np.zeros_like(b)
    for dofs, n, X in reversed(solved):
        y[dofs[:n]] = X[:, -1] - X[:, :-1] @ y[dofs[n:]]
    return y


# ---------------------------------------------------------------------------
# Point evaluation

def inverse_map(mesh: QuadMesh, elems, points, start=(0.5, 0.5)):
    """Reference coordinates of points[k] in element elems[k]: damped Newton
    from start, (u, v) for all k or an (n, 2) array, batched over k.

    Returns an (n, 2) array of (u, v), with NaN rows where the iteration
    leaves [-0.5, 1.5]^2, meets a singular Jacobian or stalls.
    """
    elems = np.asarray(elems, dtype=np.int64)
    target = np.asarray(points, dtype=float).reshape(-1, 2)
    uv = np.empty((len(elems), 2))
    uv[:] = start
    if not len(elems):
        return uv
    X = mesh.nodes[mesh.elem_nodes[elems]]
    act = np.arange(len(elems))
    for _ in range(60):
        tables = (t[:, None] for t in basis.tensor_lagrange(mesh.geomdeg, uv[act, 0], uv[act, 1]))
        x, y, xu, xv, yu, yv, det = np.squeeze(_geometry_eval(X[act], *tables), axis=2)
        dx, dy = x - target[act, 0], y - target[act, 1]
        conv = np.maximum(abs(dx), abs(dy)) < 1e-14 * (1.0 + np.max(np.abs(target[act]), axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.column_stack([yv * dx - xv * dy, xu * dy - yu * dx]) / det[:, None]
            size = np.max(np.abs(step), axis=1)
            step *= np.minimum(1.0, 0.5 / size)[:, None]  # max-norm clamp at 0.5
        new = uv[act] - step
        ok = ~conv & (det != 0.0) & np.all((-0.5 <= new) & (new <= 1.5), axis=1)
        uv[act[ok]] = new[ok]
        uv[act[~conv & ~ok]] = np.nan
        act = act[ok & (size >= 1e-12)]
        if not len(act):
            return uv
    uv[act] = np.nan  # stalled
    return uv


def locate(mesh: QuadMesh, points):
    """Element and reference coordinates (elem, u, v) of each point (n, 2),
    at its image (r, |z|) in the half meridian z >= 0 that the mesh holds.

    Candidates are the elements whose bounding box, padded by 10%, holds
    the point. The lowest-numbered candidate whose inverse map lies within
    1e-9 of [0, 1]^2 wins; failing that, the one with the smallest miss if
    it is at most 1e-6. elem is -1 where no candidate qualifies; (u, v) is
    clamped to [0, 1]^2.

    `inverse_map` starts from (0.5, 0.5). On a thin curved element that run
    can leave the element for a point inside it, so the candidates of a
    point that none qualifies for are mapped again, each from the
    reference coordinates of its geometry node nearest to the point.
    """
    pts = np.array(points, dtype=float).reshape(-1, 2)
    pts[:, 1] = np.abs(pts[:, 1])
    X = mesh.nodes[mesh.elem_nodes]
    lo, hi = X.min(axis=1), X.max(axis=1)
    pad = (0.1 * np.max(hi - lo, axis=1) + 1e-12)[:, None]
    inbox = np.all((lo - pad <= pts[:, None]) & (pts[:, None] <= hi + pad), axis=2)
    k, e = np.nonzero(inbox)  # candidate pairs

    def misses(uv):
        miss = np.max(np.maximum(-uv, uv - 1.0), axis=1).clip(min=0.0)
        miss[np.isnan(miss)] = np.inf
        return miss

    uv = inverse_map(mesh, e, pts[k])
    miss = misses(uv)
    hit = np.zeros(len(pts), dtype=bool)
    hit[k[miss <= 1e-6]] = True
    again = np.flatnonzero(~hit[k])
    if len(again):
        near = np.argmin(np.sum((X[e[again]] - pts[k[again], None]) ** 2, axis=2), axis=1)
        g = basis.gll_points(mesh.geomdeg)
        start = np.column_stack([g[near % len(g)], g[near // len(g)]])
        uv[again] = inverse_map(mesh, e[again], pts[k[again]], start)
        miss[again] = misses(uv[again])
    # Per point: the first within tolerance by element, else the smallest miss.
    within = miss <= 1e-9
    order = np.lexsort((e, np.where(within, 0.0, miss), ~within, k))
    first = order[np.unique(k[order], return_index=True)[1]]
    first = first[miss[first] <= 1e-6]

    elem = np.full(len(pts), -1, dtype=np.int64)
    elem[k[first]] = e[first]
    at = np.zeros((len(pts), 2))
    at[k[first]] = np.clip(uv[first], 0.0, 1.0)
    return elem, at[:, 0], at[:, 1]


def _values_at(field: DiscreteField, elem, u, v) -> np.ndarray:
    """Field values at located points (elem >= 0)."""
    space = field.space
    phi = basis.tensor_lagrange(space.p, u, v)[0]
    return np.einsum("kj,kj->k", phi, field.coeffs[space.elem_dofs[elem]])


def evaluate(field: DiscreteField, points) -> np.ndarray:
    """Evaluate the discrete field at physical points (n, 2) -> complex (n,);
    the field is even in z, so (r, z) reads the half meridian at (r, |z|).

    Raises PointLocationError naming the first point outside the mesh.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elem, u, v = locate(field.space.mesh, pts)
    if np.any(elem < 0):
        r, z = pts[np.argmax(elem < 0)]
        raise PointLocationError(f"point ({r}, {z}) not found in mesh")
    out = _values_at(field, elem, u, v)
    if np.ndim(points) == 1:
        return out[0]
    return out
