import numpy as np
import pytest
from numpy.polynomial import legendre

from skinfem.basis import (
    gauss_rule,
    gll_points,
    lagrange_deriv_matrix,
    lagrange_matrix,
    tensor_lagrange,
    tensor_lagrange_grid,
)


def bary_weights_reference(nodes):
    """The scalar loop the barycentric weights were computed with before
    the array form."""
    w = np.ones(len(nodes))
    for j in range(len(nodes)):
        w[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    return w


def diff_matrix_reference(nodes):
    """The scalar loop of the differentiation matrix before the array form."""
    n = len(nodes)
    w = bary_weights_reference(nodes)
    D = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        D[i, i] = 0.0
        D[i, i] = -D[i, :].sum()
    return D


def lagrange_reference(nodes, x):
    """Barycentric values and derivatives, point by point, from the
    reference loops."""
    w = bary_weights_reference(nodes)
    V = np.zeros((len(x), len(nodes)))
    for i, xi in enumerate(x):
        hit = np.abs(xi - nodes) < 1e-14
        if hit.any():
            V[i, hit] = 1.0
        else:
            V[i] = (w / (xi - nodes)) / np.sum(w / (xi - nodes))
    return V, V @ diff_matrix_reference(nodes)


def einsum_reference(deg, x):
    """The tensor tables as the element assembly built them before the
    shared helper: 1-D reference Lagrange tables at x combined by einsum,
    u fast."""
    V, D = lagrange_reference(gll_points(deg), x)
    n = len(x)
    phi = np.einsum("ai,bj->baji", V, V).reshape(n * n, -1)
    du = np.einsum("ai,bj->baji", D, V).reshape(n * n, -1)
    dv = np.einsum("ai,bj->baji", V, D).reshape(n * n, -1)
    return phi, du, dv


def close(new, ref, rtol):
    return new.shape == ref.shape and np.max(np.abs(new - ref)) <= rtol * np.max(np.abs(ref))


def point_set(kind, p):
    gx, _ = gauss_rule(p + 3)
    if kind == "gauss":
        return gx
    if kind == "subgauss":
        return np.concatenate([(s + gx) / 4 for s in range(4)])
    return gll_points(p + 3)


@pytest.mark.parametrize("kind", ["gauss", "subgauss", "gll"])
@pytest.mark.parametrize("p", [1, 2, 8, 16, 20])
def test_grid_matches_einsum_reference(p, kind):
    x = point_set(kind, p)
    for new, ref in zip(tensor_lagrange_grid(p, x), einsum_reference(p, x)):
        assert close(new, ref, 1e-14)


@pytest.mark.parametrize("p", [1, 2, 8, 16, 20])
def test_paired_points_give_grid_rows(p):
    x = point_set("gauss", p)
    U, V = np.meshgrid(x, x)
    for paired, grid in zip(tensor_lagrange(p, U.ravel(), V.ravel()), tensor_lagrange_grid(p, x)):
        assert np.array_equal(paired, grid)


@pytest.mark.parametrize("kind", ["gauss", "subgauss", "gll"])
@pytest.mark.parametrize("p", [1, 2, 8, 16, 20])
def test_1d_tables_match_scalar_reference(p, kind):
    nodes, x = gll_points(p), point_set(kind, p)
    V, D = lagrange_reference(nodes, x)
    assert close(lagrange_matrix(nodes, x), V, 1e-14)
    assert close(lagrange_deriv_matrix(nodes, x), D, 1e-14)


def test_returned_points_and_weights_are_private():
    before = [gll_points(3).copy(), *(a.copy() for a in gauss_rule(4))]
    gll_points(3)[1] = 0.9
    for a in gauss_rule(4):
        a[:] = 0.0
    for new, old in zip([gll_points(3), *gauss_rule(4)], before):
        assert np.array_equal(new, old)


def legendre_gll_reference(p):
    """GLL points on [0, 1] from numpy's companion-matrix roots of P_p', as
    `gll_points` computed them before the Newton iteration."""
    interior = legendre.legroots(legendre.legder(np.eye(p + 1)[p])) if p > 1 else []
    pts = 0.5 * (np.concatenate([[-1.0], np.sort(interior), [1.0]]) + 1.0)
    pts[0], pts[-1] = 0.0, 1.0
    return pts


@pytest.mark.parametrize("n", range(1, 24))
def test_gauss_rule_is_exact_to_degree_2n_minus_1_and_symmetric(n):
    x, w = gauss_rule(n)
    k = np.arange(2 * n)
    assert np.max(np.abs(x[None, :] ** k[:, None] @ w - 1.0 / (k + 1))) <= 1e-14
    assert np.all(x + x[::-1] == 1.0) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("p", range(1, 24))
def test_gll_ends_and_symmetry(p):
    pts = gll_points(p)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    assert np.all(pts + pts[::-1] == 1.0)


def test_rules_match_numpy_legendre():
    for p in range(1, 21):
        assert np.max(np.abs(gll_points(p) - legendre_gll_reference(p))) <= 2e-15, p
    for n in range(1, 24):
        x, w = legendre.leggauss(n)
        new_x, new_w = gauss_rule(n)
        assert np.max(np.abs(new_x - 0.5 * (x + 1.0))) <= 2e-15, n
        assert np.max(np.abs(new_w - 0.5 * w)) <= 2e-15, n


def test_rules_need_a_point():
    with pytest.raises(ValueError):
        gll_points(0)
    with pytest.raises(ValueError):
        gauss_rule(0)
