import numpy as np
import pytest

from skinfem.basis import (
    gauss_rule,
    gll_points,
    lagrange_deriv_matrix,
    lagrange_matrix,
    tensor_lagrange,
    tensor_lagrange_grid,
)


def einsum_reference(deg, x):
    """The tensor tables as the element assembly built them before the
    shared helper: 1-D Lagrange tables at x combined by einsum, u fast."""
    nodes = gll_points(deg)
    V = lagrange_matrix(nodes, x)
    D = lagrange_deriv_matrix(nodes, x)
    n = len(x)
    phi = np.einsum("ai,bj->baji", V, V).reshape(n * n, -1)
    du = np.einsum("ai,bj->baji", D, V).reshape(n * n, -1)
    dv = np.einsum("ai,bj->baji", V, D).reshape(n * n, -1)
    return phi, du, dv


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
        assert new.shape == ref.shape
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [1, 2, 8, 16, 20])
def test_paired_points_give_grid_rows(p):
    x = point_set("gauss", p)
    U, V = np.meshgrid(x, x)
    for paired, grid in zip(tensor_lagrange(p, U.ravel(), V.ravel()), tensor_lagrange_grid(p, x)):
        assert np.array_equal(paired, grid)


def test_grid_tables_read_only():
    phi = tensor_lagrange_grid(3, gauss_rule(4)[0])[0]
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0
