import numpy as np
import pytest

from skinfem import kernels
from skinfem.basis import gauss_rule, tensor_lagrange_grid


def make_inputs(p, seed=0):
    nq1 = p + 3
    gx, gw = gauss_rule(nq1)
    phi, dphir, dphiz = tensor_lagrange_grid(p, gx)
    rng = np.random.default_rng(seed)
    rq = 0.5 + rng.random(nq1 * nq1)
    wq = np.outer(gw, gw).reshape(-1) * (0.5 + rng.random(nq1 * nq1))
    return phi, dphir, dphiz, rq, wq


@pytest.mark.parametrize("p", [2, 6, 12])
def test_matrix_bitwise_symmetric(p):
    phi, dphir, dphiz, rq, wq = make_inputs(p)
    A = kernels.element_matrix(phi, dphir, dphiz, rq, wq, 1.0 / (1 + 2j), 0.3)
    assert np.array_equal(A, A.T)


def test_positive_definite_stiffness_part():
    # with kappa2 = 0 and inv_eps = 1 the matrix is an SPD gramian
    phi, dphir, dphiz, rq, wq = make_inputs(4)
    A = kernels.element_matrix(phi, dphir, dphiz, rq, wq, 1.0, 0.0)
    w = np.linalg.eigvalsh(A.real)
    assert w.min() > -1e-10 * w.max()
