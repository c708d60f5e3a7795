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


def single_call_element_matrix(phi, dphir, dphiz, rq, wq, inv_eps, kappa2):
    """The kernel as it was before S and M were returned separately."""
    wr = wq * rq
    grad2 = dphir + phi / rq[:, None]
    S = dphiz.T @ (wr[:, None] * dphiz) + grad2.T @ (wr[:, None] * grad2)
    M = phi.T @ (wr[:, None] * phi)
    S = 0.5 * (S + S.T)
    M = 0.5 * (M + M.T)
    return inv_eps * S - kappa2 * M


@pytest.mark.parametrize("p", [2, 6, 12])
def test_matrix_bitwise_symmetric(p):
    phi, dphir, dphiz, rq, wq = make_inputs(p)
    S, M = kernels.element_matrix(phi, dphir, dphiz, rq, wq)
    A = np.complex128(1.0 / (1 + 2j)) * S - 0.3 * M
    assert np.array_equal(S, S.T)
    assert np.array_equal(M, M.T)
    assert np.array_equal(A, A.T)


def test_positive_definite_stiffness_part():
    # the stiffness part alone is an SPD gramian
    phi, dphir, dphiz, rq, wq = make_inputs(4)
    S, _ = kernels.element_matrix(phi, dphir, dphiz, rq, wq)
    w = np.linalg.eigvalsh(S)
    assert w.min() > -1e-10 * w.max()


@pytest.mark.parametrize("p", [1, 2, 8, 16])
@pytest.mark.parametrize("inv_eps", [1.0 / (1 + 2.5e3j), 1.0], ids=["conductor", "dielectric"])
def test_recombined_matrix_bitwise_equals_single_call(p, inv_eps):
    # fem.solve forms coef * S - kappa2 * M, with a real coef kept real
    phi, dphir, dphiz, rq, wq = make_inputs(p, seed=p)
    kappa2 = 0.01
    S, M = kernels.element_matrix(phi, dphir, dphiz, rq, wq)
    coef = np.ones(1, dtype=np.complex128)
    coef[0] = inv_eps
    c = coef[0] if coef[0].imag else coef[0].real
    got = c * S - kappa2 * M
    ref = single_call_element_matrix(phi, dphir, dphiz, rq, wq, inv_eps, kappa2)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)
