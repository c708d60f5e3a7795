import numpy as np
import pytest
import scipy.sparse as sp

from skinfem.linsolve import (
    Factorization,
    SingularMatrixError,
    backsolve,
    factor,
)


def solve_dense(A, b):
    return backsolve(factor(sp.csr_matrix(A)), b)


def test_small_complex_symmetric():
    A = np.array([[1.0, 1j], [1j, 1.0]])
    b = np.array([1.0 + 1j, 1.0 + 1j])
    x = solve_dense(A, b)
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_diagonal():
    d = np.array([2.0, -1j, 3.0 + 4j])
    x = solve_dense(np.diag(d), d * np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-14)


def test_random_residual():
    rng = np.random.default_rng(7)
    n = 50
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A += n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = solve_dense(A, b)
    assert np.max(np.abs(A @ x - b)) / np.max(np.abs(b)) < 1e-12


def test_factor_reuse():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    fact = factor(sp.csr_matrix(A))
    for seed in range(3):
        b = np.random.default_rng(seed).standard_normal(20)
        x = backsolve(fact, b)
        assert np.allclose(A @ x, b, atol=1e-10)


def test_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        backsolve(factor(sp.csr_matrix(A)), np.ones(2))


def test_rhs_size_check():
    A = np.eye(3)
    fact = factor(sp.csr_matrix(A))
    with pytest.raises(ValueError):
        backsolve(fact, np.ones(4))
