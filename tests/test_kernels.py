import math
import tracemalloc

import numpy as np
import pytest

from skinfem import kernels
from skinfem.basis import (
    gauss_rule,
    gll_points,
    lagrange_deriv_matrix,
    lagrange_matrix,
    tensor_lagrange_grid,
)
from skinfem.fem import _geometry_eval


def make_inputs(p, n_elements=3, seed=0):
    """1D tables and the geometry of random curved elements.

    Each element is a degree-4 map of the unit square with its edges bent
    and its nodes moved at random, rotated, scaled and shifted to r > 0.2;
    its Jacobian stays positive.
    Returns (V, D) and (rq, wq, xu, xv, yu, yv, det), each (n_elements, nq^2).
    """
    nq = p + 3
    x, w = gauss_rule(nq)
    rng = np.random.default_rng(seed)
    g = gll_points(4)
    square = np.column_stack([np.tile(g, 5), np.repeat(g, 5)])
    nodes = np.empty((n_elements, 25, 2))
    for e in range(n_elements):
        t = 2.0 * np.pi * rng.random()
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        bend = 0.3 * (rng.random(2) - 0.5) * np.sin(np.pi * square[:, ::-1])
        X = square + bend + 0.005 * rng.standard_normal((25, 2))
        X = X @ (rot * (0.5 + rng.random())).T
        nodes[e] = X - [X[:, 0].min() - 0.2 - rng.random(), 0.0]
    rq, _, xu, xv, yu, yv, det = _geometry_eval(nodes, *tensor_lagrange_grid(4, x))
    assert np.all(det > 0.0) and np.all(rq > 0.0)
    wq = np.outer(w, w).reshape(-1) * det
    V, D = lagrange_matrix(gll_points(p), x), lagrange_deriv_matrix(gll_points(p), x)
    return (V, D), (rq, wq, xu, xv, yu, yv, det)


def dense_element_matrix(p, rq, wq, xu, xv, yu, yv, det):
    """S and M of one element from the full (nq^2, (p+1)^2) basis tables."""
    x = gauss_rule(p + 3)[0]
    phi, dxi, deta = tensor_lagrange_grid(p, x)
    dphir = (dxi * yv[:, None] - deta * yu[:, None]) / det[:, None]
    dphiz = (-dxi * xv[:, None] + deta * xu[:, None]) / det[:, None]
    wr = wq * rq
    grad2 = dphir + phi / rq[:, None]
    S = dphiz.T @ (wr[:, None] * dphiz) + grad2.T @ (wr[:, None] * grad2)
    M = phi.T @ (wr[:, None] * phi)
    return 0.5 * (S + S.T), 0.5 * (M + M.T)


def unpacked(packed):
    """Full matrices (..., n, n) from packed upper triangles (..., n(n+1)/2)."""
    n = math.isqrt(8 * packed.shape[-1] + 1) // 2
    return packed[..., kernels.full_index(n)]


def single_call_element_matrix(p, geometry, inv_eps, kappa2):
    """The matrix of the form from the dense kernel in one call."""
    S, M = dense_element_matrix(p, *geometry)
    return inv_eps * S - kappa2 * M


@pytest.mark.parametrize("p", [1, 2, 8, 16, 20])
def test_matches_dense_reference(p):
    tables, geometry = make_inputs(p, seed=p)
    S, M = kernels.element_matrix(*tables, *geometry)
    n = (p + 1) ** 2
    assert S.shape == M.shape == (3, n * (n + 1) // 2)
    S, M = unpacked(S), unpacked(M)
    for e in range(3):
        for got, want in zip((S[e], M[e]), dense_element_matrix(p, *(a[e] for a in geometry))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 9, 289])
def test_full_index_reads_the_packed_upper_triangle(n):
    i, j = np.triu_indices(n)
    idx = kernels.full_index(n)
    assert np.array_equal(idx[i, j], np.arange(n * (n + 1) // 2))
    assert np.array_equal(idx, idx.T)


@pytest.mark.parametrize("p", [2, 6, 12])
def test_matrix_bitwise_symmetric(p):
    S, M = kernels.element_matrix(*(a for part in make_inputs(p) for a in part))
    for s, m in zip(unpacked(S), unpacked(M)):
        A = np.complex128(1.0 / (1 + 2j)) * s - 0.3 * m
        assert np.array_equal(s, s.T)
        assert np.array_equal(m, m.T)
        assert np.array_equal(A, A.T)


def test_positive_definite_stiffness_part():
    # the stiffness part alone is an SPD gramian
    S, _ = kernels.element_matrix(*(a for part in make_inputs(4) for a in part))
    for s in unpacked(S):
        w = np.linalg.eigvalsh(s)
        assert w.min() > -1e-10 * w.max()


@pytest.mark.parametrize("p", [1, 2, 8, 16])
@pytest.mark.parametrize("inv_eps", [1.0 / (1 + 2.5e3j), 1.0], ids=["conductor", "dielectric"])
def test_recombined_matrix_bitwise_equals_single_call(p, inv_eps):
    # fem.solve forms coef * S - kappa2 * M on the packed entries, with a
    # real coef kept real, and then reads the blocks it needs. The
    # sum-factorized kernel adds in another order than the dense one, so
    # the values agree to rounding and the dtype exactly.
    tables, geometry = make_inputs(p, n_elements=1, seed=p)
    kappa2 = 0.01
    S, M = kernels.element_matrix(*tables, *geometry)
    coef = np.ones(1, dtype=np.complex128)
    coef[0] = inv_eps
    c = coef[0] if coef[0].imag else coef[0].real
    got = unpacked(c * S[0] - kappa2 * M[0])
    ref = single_call_element_matrix(p, [a[0] for a in geometry], inv_eps, kappa2)
    assert got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_no_batched_temporary():
    # Working memory beyond S and M stays at a few element matrices: a
    # (k, n^2, n^2) temporary for these 32 elements would take 21 MB.
    tables, geometry = make_inputs(16, n_elements=32, seed=1)
    tracemalloc.start()
    try:
        S, M = kernels.element_matrix(*tables, *geometry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (S.nbytes + M.nbytes) < 8 * 2**20
