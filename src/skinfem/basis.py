"""Gauss-Lobatto nodes, Lagrange evaluation, Gauss quadrature, tensor bases.

Shared by the mesh generator (curved-facet geometry interpolation) and the
finite element space. All reference coordinates live on [0, 1]. Tables are
computed on each call from the barycentric formulas (Berrut & Trefethen,
SIAM Review 46, 2004); nothing is cached.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gll_points",
    "gauss_rule",
    "lagrange_matrix",
    "lagrange_deriv_matrix",
    "tensor_lagrange",
    "tensor_lagrange_grid",
]


def gll_points(p: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre points of degree p on [0, 1], (p+1,) array."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    if p == 1:
        x = np.array([-1.0, 1.0])
    else:
        # Interior GLL nodes are the roots of P_p'(x).
        coeffs = np.zeros(p + 1)
        coeffs[p] = 1.0
        dcoeffs = np.polynomial.legendre.legder(coeffs)
        interior = np.polynomial.legendre.legroots(dcoeffs)
        x = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    pts = 0.5 * (x + 1.0)
    pts[0] = 0.0
    pts[-1] = 1.0
    return pts


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    return 1.0 / np.prod(nodes[:, None] - nodes[None, :] + np.eye(len(nodes)), axis=1)


def _diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Differentiation matrix D[i, j] = L_j'(nodes[i]) of the Lagrange basis
    at its own nodes; each row sums to zero."""
    w = _bary_weights(nodes)
    D = (w[None, :] / w[:, None]) / (nodes[:, None] - nodes[None, :] + np.eye(len(nodes)))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def lagrange_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values L_j(x_i) of the Lagrange basis on `nodes`, shape (len(x), len(nodes)).

    Barycentric form; exact (identity rows) when x hits a node.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = _bary_weights(nodes)
    diff = x[:, None] - nodes[None, :]
    exact_i, exact_j = np.nonzero(np.abs(diff) < 1e-14)
    diff[exact_i, exact_j] = 1.0  # placeholder, rows overwritten below
    terms = w[None, :] / diff
    with np.errstate(divide="ignore", invalid="ignore"):
        # Rows with an exact node hit may misbehave here; overwritten below.
        out = terms / terms.sum(axis=1)[:, None]
    out[exact_i] = 0.0
    out[exact_i, exact_j] = 1.0
    return out


def lagrange_deriv_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivatives L_j'(x_i), shape (len(x), len(nodes))."""
    nodes = np.asarray(nodes, dtype=float)
    # L'(x) = L(x) @ D works because the derivative of a degree-n polynomial
    # is itself degree < n and interpolation at the nodes is exact.
    return lagrange_matrix(nodes, x) @ _diff_matrix(nodes)


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1]: (points, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _row_kron(A, B):
    """Row-wise Kronecker product: A[q, i] B[q, k] as a (n_points, n_i * n_k)
    table, column i * n_k + k."""
    return (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)


def tensor_lagrange(deg: int, u, v):
    """Tensor-product Q_deg Lagrange basis on GLL nodes at points (u[k], v[k]).

    Returns (phi, dphi_du, dphi_dv), each of shape (len(u), (deg+1)^2); basis
    function j*(deg+1)+i is L_i(u) L_j(v), so the u index is fast.
    """
    nodes = gll_points(deg)
    D = _diff_matrix(nodes)
    Vu, Vv = lagrange_matrix(nodes, u), lagrange_matrix(nodes, v)
    Du, Dv = Vu @ D, Vv @ D  # as in lagrange_deriv_matrix, without re-evaluating V
    return _row_kron(Vv, Vu), _row_kron(Vv, Du), _row_kron(Dv, Vu)


def tensor_lagrange_grid(deg: int, x):
    """`tensor_lagrange` on the tensor grid x × x, point index b*len(x)+a for
    (x[a], x[b])."""
    U, V = np.meshgrid(x, x)  # V slow, U fast along rows
    return tensor_lagrange(deg, U.ravel(), V.ravel())
