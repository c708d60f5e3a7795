"""Gauss-Lobatto nodes, Lagrange evaluation, Gauss quadrature, tensor bases.

Shared by the mesh generator (curved-facet geometry interpolation) and the
finite element space. All reference coordinates live on [0, 1]. Tables are
computed on each call from the barycentric formulas (Berrut & Trefethen,
SIAM Review 46, 2004); nothing is cached.

The GLL points and the Gauss rule come from Newton's method on the Legendre
three-term recurrence in scalar arithmetic (Hale & Townsend, SIAM J. Sci.
Comput. 35, 2013), so they call no LAPACK and do not depend on the BLAS.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gll_points",
    "gauss_rule",
    "lagrange_matrix",
    "lagrange_deriv_matrix",
    "tensor_lagrange",
    "tensor_lagrange_grid",
]


# Newton steps from the starting points below. A fixed count, not a
# tolerance: four reach rounding level for every degree up to 200, while
# three leave GLL points off by up to 8e-14 at degree 40.
_NEWTON_STEPS = 4


def _recurrence(n: int) -> list:
    """Coefficients (a_k, b_k), k = 2..n, of P_k = a_k x P_{k-1} - b_k P_{k-2}."""
    return [((2 * k - 1) / k, (k - 1) / k) for k in range(2, n + 1)]


def _legendre(ab: list, x: float) -> tuple[float, float]:
    """P_n(x) and P_{n-1}(x), n >= 1, from `_recurrence(n)`."""
    p0, p1 = 1.0, x
    for a, b in ab:
        p0, p1 = p1, a * x * p1 - b * p0
    return p1, p0


def _mirror(half: list, n: int) -> np.ndarray:
    """The n points on [0, 1] of a rule symmetric about 0 on [-1, 1], from
    its ceil(n/2) points x <= 0, ascending: (1 + x)/2 on the left and one
    minus those on the right, so the points are symmetric to the last bit."""
    left = 0.5 * (1.0 + np.array(half))
    return np.concatenate([left, 1.0 - left[: n // 2][::-1]])


def gll_points(p: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre points of degree p on [0, 1], (p+1,) array.

    The interior points are the roots of P_p'. Each is found by Newton's
    method on f = x P_p - P_{p-1} = (x^2 - 1) P_p' / p, whose derivative is
    (p + 1) P_p, from its Chebyshev-Gauss-Lobatto point (Hesthaven &
    Warburton, Nodal Discontinuous Galerkin Methods, 2008). The end points
    are 0.0 and 1.0 exactly.
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    ab = _recurrence(p)
    half = [-1.0]
    for j in range(1, p // 2 + 1):
        x = -math.cos(math.pi * j / p)
        for _ in range(_NEWTON_STEPS):
            P, Q = _legendre(ab, x)
            x -= (x * P - Q) / ((p + 1) * P)
        half.append(x)
    return _mirror(half, p + 1)


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
    """n-point Gauss-Legendre rule on [0, 1]: (points, weights).

    Each root of P_n is found by Newton's method with P_n' = n (P_{n-1} -
    x P_n) / (1 - x^2), from Tricomi's estimate; its weight on [0, 1] is
    1 / ((1 - x^2) P_n'^2), at the iterate before the last step.
    """
    if n < 1:
        raise ValueError("number of points must be >= 1")
    ab = _recurrence(n)
    c = 1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)
    xs, ws = [], []
    for k in range(1, (n + 1) // 2 + 1):
        x = -c * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(_NEWTON_STEPS):
            P, Q = _legendre(ab, x)
            s = (1.0 - x) * (1.0 + x)
            d = n * (Q - x * P) / s
            x -= P / d
        xs.append(x)
        ws.append(1.0 / (s * d * d))
    w = np.array(ws)
    return _mirror(xs, n), np.concatenate([w, w[: n // 2][::-1]])


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
