"""Gauss-Lobatto nodes, Lagrange evaluation, Gauss quadrature, tensor bases.

Shared by the mesh generator (curved-facet geometry interpolation) and the
finite element space. All reference coordinates live on [0, 1].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gll_points",
    "gauss_rule",
    "lagrange_matrix",
    "lagrange_deriv_matrix",
    "tensor_lagrange",
    "tensor_lagrange_grid",
]


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _bary_weights_cached(key: bytes, n: int) -> np.ndarray:
    nodes = np.frombuffer(key, dtype=np.float64)
    w = np.ones(n)
    for j in range(n):
        diff = nodes[j] - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    return _bary_weights_cached(np.ascontiguousarray(nodes).tobytes(), len(nodes))


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


@lru_cache(maxsize=None)
def _diff_matrix_cached(key: bytes, n: int) -> np.ndarray:
    """Differentiation matrix of the Lagrange basis at its own nodes."""
    nodes = np.frombuffer(key, dtype=np.float64)
    w = _bary_weights_cached(key, n)
    D = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        D[i, i] = 0.0
        D[i, i] = -D[i, :].sum()
    D.flags.writeable = False
    return D


def lagrange_deriv_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivatives L_j'(x_i), shape (len(x), len(nodes))."""
    nodes = np.asarray(nodes, dtype=float)
    D = _diff_matrix_cached(np.ascontiguousarray(nodes).tobytes(), len(nodes))
    # L'(x) = L(x) @ D works because the derivative of a degree-n polynomial
    # is itself degree < n and interpolation at the nodes is exact.
    return lagrange_matrix(nodes, x) @ D


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1]: (points, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_lagrange(deg: int, u, v):
    """Tensor-product Q_deg Lagrange basis on GLL nodes at points (u[k], v[k]).

    Returns (phi, dphi_du, dphi_dv), each of shape (len(u), (deg+1)^2); basis
    function j*(deg+1)+i is L_i(u) L_j(v), so the u index is fast.
    """
    nodes = gll_points(deg)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    D = _diff_matrix_cached(nodes.tobytes(), len(nodes))
    Vu, Vv = lagrange_matrix(nodes, u), lagrange_matrix(nodes, v)
    Du, Dv = Vu @ D, Vv @ D  # as in lagrange_deriv_matrix, without re-evaluating V

    def outer(a, b):
        return (b[:, :, None] * a[:, None, :]).reshape(len(u), -1)

    return outer(Vu, Vv), outer(Du, Vv), outer(Vu, Dv)


@lru_cache(maxsize=None)
def _tensor_grid_cached(deg: int, key: bytes):
    x = np.frombuffer(key, dtype=np.float64)
    U, V = np.meshgrid(x, x, indexing="xy")  # V slow, U fast along rows
    tables = tensor_lagrange(deg, U.ravel(), V.ravel())
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


def tensor_lagrange_grid(deg: int, x):
    """`tensor_lagrange` on the tensor grid x × x, point index b*len(x)+a for
    (x[a], x[b]). Cached per degree and point set; the tables are read-only."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return _tensor_grid_cached(deg, x.tobytes())
