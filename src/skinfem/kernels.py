"""Hot numeric kernels: element matrices and load vectors.

The element matrices are sum-factorized (Melenk, Gerdes & Schwab, CMAME 190,
2001): one contraction over the u points, then one over the v points, each
a matrix product on 1D tables. They come out bitwise symmetric, so each is
kept as its packed upper triangle (Anderson et al., LAPACK Users' Guide,
3rd ed., 1999, sec. 5.3.2); `full_index` reads it back as a full matrix.
"""

from __future__ import annotations

import numpy as np

from .basis import _row_kron

__all__ = ["element_matrix", "element_load", "full_index"]

# Index pairs (a, b), a <= b, of the basis factors (phi, du phi, dv phi)
# in the stiffness terms.
_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


def _transpose_pairs(n1):
    """Flat positions in an (n, n) array R, n = n1^2, of the two terms of
    each packed entry of out[(j, i), (l, k)] = R[(j, l), (i, k)] + R[(l, j),
    (k, i)].

    R holds the v indices (j, l) in its rows and the u indices (i, k) in
    its columns, each running to n1; out is in the local tensor order, v
    index slow. Its entries (m, m') and (m', m) are the same two terms, so
    out is symmetric and its upper triangle holds all of it.
    """
    n = n1 * n1
    (j, i), (l, k) = (np.divmod(m, n1) for m in np.triu_indices(n))
    return (j * n1 + l) * n + i * n1 + k, (l * n1 + j) * n + k * n1 + i


def full_index(n: int) -> np.ndarray:
    """(n, n) positions of the entries of a symmetric matrix in its packed
    upper triangle, whose order is `np.triu_indices(n)`'s: packed[...,
    full_index(n)] is the full matrix, and entry (i, j) is read from the
    same position as (j, i)."""
    k = np.arange(n)
    upper = (k * (2 * n - 1 - k) // 2)[:, None] + k  # (i, j) for i <= j
    return np.minimum(upper, upper.T)


def element_matrix(V, D, rq, wq, xu, xv, yu, yv, det):
    """Stiffness and mass matrices (S, M) of the axisymmetric orthoradial form.

    S_mn = sum_q w_q r_q [dz_m dz_n + (dr + 1/r)_m (dr + 1/r)_n]
    M_mn = sum_q w_q r_q phi_m phi_n
    on the tensor Gauss grid, point b * nq + a at (x_a, x_b). Both are real;
    the element matrix of the form is inv_eps * S - kappa2 * M.

    V and D are the 1D GLL-Lagrange values and derivatives at the nq points,
    (nq, p+1); basis function j * (p+1) + i is L_i(u) L_j(v). rq, the
    weights wq (Jacobian included), the Jacobian entries and det are
    (k, nq^2), one row per element. Returns S and M, each (k, n(n+1)/2)
    with n = (p+1)^2: the packed upper triangles (`full_index`). Each
    element's products are formed in one reused (n, n) buffer, and its
    packed entries are summed straight from it.

    With the factors f = (phi, du phi, dv phi), (dr + 1/r) phi = c_r . f and
    dz phi = c_z . f, where c_r = (1/r, yv/det, -yu/det) and
    c_z = (0, -xv/det, xu/det). So S_mn = sum_{a, b} sum_q G_ab(q)
    f_a,m(q) f_b,n(q) with G_ab = w r (c_r,a c_r,b + c_z,a c_z,b). The
    pairs a < b are taken once, the pairs a = b with weight 1/2, and the
    result is added to its transpose. Each term is G_ab on the (nq x nq)
    grid times a table of u factor products; all six then meet the v
    factor products in one matrix product.
    """
    nq, n1 = V.shape
    n = n1 * n1
    along_u, along_v = (V, D, V), (V, V, D)
    P = np.stack([_row_kron(along_u[a], along_u[b]) for a, b in _PAIRS])
    Qt = np.concatenate([_row_kron(along_v[a], along_v[b]) for a, b in _PAIRS]).T.copy()
    wr = wq * rq
    cr = (1.0 / rq, yv / det, -yu / det)
    cz = (0.0, -xv / det, xu / det)
    G = np.stack(
        [(0.5 if a == b else 1.0) * wr * (cr[a] * cr[b] + cz[a] * cz[b]) for a, b in _PAIRS],
        axis=1,
    ).reshape(len(rq), len(_PAIRS), nq, nq)
    half_wr = 0.5 * wr.reshape(len(rq), nq, nq)

    one, other = _transpose_pairs(n1)
    S, M = np.empty((len(rq), len(one))), np.empty((len(rq), len(one)))
    R = np.empty((n, n))
    for e in range(len(rq)):
        T = np.matmul(G[e], P).reshape(-1, n)  # (6 nq, n): the u sums of all terms
        np.matmul(Qt, T, out=R)
        np.add(R.take(one), R.take(other), out=S[e])
        np.matmul(Qt[:, :nq], half_wr[e] @ P[0], out=R)
        np.add(R.take(one), R.take(other), out=M[e])
    return S, M


def element_load(phi, rq, wq, fq):
    """Load vector sum_q w_q r_q f_q phi_i; rq, wq and fq may carry a
    leading element axis, (n_elements, n_points), for one vector each."""
    return (wq * rq * fq) @ phi
