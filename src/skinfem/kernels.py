"""Hot numeric kernels: element matrices and load vectors.

Element matrices come out bitwise symmetric.
"""

from __future__ import annotations

__all__ = ["element_matrix", "element_load"]


def element_matrix(phi, dphir, dphiz, rq, wq):
    """Stiffness and mass matrices (S, M) of the axisymmetric orthoradial form.

    S_ij = sum_q w_q r_q [dz_i dz_j + (dr + 1/r)_i (dr + 1/r)_j]
    M_ij = sum_q w_q r_q phi_i phi_j
    with (dr + 1/r)_i = dphir_i + phi_i / r_q. Both are real; the element
    matrix of the form is inv_eps * S - kappa2 * M.
    """
    wr = wq * rq
    grad2 = dphir + phi / rq[:, None]
    S = dphiz.T @ (wr[:, None] * dphiz) + grad2.T @ (wr[:, None] * grad2)
    M = phi.T @ (wr[:, None] * phi)
    return 0.5 * (S + S.T), 0.5 * (M + M.T)


def element_load(phi, rq, wq, fq):
    """Load vector sum_q w_q r_q f_q phi_i; rq, wq and fq may carry a
    leading element axis, (n_elements, n_points), for one vector each."""
    return (wq * rq * fq) @ phi
