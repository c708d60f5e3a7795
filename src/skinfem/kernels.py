"""Hot numeric kernels: element matrices and load vectors.

Element matrices come out bitwise symmetric.
"""

from __future__ import annotations

__all__ = ["element_matrix", "element_load"]


def element_matrix(phi, dphir, dphiz, rq, wq, inv_eps, kappa2):
    """Element matrix of the axisymmetric orthoradial form.

    A_ij = inv_eps * sum_q w_q r_q [dz_i dz_j + (dr + 1/r)_i (dr + 1/r)_j]
           - kappa2 * sum_q w_q r_q phi_i phi_j
    with (dr + 1/r)_i = dphir_i + phi_i / r_q. All inputs real; the complex
    factor inv_eps is applied once per element.
    """
    wr = wq * rq
    grad2 = dphir + phi / rq[:, None]
    S = dphiz.T @ (wr[:, None] * dphiz) + grad2.T @ (wr[:, None] * grad2)
    M = phi.T @ (wr[:, None] * phi)
    S = 0.5 * (S + S.T)
    M = 0.5 * (M + M.T)
    return inv_eps * S - kappa2 * M


def element_load(phi, rq, wq, fq):
    """Load vector sum_q w_q r_q f_q phi_i."""
    return phi.T @ (wq * rq * fq)
