"""Direct sparse complex solver (LU with partial pivoting via SuperLU).

The matrices produced by the assembly are complex symmetric (not Hermitian),
so a general sparse LU is used. They are structurally symmetric, so the
columns are ordered by minimum degree on the pattern of A^T + A. The
factor/backsolve split lets callers reuse one factorization for several
right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Factorization",
    "SingularMatrixError",
    "factor",
    "backsolve",
]


class SingularMatrixError(RuntimeError):
    """Raised when the factorization hits an (almost) exactly singular pivot."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass
class Factorization:
    lu: spla.SuperLU
    n: int


def factor(matrix) -> Factorization:
    """Sparse LU factorization of a square scipy sparse matrix, taken as complex.

    Raises SingularMatrixError on singular pivots.
    """
    n = matrix.shape[0]
    if n == 0:
        return Factorization(lu=None, n=0)
    try:
        lu = spla.splu(
            sp.csc_matrix(matrix, dtype=np.complex128), permc_spec="MMD_AT_PLUS_A"
        )
    except RuntimeError as exc:
        msg = str(exc)
        index = None
        # SuperLU reports "Factor is exactly singular" with a pivot column.
        for tok in msg.replace("(", " ").replace(")", " ").split():
            if tok.isdigit():
                index = int(tok)
                break
        raise SingularMatrixError(f"singular matrix: {msg}", index=index) from exc
    return Factorization(lu=lu, n=n)


def backsolve(fact: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs using a prior factorization."""
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.shape[0] != fact.n:
        raise ValueError(f"rhs length {rhs.shape[0]} != matrix size {fact.n}")
    if fact.n == 0:
        return np.zeros_like(rhs)
    x = fact.lu.solve(rhs)
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise SingularMatrixError("non-finite solution from backsolve")
    return x
