"""Dense linear-algebra kernels shared by the solvers.

Matrices are 2-D float64 numpy arrays kept in Fortran (column-major) order,
so per-column access, the dominant pattern here, is contiguous.  Everything
is treated as immutable after construction; all functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEntry, SingularSystem

# Relative floor under which a Cholesky pivot means a rank-deficient support.
PIVOT_FLOOR = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 column-major array."""
    out = np.asfortranarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteEntry(f"{name} contains NaN or infinite entries")
    return out


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D float64 array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteEntry(f"{name} contains NaN or infinite entries")
    return out


def gram(A: np.ndarray) -> np.ndarray:
    """Gram matrix A.T @ A, symmetrized so S == S.T holds exactly.

    Computed once per dictionary and shared by every column subproblem.
    """
    S = A.T @ A
    return np.asfortranarray((S + S.T) * 0.5)


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or of
    each matrix in a stack of shape (B, k, k).

    Raises SingularSystem when a factorization breaks down or any of its
    pivots falls below PIVOT_FLOOR times the largest diagonal entry of its
    matrix, so a rank-deficient support surfaces as an error instead of
    silent regularization.  The exception's ``matrices`` lists the
    positions in the stack of every singular matrix.
    """
    broken = False
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        # One breakdown fails the whole stack: factor one at a time to find it.
        L = np.zeros_like(S)
        broken = np.zeros(S.shape[:-2], dtype=bool)
        for i in np.ndindex(broken.shape):
            try:
                L[i] = np.linalg.cholesky(S[i])
            except np.linalg.LinAlgError:
                broken[i] = True
    # diagonal(L)**2 are the elimination pivots of the unpivoted factorization
    d = np.diagonal(L, axis1=-2, axis2=-1)
    floor = PIVOT_FLOOR * np.diagonal(S, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
    singular = broken | ((d * d).min(axis=-1, initial=np.inf) < floor)
    if singular.any():
        raise SingularSystem("factorization broke down or a pivot fell below "
                             "the relative floor", matrices=np.flatnonzero(singular))
    return L


def masked_system(P: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The (B, r, r) stack of systems P(K_i, K_i), one per row of the
    (B, r) boolean support mask K, each padded to full size.

    Off K_i the matrix is diagonal, equal to the largest diagonal entry of
    P on K_i.  Those rows decouple, so a right-hand side that is zero off
    K_i gives the solution on K_i and zeros elsewhere, and spd_factor's
    relative pivot floor stays that of P(K_i, K_i).  Every row of K must
    be nonempty.
    """
    S = np.where(K[:, :, None] & K[:, None, :], P, 0.0)
    pad = np.where(K, np.diagonal(P), 0.0).max(axis=1)
    on_diagonal = np.arange(K.shape[1])
    S[:, on_diagonal, on_diagonal] += np.where(K, 0.0, pad[:, None])
    return S


def frob_norm(A: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(A, dtype=np.float64))))
