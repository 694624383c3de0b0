"""Dense linear-algebra kernels shared by the solvers.

Matrices are 2-D float64 numpy arrays kept in Fortran (column-major) order,
so per-column access, the dominant pattern here, is contiguous.  Everything
is treated as immutable after construction; all functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEntry, SingularSystem

# Relative floor under which a pivot means a rank-deficient support.
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


def carry_inverse(P: np.ndarray, G: np.ndarray, K: np.ndarray, enter: np.ndarray,
                  index: np.ndarray) -> np.ndarray:
    """Move row i of the (B, r) support mask K across atom index[i], in
    place: it enters when enter[i], else it leaves.  G[i] = P(K_i, K_i)^-1,
    zero off K_i, follows by one rank-one update (Osborne, Presnell and
    Turlach, IMA J. Numer. Anal. 2000):

        enter j:  G + v v^T / s,   v = G p - e_j,  p = P(K, j),  s = P_jj - p.G p
        leave j:  G - g g^T / g_jj, g = G e_j, then row and column j zeroed

    Returns s, the entering Schur pivot (-g_jj on a leaving row).  An s
    below PIVOT_FLOOR times the largest diagonal entry of P on the new
    support means a rank-deficient support, whose G is not to be trusted.
    """
    rows = np.arange(K.shape[0])
    e = np.arange(K.shape[1]) == index[:, None]
    # A leaving row takes p = e_j, so that u = G e_j is the g of its update.
    p = np.where(enter[:, None], np.where(K, P[index], 0.0), e)
    u = np.matmul(p[:, None, :], G)[:, 0]  # p.G = G p: G is symmetric
    v = u - (enter[:, None] & e)
    s = np.where(enter, P[index, index], 0.0) - np.einsum("bi,bi->b", p, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / s
        G += np.einsum("bi,bj->bij", v * w[:, None], v)
    leave = rows[~enter]
    G[leave, index[leave], :] = 0.0
    G[leave, :, index[leave]] = 0.0
    K[rows, index] ^= True
    return s


def frob_norm(A: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(A, dtype=np.float64))))
