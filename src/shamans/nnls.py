"""Active-set solver for nonnegative least squares.

Lawson-Hanson structure: an outer loop that moves the most negative
gradient coordinate into the passive (free) set, and an inner loop that
restores feasibility when the unconstrained solve on the passive set goes
negative.  The solver operates on the normal-equation data P = A.T A and
ell = A.T b, which callers may precompute and share across many right-hand
sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import as_matrix, as_vector, gram, solve_spd
from .errors import IterationLimit


@dataclass(frozen=True)
class NnlsSolution:
    """Solution of min ||Ax - b||^2 subject to x >= 0.

    ``x`` is zero exactly outside ``support`` (entries below the solver
    tolerance are snapped to 0), and ``residual_sq`` is ||Ax - b||^2.
    """

    x: np.ndarray
    support: np.ndarray
    residual_sq: float


def nnls_gram(P: np.ndarray, ell: np.ndarray, tol: float = 1e-10,
              on_iterate=None) -> np.ndarray:
    """Active-set NNLS given normal-equation data only.

    Solves min ||Ax - b||^2 s.t. x >= 0 where P = A.T A and ell = A.T b.
    Ties on the entering variable break toward the smallest index, so the
    result is deterministic.  ``on_iterate`` is an optional hook called
    with a copy of x at the top of every outer iteration (used by tests to
    watch the objective decrease).

    Raises IterationLimit after 10 r (r+1) pivots, which signals cycling
    or heavy degeneracy, and propagates SingularSystem from the inner
    solve on a rank-deficient passive set.  Coefficients that end below
    tol * (1 + max|ell|) are set to zero and the rest solved again on
    their own support, so the result stays a stationary refit.
    """
    r = ell.shape[0]
    x = np.zeros(r)
    passive = np.zeros(r, dtype=bool)
    scale = 1.0 + float(np.abs(ell).max(initial=0.0))
    max_pivots = 10 * r * (r + 1)
    pivots = 0

    while True:
        if on_iterate is not None:
            on_iterate(x.copy())
        w = ell - P @ x
        w = np.where(passive, -np.inf, w)
        entering = int(np.argmax(w))  # first maximum, i.e. smallest index
        if not np.isfinite(w[entering]) or w[entering] <= tol * scale:
            break
        passive[entering] = True
        pivots += 1
        if pivots > max_pivots:
            raise IterationLimit(f"active-set pivot limit {max_pivots} exceeded")

        while True:
            K = np.flatnonzero(passive)
            z = solve_spd(P[np.ix_(K, K)], ell[K])
            if z.min() > 0.0:
                x[:] = 0.0
                x[K] = z
                break
            # Walk toward z until the first passive coordinate hits zero.
            xk = x[K]
            neg = z <= 0.0
            denom = xk[neg] - z[neg]
            steps = np.where(denom > 0.0, xk[neg] / np.where(denom > 0.0, denom, 1.0), 0.0)
            alpha = float(steps.min())
            x[K] = xk + alpha * (z - xk)
            drop = K[x[K] <= tol * scale]
            x[drop] = 0.0
            passive[drop] = False
            pivots += drop.size
            if pivots > max_pivots:
                raise IterationLimit(f"active-set pivot limit {max_pivots} exceeded")

    snapped = (x != 0.0) & (x < tol * scale)
    if snapped.any():
        # Zeroing a coefficient moves the others' optimum: refit on the rest.
        x[snapped] = 0.0
        K = np.flatnonzero(x)
        if K.size:
            z = solve_spd(P[np.ix_(K, K)], ell[K])
            if z.min() > 0.0:
                x[K] = z
    return x


def nnls_active_set(A, b, tol: float = 1e-10, gram_matrix=None, corr=None,
                    on_iterate=None) -> NnlsSolution:
    """Solve min ||Ax - b||^2 subject to x >= 0.

    ``gram_matrix`` (A.T A) and ``corr`` (A.T b) may be passed to reuse
    work shared across right-hand sides.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    P = gram(A) if gram_matrix is None else gram_matrix
    ell = A.T @ b if corr is None else corr
    x = nnls_gram(P, ell, tol=tol, on_iterate=on_iterate)
    resid = A @ x - b
    return NnlsSolution(x=x, support=np.flatnonzero(x > 0.0),
                        residual_sq=float(resid @ resid))
