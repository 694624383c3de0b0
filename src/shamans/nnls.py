"""Active-set solver for nonnegative least squares, many right-hand sides at once.

Lawson-Hanson structure: an outer loop that moves the most negative
gradient coordinate into the passive (free) set, and an inner loop that
restores feasibility when the unconstrained solve on the passive set goes
negative.  The solver operates on the normal-equation data P = A.T A and
ell = A.T b, which callers may precompute and share across many right-hand
sides.  Following the fast combinatorial NNLS of Van Benthem and Keenan
(J. Chemometrics 2004), a block of right-hand sides runs through one
active-set loop in lockstep, one stacked solve per inner iteration, and
each starts from the positive part of its unconstrained solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import as_matrix, as_vector, gram, masked_system, spd_factor
from .errors import IterationLimit, SingularSystem


@dataclass(frozen=True)
class NnlsSolution:
    """Solution of min ||Ax - b||^2 subject to x >= 0.

    ``x`` is zero exactly outside ``support`` (entries below the solver
    tolerance are snapped to 0), and ``residual_sq`` is ||Ax - b||^2.
    """

    x: np.ndarray
    support: np.ndarray
    residual_sq: float


def nnls_gram(P: np.ndarray, ell: np.ndarray, mask: np.ndarray | None = None,
              tol: float = 1e-10, on_iterate=None) -> np.ndarray:
    """Active-set NNLS given normal-equation data only.

    Solves min ||Ax - b||^2 s.t. x >= 0 where P = A.T A and ell = A.T b,
    for one right-hand side (``ell`` of shape (r,)) or a block of them
    (``ell`` of shape (B, r), one row each; the result has ell's shape).
    Row i of the optional (B, r) boolean ``mask`` confines row i to the
    unknowns mask[i], the rest staying 0: the problem on P(mask_i, mask_i).

    All rows run Lawson-Hanson in lockstep, one stacked solve per inner
    iteration.  A row starts from the least-squares solution on its mask,
    with nonpositive entries dropped until it is feasible, or from 0 when
    P on the mask is singular.  Ties on the entering variable break toward
    the smallest index, so the result is deterministic.  ``on_iterate`` is
    an optional hook called with a copy of the iterate at the top of every
    outer iteration (used by tests to watch the objective decrease).

    Raises IterationLimit once a row makes more than 10 k (k+1) pivots,
    k the size of its mask, which signals cycling or heavy degeneracy, and
    propagates SingularSystem from a solve on a rank-deficient passive
    set.  Coefficients that end below tol * (1 + max|ell|), the maximum
    taken over the row's mask, are set to zero and the rest solved again
    on their own support, so the result stays a stationary refit.
    """
    L = np.atleast_2d(ell)
    mask = np.ones(L.shape, dtype=bool) if mask is None else np.atleast_2d(mask)
    floor = tol * (1.0 + np.abs(np.where(mask, L, 0.0)).max(axis=1, initial=0.0))
    size = mask.sum(axis=1)
    max_pivots = 10 * size * (size + 1)
    pivots = np.zeros(L.shape[0], dtype=np.int64)
    X = np.zeros(L.shape)
    passive = mask.copy()

    def solve_on(rows):
        """Least squares on the rows' passive sets, their nonpositive
        entries, and which rows have none."""
        K = passive[rows]
        S = masked_system(P, K)
        spd_factor(S)
        Z = np.linalg.solve(S, np.where(K, L[rows], 0.0)[:, :, None])[:, :, 0]
        Z = np.where(K, Z, 0.0)
        neg = K & (Z <= 0.0)
        return Z, neg, ~neg.any(axis=1)

    def count_pivots(rows, added):
        pivots[rows] += added
        if (pivots[rows] > max_pivots[rows]).any():
            raise IterationLimit(f"active-set pivot limit {max_pivots.max()} exceeded")

    # Warm start: drop nonpositive coefficients until the solve is feasible.
    rows = np.flatnonzero(passive.any(axis=1))
    while rows.size:
        try:
            Z, neg, ok = solve_on(rows)
        except SingularSystem as exc:
            # A rank-deficient mask has no least-squares solution: start at 0.
            passive[rows[exc.matrices]] = False
            rows = np.delete(rows, exc.matrices)
            continue
        X[rows[ok]] = Z[ok]
        passive[rows] &= ~neg
        rows = rows[~ok]
        rows = rows[passive[rows].any(axis=1)]

    live = np.arange(L.shape[0])
    while True:
        if on_iterate is not None:
            on_iterate(X.reshape(np.shape(ell)).copy())
        w = np.where(mask[live] & ~passive[live], L[live] - X[live] @ P.T, -np.inf)
        entering = w.argmax(axis=1)  # first maximum, i.e. smallest index
        grow = w[np.arange(live.size), entering] > floor[live]
        live = live[grow]
        if not live.size:
            break
        passive[live, entering[grow]] = True
        count_pivots(live, 1)

        rows = live
        while rows.size:
            Z, neg, ok = solve_on(rows)
            X[rows[ok]] = Z[ok]
            rows, Z, neg = rows[~ok], Z[~ok], neg[~ok]
            if not rows.size:
                break
            # Walk toward Z until the first passive coordinate hits zero.
            x = X[rows]
            denom = x - Z
            steps = np.where(denom > 0.0, x / np.where(denom > 0.0, denom, 1.0), 0.0)
            alpha = np.where(neg, steps, np.inf).min(axis=1)
            x += alpha[:, None] * (Z - x)
            drop = passive[rows] & (x <= floor[rows, None])
            x[drop] = 0.0
            X[rows] = x
            passive[rows] &= ~drop
            count_pivots(rows, drop.sum(axis=1))
            rows = rows[passive[rows].any(axis=1)]

    snapped = (X != 0.0) & (X < floor[:, None])
    if snapped.any():
        # Zeroing a coefficient moves the others' optimum: refit on the rest.
        X[snapped] = 0.0
        passive[...] = X != 0.0
        rows = np.flatnonzero(snapped.any(axis=1) & passive.any(axis=1))
        if rows.size:
            Z, _, ok = solve_on(rows)
            X[rows[ok]] = Z[ok]
    return X.reshape(np.shape(ell))


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
    if not tol > 0:  # also NaN
        raise ValueError("tol must be positive")
    P = gram(A) if gram_matrix is None else gram_matrix
    ell = A.T @ b if corr is None else corr
    x = nnls_gram(P, ell, tol=tol, on_iterate=on_iterate)
    resid = A @ x - b
    return NnlsSolution(x=x, support=np.flatnonzero(x > 0.0),
                        residual_sq=float(resid @ resid))
