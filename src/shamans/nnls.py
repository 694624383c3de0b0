"""Active-set solver for nonnegative least squares, many right-hand sides at once.

Lawson-Hanson on the normal-equation data P = A.T A and ell = A.T b: an
outer loop moves the most negative gradient coordinate into the passive
(free) set, and an inner loop restores feasibility when the least-squares
solution on the passive set goes negative.  As in the fast combinatorial
NNLS of Van Benthem and Keenan (J. Chemometrics 2004), a block of
right-hand sides runs through one loop in lockstep.  A passive set gains
or loses one index at a time (Lawson and Hanson, Solving Least Squares
Problems, 1974, ch. 23), so each row carries the inverse of P on it by
densela.carry_inverse, and nothing is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import PIVOT_FLOOR, as_matrix, as_vector, carry_inverse, gram
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
              tol: float = 1e-10, inverse: np.ndarray | None = None,
              on_iterate=None) -> np.ndarray:
    """Active-set NNLS given normal-equation data only.

    Solves min ||Ax - b||^2 s.t. x >= 0 where P = A.T A and ell = A.T b,
    for one right-hand side (``ell`` of shape (r,)) or a block of them
    (``ell`` of shape (B, r), one row each; the result has ell's shape).
    Row i of the optional (B, r) boolean ``mask`` confines row i to the
    unknowns mask[i], the rest staying 0: the problem on P(mask_i, mask_i).

    Each row starts from the empty passive set or, given the (B, r, r)
    ``inverse`` of P(mask_i, mask_i) (zero off mask_i), from the
    least-squares solution on its mask with nonpositive entries dropped
    until it is feasible.  Each solve is G ell plus one step of iterative
    refinement.  Ties on the entering variable break toward the smallest
    index.  ``on_iterate`` gets a copy of every outer iterate.

    Raises IterationLimit once a row makes more than 10 k (k+1) pivots,
    k the size of its mask (cycling or heavy degeneracy), and
    SingularSystem, whose ``matrices`` lists the rows, when an entering
    Schur pivot falls below PIVOT_FLOOR times the largest diagonal entry
    of P on the new passive set.  Coefficients that end below
    tol * (1 + max|ell|) over the row's mask are set to zero and the rest
    solved again, so the result stays a stationary refit.
    """
    L = np.atleast_2d(ell)
    n, r = L.shape
    mask = np.ones(L.shape, dtype=bool) if mask is None else np.atleast_2d(mask)
    floor = tol * (1.0 + np.abs(np.where(mask, L, 0.0)).max(axis=1, initial=0.0))
    size = mask.sum(axis=1)
    max_pivots = 10 * size * (size + 1)
    pivots = np.zeros(n, dtype=np.int64)
    X = np.zeros(L.shape)
    passive = np.zeros(L.shape, dtype=bool) if inverse is None else mask.copy()
    G = np.zeros((n, r, r)) if inverse is None else np.array(inverse).reshape(n, r, r)

    def solve_on(rows):
        """Least squares on the rows' passive sets, their nonpositive
        entries, and which rows have none."""
        K, g, ell_k = passive[rows], G[rows], L[rows]
        Z = np.matmul(ell_k[:, None], g)[:, 0]  # ell.G = G ell: G is symmetric
        Z = np.where(K, Z - np.matmul((Z @ P - ell_k)[:, None], g)[:, 0], 0.0)
        neg = K & (Z <= 0.0)
        return Z, neg, ~neg.any(axis=1)

    def carry(rows, index, enter):
        g, K = G[rows], passive[rows]
        s = carry_inverse(P, g, K, np.full(rows.size, enter), index)
        G[rows], passive[rows] = g, K
        return s

    def drop(rows, out):
        """Drop the entries marked in ``out``, one index per downdate."""
        while rows.size:
            first = out.argmax(axis=1)
            carry(rows, first, False)
            out[np.arange(rows.size), first] = False
            rows, out = rows[out.any(axis=1)], out[out.any(axis=1)]

    def count_pivots(rows, added):
        pivots[rows] += added
        over = rows[pivots[rows] > max_pivots[rows]]
        if over.size:
            raise IterationLimit(f"row {over[0]} exceeded its pivot limit {max_pivots[over[0]]}")

    # Warm start: drop nonpositive coefficients until the solve is feasible.
    rows = np.flatnonzero(passive.any(axis=1))
    while rows.size:
        Z, neg, ok = solve_on(rows)
        X[rows[ok]] = Z[ok]
        rows = rows[~ok]
        drop(rows, neg[~ok])
        rows = rows[passive[rows].any(axis=1)]

    diag = np.diagonal(P)
    live = np.arange(n)
    while True:
        if on_iterate is not None:
            on_iterate(X.reshape(np.shape(ell)).copy())
        w = np.where(mask[live] & ~passive[live], L[live] - X[live] @ P.T, -np.inf)
        entering = w.argmax(axis=1)  # first maximum, i.e. smallest index
        grow = w[np.arange(live.size), entering] > floor[live]
        live = live[grow]
        if not live.size:
            break
        pivot = carry(live, entering[grow], True)
        singular = ~(pivot >= PIVOT_FLOOR * np.where(passive[live], diag, 0.0).max(axis=1))
        if singular.any():
            raise SingularSystem("an entering Schur pivot fell below the relative floor",
                                 matrices=live[singular])
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
            out = passive[rows] & (x <= floor[rows, None])
            x[out] = 0.0
            X[rows] = x
            count_pivots(rows, out.sum(axis=1))
            drop(rows, out)
            rows = rows[passive[rows].any(axis=1)]

    snapped = (X != 0.0) & (X < floor[:, None])
    if snapped.any():
        # Zeroing a coefficient moves the others' optimum: refit on the rest.
        X[snapped] = 0.0
        rows = np.flatnonzero(snapped.any(axis=1))
        drop(rows, snapped[rows])
        rows = rows[passive[rows].any(axis=1)]
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
