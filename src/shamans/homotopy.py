"""Regularization paths of the L1-penalized NNLS problem, many right-hand sides at once.

For min 0.5 ||Ax - b||^2 + lambda ||x||_1 with x >= 0, the optimal support
is piecewise constant in lambda.  Walking lambda from lambda_max (above
which x = 0 is optimal) down to 0, the support changes one index at a time
at a finite set of breakpoints.  On the interval where a support K is
optimal, the penalized solution is linear in lambda:

    x(K) = a_K - lambda * b_K,   a_K = P(K,K)^-1 ell(K),  b_K = P(K,K)^-1 e,

with P = A.T A and ell = A.T b.  The interval ends at the largest lambda
where either some x(K) component hits zero (that index leaves) or some
complement gradient component

    c_K - lambda * d_K,  c_K = P(Kbar,K) a_K - ell(Kbar),
                         d_K = P(Kbar,K) b_K - e

hits zero (that index enters).  Each recorded entry pairs a support with
the breakpoint at which it stops being optimal, together with the unbiased
(penalty-free) least-squares refit on that support.  The first entry is
always the zero solution at lambda_max and the last entry sits at
lambda = 0 with the unconstrained NNLS solution.

Every right-hand side shares P, so the walk advances a block of columns
in lockstep, one breakpoint per round: one stacked factorization and
solve for all supports, one product for all complement gradients, one
block active-set call (nnls_gram) for all refits whose least-squares
solution goes negative, one product for all refit residuals.  The
kernels take a (B, r) boolean support mask, one row per column, and
return full-space (B, r) arrays that are zero off the rows' supports
(a, b) or on them (c, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import densela
from .densela import as_matrix, as_vector, masked_system, spd_factor
from .errors import IterationLimit, SingularSystem
from .nnls import nnls_gram

LEAVE = 0
ENTER = 1
TERMINATE = 2

# Columns walked together.  It bounds the (BLOCK, r, r) systems of a round;
# walking every column at once raised peak memory without saving time.
BLOCK = 256


@dataclass(frozen=True)
class PathEntry:
    """One breakpoint of the path.

    ``lam`` is the penalty value at which ``support`` stops being optimal
    (the lower end of its optimality interval).  ``solution`` is the
    unbiased refit on the support, zero elsewhere; ``error_sq`` its
    residual ||A x - b||^2 against the original system.  ``coeff_a`` and
    ``coeff_b`` reproduce the biased solution on the support as
    a - lambda * b for any lambda inside the interval.  ``cardinality``
    counts the nonzeros of ``solution``.
    """

    lam: float
    support: np.ndarray
    solution: np.ndarray
    error_sq: float
    cardinality: int
    coeff_a: np.ndarray
    coeff_b: np.ndarray


@dataclass
class RegularizationPath:
    """Ordered breakpoint entries, lambda nonincreasing from lambda_max to 0.

    ``truncated`` marks a path that ended early on a rank-deficient
    support or was rebuilt from a plain NNLS fallback; its terminal entry
    is still a valid feasible solution.
    """

    entries: list[PathEntry] = field(default_factory=list)
    truncated: bool = False

    def terminal(self) -> PathEntry:
        return self.entries[-1]


def lambda_max(ell: np.ndarray):
    """Smallest penalties for which the zero vector is optimal.

    ``ell`` holds one row of correlations A.T b per column.  Returns
    (lambda_max, entering index) per row; the index is the row's smallest
    maximizer.  A row whose correlations are all nonpositive has the zero
    vector optimal for all penalties: its lambda_max is 0.0 and its index
    -1, as next_breakpoint's index on TERMINATE.
    """
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape[1] == 0:
        return np.zeros(ell.shape[0]), np.full(ell.shape[0], -1)
    index = ell.argmax(axis=1)  # first maximum: smallest-index tie rule
    lam = ell[np.arange(ell.shape[0]), index]
    positive = lam > 0.0
    return np.where(positive, lam, 0.0), np.where(positive, index, -1)


def path_coefficients(P: np.ndarray, ell: np.ndarray, K: np.ndarray):
    """Coefficients (a, b, c, d) of the penalized solutions on the supports K.

    ``ell`` holds one row of correlations A.T b per column and ``K`` the
    matching (B, r) boolean support masks.  Row-wise, a - lambda * b is
    the penalized solution on the support and c - lambda * d the gradient
    on its complement.  Raises SingularSystem when some P(K,K) is
    numerically rank deficient; its ``matrices`` lists the offending rows,
    which callers must treat as degenerate supports.
    """
    if not K.any(axis=1).all():
        raise ValueError("every support must be nonempty")
    S = masked_system(P, K)
    spd_factor(S)
    rhs = np.stack([np.where(K, ell, 0.0), K.astype(np.float64)], axis=2)
    ab = np.linalg.solve(S, rhs)
    a = np.where(K, ab[:, :, 0], 0.0)
    b = np.where(K, ab[:, :, 1], 0.0)
    c = np.where(K, 0.0, a @ P - ell)
    d = np.where(K, 0.0, b @ P - 1.0)
    return a, b, c, d


def next_breakpoint(a, b, c, d, K, lambda_current, tol: float):
    """Largest penalties below ``lambda_current`` where the supports change.

    Returns (lambda_next, kind, index), one entry per row, with kind one
    of LEAVE, ENTER or TERMINATE and index the atom that leaves or enters
    (-1 on TERMINATE).  A LEAVE candidate is a support index with
    b < -tol, an ENTER candidate a complement index with d < -tol; among
    equal ratios the smallest index wins.  When no candidate has a
    positive crossing the support stays optimal all the way down and the
    row terminates at 0.  Exact ties between the two cases resolve to LEAVE.
    """
    rows = np.arange(K.shape[0])
    leave = np.full(K.shape, -np.inf)
    np.divide(a, b, out=leave, where=K & (b < -tol))
    enter = np.full(K.shape, -np.inf)
    np.divide(c, d, out=enter, where=~K & (d < -tol))
    i_leave = leave.argmax(axis=1)  # first maximum: smallest-index tie rule
    i_enter = enter.argmax(axis=1)
    lam_leave = leave[rows, i_leave]
    lam_enter = enter[rows, i_enter]
    is_leave = lam_leave >= lam_enter
    lam = np.where(is_leave, lam_leave, lam_enter)
    done = lam <= 0.0
    kind = np.where(done, TERMINATE, np.where(is_leave, LEAVE, ENTER))
    index = np.where(done, -1, np.where(is_leave, i_leave, i_enter))
    # Roundoff can push the ratio marginally above the current breakpoint;
    # treat that as a tie at lambda_current.
    return np.where(done, 0.0, np.minimum(lam, lambda_current)), kind, index


def unbias(P: np.ndarray, ell: np.ndarray, K: np.ndarray, a: np.ndarray,
           A: np.ndarray, B: np.ndarray, tol: float = 1e-10):
    """Penalty-free least-squares refits on the supports K.

    ``a`` holds the least-squares solutions on K, zero elsewhere (the
    ``a`` of path_coefficients).  A row keeps a when it is nonnegative;
    the rows where it is not are refit together by one call of the
    active-set solver, each restricted to its K.  Returns the (B, r)
    refits and their errors ||A x - b||^2 against the columns b of B, the
    original right-hand sides.
    """
    X = a.copy()
    infeasible = (a < 0.0).any(axis=1)
    if infeasible.any():
        X[infeasible] = nnls_gram(P, ell[infeasible], K[infeasible], tol=tol)
    resid = A @ X.T - B
    return X, np.einsum("ij,ij->j", resid, resid)


class PathWalk:
    """Regularization paths of every column of B over one dictionary A.

    Columns are walked BLOCK at a time, in lockstep, when
    regularization_path first asks for a column of the block.  A column
    whose path exceeds ``max_breakpoints`` (default 50 r) is recorded as
    such and raises IterationLimit when asked for.  ``refits`` counts the
    path entries of the blocks walked so far whose least-squares solution
    went negative, i.e. the rows unbias sent to the active-set solver.
    """

    def __init__(self, A, B, tol: float = 1e-10, max_breakpoints: int | None = None,
                 gram_matrix=None, corr=None):
        self.A = A
        self.B = B
        self.P = densela.gram(A) if gram_matrix is None else gram_matrix
        self.L = A.T @ B if corr is None else corr
        self.tol = tol
        r = self.P.shape[0]
        self.max_breakpoints = 50 * r if max_breakpoints is None else max_breakpoints
        self._paths = {}  # column -> RegularizationPath, or None past the limit
        self.refits = 0

    def _walk(self, start: int, stop: int) -> None:
        """Walk columns start..stop-1 in lockstep, one breakpoint per round."""
        P, tol = self.P, self.tol
        r = P.shape[0]
        ell = np.ascontiguousarray(self.L[:, start:stop].T)
        rhs = self.B[:, start:stop]
        width = stop - start
        tol_neg = tol * (1.0 + float(np.abs(P).max(initial=0.0)))
        none_idx = np.empty(0, dtype=np.int64)
        coeff0 = np.empty(0)
        lam, first = lambda_max(ell)
        entries = [[PathEntry(lam0, none_idx, np.zeros(r), float(b @ b), 0, coeff0, coeff0)]
                   for lam0, b in zip(lam.tolist(), rhs.T)]
        live = np.flatnonzero(first >= 0)
        K = np.zeros((width, r), dtype=bool)
        K[live, first[live]] = True
        tol_lam = tol * (1.0 + lam)
        truncated = np.zeros(width, dtype=bool)
        over = np.zeros(width, dtype=bool)

        rounds = 0
        while live.size:
            if rounds >= self.max_breakpoints:
                over[live] = True
                break
            KL = K[live]
            try:
                a, b, c, d = path_coefficients(P, ell[live], KL)
            except SingularSystem as exc:
                truncated[live[exc.matrices]] = True
                live = np.delete(live, exc.matrices)
                continue
            lam_next, kind, index = next_breakpoint(a, b, c, d, KL, lam[live], tol_neg)
            X, err = unbias(P, ell[live], KL, a, self.A, rhs[:, live], tol=tol)
            self.refits += int(np.count_nonzero((a < 0.0).any(axis=1)))
            lam_next[lam_next <= tol_lam[live]] = 0.0
            nnz = np.count_nonzero(X, axis=1).tolist()
            for i, (p, lam_i, err_i) in enumerate(zip(live, lam_next.tolist(), err.tolist())):
                k = KL[i].nonzero()[0]
                entries[p].append(PathEntry(lam_i, k, X[i], err_i, nnz[i], a[i, k], b[i, k]))
            go = (kind != TERMINATE) & (lam_next != 0.0)
            live = live[go]
            K[live, index[go]] ^= True
            lam[live] = lam_next[go]
            rounds += 1

        for p in range(width):
            self._paths[start + p] = None if over[p] else \
                RegularizationPath(entries[p], truncated=bool(truncated[p]))

    def path(self, j: int) -> RegularizationPath:
        if j not in self._paths:
            start = j - j % BLOCK
            self._walk(start, min(start + BLOCK, self.B.shape[1]))
        path = self._paths[j]
        if path is None:
            raise IterationLimit(f"path exceeded {self.max_breakpoints} breakpoints")
        return path


def regularization_path(A, b, tol: float = 1e-10, max_breakpoints: int | None = None,
                        gram_matrix=None, corr=None, walk: PathWalk | None = None,
                        column: int = 0) -> RegularizationPath:
    """Compute every breakpoint of the L1-penalized NNLS path for (A, b).

    Parameters
    ----------
    A : (m, r) array
        Dictionary.
    b : (m,) array
        Right-hand side.
    tol : float
        Base tolerance; negativity thresholds are scaled by (1 + max|P|)
        so ratios never divide by a near-zero coefficient.
    max_breakpoints : int, optional
        Safety cap on path length, default 50 r.  Exceeding it raises
        IterationLimit (pathological cycling); callers may fall back to a
        single NNLS solve.
    gram_matrix, corr : arrays, optional
        Precomputed A.T A and A.T b shared across many right-hand sides.
    walk, column : PathWalk and int, optional
        A walk over many right-hand sides of A, of which b is column
        ``column``.  The path is read from the walk, which walks the
        column's block on first use; the other arguments are the walk's.
        Without a walk, b is walked on its own.

    Returns
    -------
    RegularizationPath
        First entry (lambda_max, empty support, 0, ||b||^2); consecutive
        supports differ by one index; the last entry sits at lambda = 0
        and matches the unconstrained active-set NNLS solution.  On a
        rank-deficient support the path ends at the last sound entry with
        ``truncated`` set.
    """
    if walk is None:
        A = as_matrix(A, "A")
        b = as_vector(b, "b")
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]}")
        ell = None if corr is None else np.asarray(corr, dtype=np.float64)[:, None]
        walk = PathWalk(A, b[:, None], tol=tol, max_breakpoints=max_breakpoints,
                        gram_matrix=gram_matrix, corr=ell)
    return walk.path(column)
