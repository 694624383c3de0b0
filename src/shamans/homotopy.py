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
in lockstep, one breakpoint per round.  Each column carries G = P(K,K)^-1,
zero off K, across breakpoints by densela.carry_inverse, so a round costs
O(r^2) per column: G and one step of iterative refinement give a and b,
P gives c and d, and nnls_gram, started from G, refits the supports whose
least-squares solution goes negative.  1/G_ii is the Schur pivot of atom
i against the rest of its support and bounds every Cholesky pivot of
P(K,K) from below.  A column whose smallest Schur pivot falls below
SCHUR_GUARD times the largest diagonal entry of P on its support has G
re-seeded from one checked factorization and inverse of P(K,K), whose
check decides whether the support is rank deficient.  The kernels take a
(B, r) boolean support mask, one row per column, and full-space (B, r)
coefficient arrays that are zero off the rows' supports (a, b) or on
them (c, d).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import densela
from .densela import as_matrix, as_vector, carry_inverse, spd_factor
from .errors import IterationLimit, SingularSystem
from .nnls import nnls_gram

LEAVE = 0
ENTER = 1
TERMINATE = 2

# Columns walked together.  It bounds the (BLOCK, r, r) inverses a walk
# carries; walking every column at once raised peak memory without saving time.
BLOCK = 256

# Smallest Schur pivot, relative to the largest diagonal entry of P on the
# support, at which the carried inverse is trusted.  It sits far above
# densela.PIVOT_FLOOR, so a support above it passes spd_factor's check with
# a wide margin, and one that would fail that check falls below it (the
# smallest Schur pivot is at most r times the smallest Cholesky pivot).
SCHUR_GUARD = 1e-6


def path_dtype(r: int) -> np.dtype:
    """Record type of one path entry over a dictionary of r atoms.

    ``lam`` is the penalty value at which ``support`` (an (r,) mask)
    stops being optimal, the lower end of its optimality interval.
    ``solution`` is the unbiased refit on the support, zero elsewhere;
    ``error_sq`` its residual ||A x - b||^2 against the original system
    and ``cardinality`` its number of nonzeros.  ``coeff_a`` and
    ``coeff_b`` are zero off the support and give the biased solution as
    a - lambda * b for any lambda inside the interval.
    """
    return np.dtype([("lam", np.float64), ("cardinality", np.int64), ("error_sq", np.float64),
                     ("support", np.bool_, (r,)), ("solution", np.float64, (r,)),
                     ("coeff_a", np.float64, (r,)), ("coeff_b", np.float64, (r,))])


@dataclass
class RegularizationPath:
    """Path entries as path_dtype records, lambda nonincreasing to 0.

    ``truncated`` marks a path that ended early on a rank-deficient
    support or was rebuilt from a plain NNLS fallback; its last entry is
    still a valid feasible solution.
    """

    entries: np.ndarray
    truncated: bool = False


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


def unbias(P: np.ndarray, ell: np.ndarray, K: np.ndarray, a: np.ndarray, G: np.ndarray,
           A: np.ndarray, B: np.ndarray, tol: float = 1e-10):
    """Penalty-free least-squares refits on the supports K.

    ``a`` holds the least-squares solutions on K and G the (B, r, r)
    inverses P(K_i, K_i)^-1, both zero off K (a is the ``coeff_a`` of a
    path entry).  A row keeps a when it is nonnegative; the rows where it
    is not are refit together by one call of the active-set solver, each
    restricted to its K and started from its G.  Returns the (B, r)
    refits, their errors ||A x - b||^2 against the columns b of B (the
    original right-hand sides), and the number of rows refit.
    """
    X = a.copy()
    infeasible = (a < 0.0).any(axis=1)
    if infeasible.any():
        X[infeasible] = nnls_gram(P, ell[infeasible], K[infeasible], tol=tol,
                                  inverse=G[infeasible])
    resid = A @ X.T - B
    return X, np.einsum("ij,ij->j", resid, resid), int(np.count_nonzero(infeasible))


def _support_inverse(P: np.ndarray, K: np.ndarray) -> np.ndarray:
    """P(K_i, K_i)^-1 for every row of the (B, r) support mask K, embedded
    in a (B, r, r) stack that is zero off K_i.

    Raises SingularSystem when some P(K_i, K_i) is numerically rank
    deficient; its ``matrices`` lists the offending rows, which callers
    must treat as degenerate supports.
    """
    # Off K_i the system is diagonal, equal to the largest diagonal entry
    # of P on K_i, so spd_factor's relative floor stays that of P(K_i, K_i).
    on = K[:, :, None] & K[:, None, :]
    S = np.where(on, P, 0.0)
    pad = np.where(K, np.diagonal(P), 0.0).max(axis=1)
    diagonal = np.arange(K.shape[1])
    S[:, diagonal, diagonal] += np.where(K, 0.0, pad[:, None])
    spd_factor(S)
    G = np.where(on, np.linalg.inv(S), 0.0)
    return 0.5 * (G + G.transpose(0, 2, 1))


def _below_guard(G: np.ndarray, K: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Rows whose smallest Schur pivot 1/G_ii on the support is below
    SCHUR_GUARD times the largest diagonal entry of P there (or is not a
    positive number)."""
    g = np.diagonal(G, axis1=1, axis2=2)
    bound = 1.0 / (SCHUR_GUARD * np.where(K, diag, 0.0).max(axis=1, initial=0.0))
    return ~((g > 0.0) & (g <= bound[:, None]) | ~K).all(axis=1)


def check_max_breakpoints(max_breakpoints) -> None:
    """Reject a breakpoint cap that is neither None nor a positive integer."""
    if max_breakpoints is not None and not (
            isinstance(max_breakpoints, numbers.Integral) and max_breakpoints > 0):
        raise ValueError("max_breakpoints must be a positive integer")


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
        if not tol > 0:  # also NaN
            raise ValueError("tol must be positive")
        check_max_breakpoints(max_breakpoints)
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
        """Walk columns start..stop-1 in lockstep, one breakpoint per round.

        The arrays indexed by row describe the live columns ``live`` only;
        a column leaves them when its path ends.
        """
        P, tol = self.P, self.tol
        r = P.shape[0]
        diag = np.diagonal(P)
        ell = np.ascontiguousarray(self.L[:, start:stop].T)
        rhs = self.B[:, start:stop]
        width = stop - start
        tol_neg = tol * (1.0 + float(np.abs(P).max(initial=0.0)))
        dtype = path_dtype(r)
        lam, first = lambda_max(ell)
        zero = np.zeros(width, dtype)
        zero["lam"] = lam
        zero["error_sq"] = [b @ b for b in rhs.T]
        records, owners = [zero], [np.arange(width)]
        live = np.flatnonzero(first >= 0)
        lam, first = lam[live], first[live]
        # Row i holds the right-hand sides (ell, 1) of the pair (a, b).
        rhs2 = np.stack((ell[live], np.ones((live.size, r))), axis=1)
        rows = np.arange(live.size)
        K = np.zeros((live.size, r), dtype=bool)
        K[rows, first] = True
        G = np.zeros((live.size, r, r))
        G[rows, first, first] = 1.0 / diag[first]
        fresh = _below_guard(G, K, diag)
        tol_lam = tol * (1.0 + lam)
        truncated = np.zeros(width, dtype=bool)
        over = np.zeros(width, dtype=bool)

        rounds = 0
        while live.size:
            ell = rhs2[:, 0]
            if rounds >= self.max_breakpoints:
                over[live] = True
                break
            redo = np.flatnonzero(fresh)
            if redo.size:
                try:
                    G[redo] = _support_inverse(P, K[redo])
                except SingularSystem as exc:
                    keep = np.ones(live.size, dtype=bool)
                    keep[redo[exc.matrices]] = False
                    truncated[live[~keep]] = True
                    live, rhs2, lam, tol_lam, K, G, fresh = (
                        x[keep] for x in (live, rhs2, lam, tol_lam, K, G, fresh))
                    continue
            # x.G is G x (G is symmetric).  One step of iterative refinement
            # keeps a and b as accurate as a fresh solve.
            ab = np.matmul(rhs2, G)
            grad = (ab.reshape(-1, r) @ P).reshape(ab.shape) - rhs2
            ab -= np.matmul(np.where(K[:, None, :], grad, 0.0), G)
            grad = (ab.reshape(-1, r) @ P).reshape(ab.shape) - rhs2
            a, b = ab[:, 0], ab[:, 1]
            c = np.where(K, 0.0, grad[:, 0])
            d = np.where(K, 0.0, grad[:, 1])
            lam_next, kind, index = next_breakpoint(a, b, c, d, K, lam, tol_neg)
            X, err, refits = unbias(P, ell, K, a, G, self.A, rhs[:, live], tol=tol)
            self.refits += refits
            lam_next[lam_next <= tol_lam] = 0.0
            records.append(np.empty(live.size, dtype))
            for name, value in zip(dtype.names, (lam_next, np.count_nonzero(X, axis=1),
                                                 err, K, X, a, b)):
                records[-1][name] = value
            owners.append(live)
            go = (kind != TERMINATE) & (lam_next != 0.0)
            if not go.all():
                live, rhs2, tol_lam, K, G = (x[go] for x in (live, rhs2, tol_lam, K, G))
            carry_inverse(P, G, K, kind[go] == ENTER, index[go])
            fresh = _below_guard(G, K, diag)
            lam = lam_next[go]
            rounds += 1

        # Records come in round order; a stable sort makes each path one slice.
        # dtype= spares numpy resolving the record type once per round.
        owner = np.concatenate(owners)
        entries = np.concatenate(records, dtype=dtype)[np.argsort(owner, kind="stable")]
        ends = np.cumsum(np.bincount(owner, minlength=width))[:-1]
        for p, path in enumerate(np.split(entries, ends)):
            self._paths[start + p] = None if over[p] else \
                RegularizationPath(path, truncated=bool(truncated[p]))

    def path(self, j: int) -> RegularizationPath:
        if j not in self._paths:
            start = j - j % BLOCK
            self._walk(start, min(start + BLOCK, self.B.shape[1]))
        path = self._paths[j]
        if path is None:
            raise IterationLimit(f"path exceeded {self.max_breakpoints} breakpoints")
        return path


def regularization_path(A, b, tol: float = 1e-10, max_breakpoints: int | None = None,
                        walk: PathWalk | None = None, column: int = 0) -> RegularizationPath:
    """Every breakpoint of the L1-penalized NNLS path of the (m, r)
    dictionary A and the (m,) right-hand side b.

    ``tol`` is the base tolerance; negativity thresholds are scaled by
    (1 + max|P|) so ratios never divide by a near-zero coefficient.  A
    path longer than ``max_breakpoints`` (default 50 r) raises
    IterationLimit; callers may fall back to a single NNLS solve.  Given a
    PathWalk over many right-hand sides of A, of which b is column
    ``column``, the path is read from the walk (which walks the column's
    block on first use) and the other arguments are the walk's.

    The first entry is (lambda_max, empty support, 0, ||b||^2);
    consecutive supports differ by one index; the last entry sits at
    lambda = 0 with the unconstrained NNLS solution.  On a rank-deficient
    support the path ends at the last sound entry with ``truncated`` set.
    """
    if walk is None:
        A = as_matrix(A, "A")
        b = as_vector(b, "b")
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]}")
        walk = PathWalk(A, b[:, None], tol=tol, max_breakpoints=max_breakpoints)
    return walk.path(column)
