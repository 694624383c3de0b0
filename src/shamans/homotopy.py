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
in lockstep, one breakpoint per round; block_width sizes the block so
that one round's arrays stay within one working-set budget.  Each column
carries G = P(K,K)^-1 across breakpoints by densela.carry_inverse, in
support ("slot") coordinates, as LARS and homotopy codes keep their
factor (Osborne, Presnell and Turlach, IMA J. Numer. Anal. 2000; Efron et
al., Ann. Statist. 2004): a (B, k) index names the atom in each slot, k
the largest support of the block's group of live columns, and G is a
(B, k, k) stack in that order.  A round solves for a and b on the slots
(densela.support_solve), and P gives c and d from them, so a round costs
O(k^2 + r k) per column.  A group whose stack would pass the budget walks
on in two halves.  The entries whose least-squares solution goes negative
are pooled across rounds and refit together by nnls_gram, which carries
their G on in the same layout.  No round touches the m rows of A or
b: with the thin QR factorization A = QR (Golub and Van Loan, Matrix
Computations, 5.3) computed once per walk, and z = Q.T b and
||b - Q z||^2 once per column, each refit's error is

    ||A x - b||^2 = ||b - Q z||^2 + ||z - R x||^2,

exactly, because b - Q z is orthogonal to range(A).  1/G_ii is the Schur
pivot of atom i against the rest of its support and bounds every
Cholesky pivot of P(K,K) from below.  A column whose smallest Schur
pivot falls below SCHUR_GUARD times the largest diagonal entry of P on
its support has G re-seeded from one checked factorization and inverse
of P(K,K), whose check decides whether the support is rank deficient.
next_breakpoint and the records take a (B, r) boolean support mask, one
row per column, and full-space (B, r) coefficient arrays that are zero
off the rows' supports (a, b) or on them (c, d).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import densela
from .densela import as_matrix, as_vector, carry_inverse, range_split, residual_sq, spd_factor
from .errors import IterationLimit, NonFiniteEntry, SingularSystem
from .nnls import check_tol, nnls_gram

LEAVE = 0
ENTER = 1
TERMINATE = 2

# Float64 entries in the largest temporary of a walk.  It bounds a block's
# width by one round's three (columns, 2, r) arrays, its right-hand sides,
# solutions and gradients, and by its records, 16 + 9 r bytes per column:
# 1,024 columns at r = 24, so wider blocks share each round's numpy calls.
# It bounds each group's (columns, k, k) inverses: a group that would pass
# it walks on with half its columns and sets the other half aside.  It
# bounds the refit pool, at most BUDGET // r^2 rows of (k, k) inverses,
# the block NNLS of PathWalk.nnls, BUDGET // r^2 rows of (r, r) inverses
# per call, and range_split's (columns, m) temporary.  The block's
# records, the walk's output, grow with its width times path length.
BUDGET = 256 * 24 * 24

# Smallest Schur pivot, relative to the largest diagonal entry of P on the
# support, at which the carried inverse is trusted.  It sits far above
# densela.PIVOT_FLOOR, so a support above it passes spd_factor's check with
# a wide margin, and one that would fail that check falls below it (the
# smallest Schur pivot is at most r times the smallest Cholesky pivot).
SCHUR_GUARD = 1e-6


def block_width(r: int) -> int:
    """Columns walked together over a dictionary of r atoms: as many as
    keep one round's three (columns, 2, r) arrays and its records, 16 + 9 r
    bytes per column, within BUDGET."""
    return max(1, BUDGET // max(6 * r, -(-path_dtype(r).itemsize // 8)))


def path_dtype(r: int) -> np.dtype:
    """Record type of one path entry over a dictionary of r atoms.

    ``lam`` is the penalty value at which ``support`` (an (r,) mask)
    stops being optimal, the lower end of its optimality interval.
    ``solution`` is the unbiased refit on the support, zero elsewhere,
    and ``error_sq`` its residual ||A x - b||^2 against the original
    system (b @ b on the zero entry, else from densela.residual_sq).
    Inside the interval the biased solution on the support K is
    P(K,K)^-1 (ell(K) - lambda), so the breakpoints and supports define
    the whole path.
    """
    return np.dtype([("lam", np.float64), ("error_sq", np.float64),
                     ("support", np.bool_, (r,)), ("solution", np.float64, (r,))])


@dataclass
class RegularizationPath:
    """Path entries as path_dtype records, lambda nonincreasing to 0.

    ``truncated`` marks a path that ended early on a rank-deficient
    support; its last entry is still a valid feasible solution.
    ``fallback`` marks a path that passed the breakpoint limit: it holds
    the zero entry and the NNLS solution at lambda = 0, nothing between
    (only the zero entry, with ``truncated`` set, when the NNLS meets a
    rank-deficient passive set).
    """

    entries: np.ndarray
    truncated: bool = False
    fallback: bool = False


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


def _support_inverse(P: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """P(K_i, K_i)^-1 for every row of the (B, k) slot index ``atoms``
    (carry_inverse's layout, P.shape[0] in an empty slot): a (B, k, k)
    stack in the rows' slot order, zero in the rows and columns of empty
    slots.

    Raises SingularSystem when some P(K_i, K_i) is numerically rank
    deficient; its ``matrices`` lists the offending rows, which callers
    must treat as degenerate supports.
    """
    # An empty slot's system is diagonal, equal to the largest diagonal entry
    # of P on K_i, so spd_factor's relative floor stays that of P(K_i, K_i).
    on = atoms < P.shape[0]
    S = np.pad(P, (0, 1))[atoms[:, :, None], atoms[:, None, :]]
    pad = np.where(on, np.diagonal(S, axis1=1, axis2=2), 0.0).max(axis=1, initial=0.0)
    slots = np.arange(atoms.shape[1])
    S[:, slots, slots] += np.where(on, 0.0, pad[:, None])
    spd_factor(S)
    G = np.where(on[:, :, None] & on[:, None, :], np.linalg.inv(S), 0.0)
    return 0.5 * (G + G.transpose(0, 2, 1))


def _below_guard(G: np.ndarray, atoms: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Rows whose smallest Schur pivot 1/G_ii on the support is below
    SCHUR_GUARD times the largest diagonal entry of P there (or is not a
    positive number).  ``diag`` is the diagonal of P with 0 appended, so
    that it reads 0 through an empty slot."""
    g = np.diagonal(G, axis1=1, axis2=2)
    bound = 1.0 / (SCHUR_GUARD * diag[atoms].max(axis=1, initial=0.0))
    return ~((g > 0.0) & (g <= bound[:, None]) | (atoms == diag.size - 1)).all(axis=1)


def _at_column(exc: IterationLimit, column: int) -> IterationLimit:
    """The IterationLimit of one row of a block solve, restated for the
    data column that row holds."""
    return IterationLimit(f"column {column} exceeded its active-set pivot limit",
                          row=exc.row, column=column)


def check_max_breakpoints(max_breakpoints) -> None:
    """Reject a breakpoint cap that is neither None nor a positive integer."""
    if max_breakpoints is not None and not (
            isinstance(max_breakpoints, numbers.Integral) and max_breakpoints > 0):
        raise ValueError("max_breakpoints must be a positive integer")


class PathWalk:
    """Regularization paths of every column of B over one dictionary A.

    Columns are walked block_width(r) at a time, in lockstep, when
    regularization_path first asks for a column of the block.  A column
    whose path exceeds ``max_breakpoints`` (default 50 r) ends at its NNLS
    solution with ``fallback`` set.  ``refits`` counts the path entries of
    the blocks walked so far whose least-squares solution went negative,
    i.e. the rows refit by nnls_gram, on the paths that keep them (not
    past the breakpoint limit).  An IterationLimit from an
    active-set solve, a refit's or a fallback's, leaves with ``column``
    set to the data column.  A.T A, A.T B and every column's b @ b must
    be finite: an overflow raises NonFiniteEntry before any walk.
    """

    def __init__(self, A, B, tol: float = 1e-10, max_breakpoints: int | None = None):
        check_tol(tol)
        check_max_breakpoints(max_breakpoints)
        self.Q, self.R = np.linalg.qr(A)
        self.B = B
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            self.P = densela.gram(A)
            self.L = A.T @ B
            # The zero entries' errors b @ b, all columns' dot products in one call.
            self.norm_sq = np.matmul(B.T[:, None, :], B.T[:, :, None])[:, 0, 0]
        if not all(np.isfinite(x).all() for x in (self.P, self.L, self.norm_sq)):
            raise NonFiniteEntry("A.T A, A.T B or the squared norm of a column of B "
                                 "overflows to a non-finite value")
        self.tol = tol
        r = self.P.shape[0]
        self.max_breakpoints = 50 * r if max_breakpoints is None else max_breakpoints
        self.block = block_width(r)  # columns walked together
        self._paths = {}  # column -> RegularizationPath
        self.refits = 0

    def _walk(self, start: int, stop: int) -> None:
        """Walk columns start..stop-1 in lockstep, one breakpoint per round.

        A group of columns carries four arrays, one row per live column:
        ``live`` (its column), ``lam``, the slot index ``atoms`` and the
        inverse ``G`` in slot coordinates; a column leaves them when its
        path ends.  The first atom enters a one-slot stack through
        carry_inverse, like every later one.  Each round reads the rest
        through ``live`` from arrays of the whole block, the right-hand
        sides (ell, 1) and the tolerances on lambda, rebuilds the support
        mask from ``atoms``, and recomputes the rows below the Schur guard,
        which it re-seeds before solving.  A group whose live columns times
        its slots squared could pass BUDGET this round walks on with its
        first half; the second half, set aside without its inverses, is
        re-seeded when its turn comes, and keeps its round count.  A round
        records every live column's least-squares solution as its refit;
        the entries where it goes negative are pooled with their G and
        atoms, and once the pool holds half its rows (the block's width or
        BUDGET // r^2, the smaller) one nnls_gram call refits them, padded
        to the pool's largest k, and rewrites their records.  The columns
        still live after ``max_breakpoints`` rounds of their group drop
        their records past the zero entry and end at the NNLS solution,
        found for all of them by ``nnls``.
        """
        P, tol = self.P, self.tol
        r = P.shape[0]
        Pz = np.pad(P, (0, 1))  # carry_inverse's layout: zero row and column at r
        diag = np.diagonal(Pz)
        ell = np.ascontiguousarray(self.L[:, start:stop].T)
        width = stop - start
        Z, perp_sq = self.range_split(start, stop)
        tol_neg = tol * (1.0 + float(np.abs(P).max(initial=0.0)))
        dtype = path_dtype(r)
        records, owners = [], []

        def record(cols, lam, err, K, X):
            """Append one entry per column in ``cols``: refit X, errors err."""
            records.append(np.empty(cols.size, dtype))
            for name, value in zip(dtype.names, (lam, err, K, X)):
                records[-1][name] = value
            owners.append(cols)

        pool = []  # (record array, its rows, columns, G, atoms) awaiting refits
        cap = min(width, max(1, BUDGET // max(1, r * r)))  # rows the pool holds
        refitted = np.zeros(width, dtype=np.int64)  # pooled entries per column

        def refit_pool():
            """Refit the pooled entries on their supports by one nnls_gram
            call, each started from its G, padded to the pool's largest k,
            and write their refits and errors into their records."""
            if not pool:
                return
            arrays, at, cols, inverses, slots = zip(*pool)
            cols = np.concatenate(cols)
            mask = np.concatenate([entries["support"][rows] for entries, rows in zip(arrays, at)])
            grow = [max(g.shape[1] for g in inverses) - g.shape[1] for g in inverses]
            G = np.concatenate([np.pad(g, ((0, 0), (0, t), (0, t)))
                                for g, t in zip(inverses, grow)])
            atoms = np.concatenate([np.pad(x, ((0, 0), (0, t)), constant_values=r)
                                    for x, t in zip(slots, grow)])
            try:
                X = nnls_gram(P, ell[cols], mask, tol=tol, inverse=(G, atoms))
            except IterationLimit as exc:
                raise _at_column(exc, start + int(cols[exc.row])) from exc
            err = residual_sq(self.R, Z[cols], perp_sq[cols], X)
            ends = np.cumsum([rows.size for rows in at])[:-1]
            for entries, rows, x, e in zip(arrays, at, np.split(X, ends), np.split(err, ends)):
                entries["solution"][rows] = x
                entries["error_sq"][rows] = e
            pool.clear()

        lam, first = lambda_max(ell)  # the zero entries
        record(np.arange(width), lam, self.norm_sq[start:stop], False, 0.0)
        tol_lam = tol * (1.0 + lam)
        # Row i holds the right-hand sides (ell, 1) of column i's pair (a, b),
        # and 0 at index r, where an empty slot reads.
        pairs = np.zeros((width, 2, r + 1))
        pairs[:, 0, :r] = ell
        pairs[:, 1, :r] = 1.0
        live = np.flatnonzero(first >= 0)
        G, atoms, _ = carry_inverse(Pz, np.zeros((live.size, 1, 1)), np.full((live.size, 1), r),
                                    np.ones(live.size, dtype=bool), first[live])
        truncated = np.zeros(width, dtype=bool)
        over = np.zeros(width, dtype=bool)

        groups = [(0, live, lam[live], atoms, G)]  # (rounds walked, live, lam, atoms, G)
        while groups:
            rounds, live, lam, atoms, G = groups.pop()
            if G is None:  # set aside by a split: every row fails the guard
                G = np.zeros((live.size,) + 2 * atoms.shape[1:])
            while live.size:
                if rounds >= self.max_breakpoints:
                    over[live] = True
                    break
                if live.size > 1 and live.size * min(atoms.shape[1] + 1, r) ** 2 > BUDGET:
                    # An entering atom may add a slot: walk on with the first
                    # half, and set the second aside without its inverses.
                    half = live.size // 2
                    groups.append((rounds, live[half:], lam[half:], atoms[half:], None))
                    live, lam, atoms, G = live[:half], lam[:half], atoms[:half], G[:half].copy()
                    continue
                redo = np.flatnonzero(_below_guard(G, atoms, diag))
                if redo.size:
                    try:
                        G[redo] = _support_inverse(P, atoms[redo])
                    except SingularSystem as exc:
                        keep = np.ones(live.size, dtype=bool)
                        keep[redo[exc.matrices]] = False
                        truncated[live[~keep]] = True
                        live, lam, atoms, G = (x[keep] for x in (live, lam, atoms, G))
                        continue
                rhs2 = pairs[live]
                full = densela.support_solve(Pz, G, atoms, rhs2)
                grad = (full.reshape(-1, r + 1) @ Pz).reshape(full.shape) - rhs2
                K = np.zeros((live.size, r + 1), dtype=bool)
                K[np.arange(live.size)[:, None], atoms] = True
                K = K[:, :r]
                a, b = full[:, 0, :r], full[:, 1, :r]
                c = np.where(K, 0.0, grad[:, 0, :r])
                d = np.where(K, 0.0, grad[:, 1, :r])
                lam_next, kind, index = next_breakpoint(a, b, c, d, K, lam, tol_neg)
                lam_next[lam_next <= tol_lam[live]] = 0.0
                record(live, lam_next, residual_sq(self.R, Z[live], perp_sq[live], a), K, a)
                negative = np.flatnonzero((a < 0.0).any(axis=1))
                refitted[live[negative]] += 1
                for rows in (negative[i:i + cap] for i in range(0, negative.size, cap)):
                    if sum(held.size for _, held, _, _, _ in pool) + rows.size > cap:
                        refit_pool()
                    pool.append((records[-1], rows, live[rows], G[rows], atoms[rows]))
                    if 2 * sum(held.size for _, held, _, _, _ in pool) >= cap:
                        refit_pool()
                go = (kind != TERMINATE) & (lam_next != 0.0)
                if not go.all():
                    live, atoms, G = (x[go] for x in (live, atoms, G))
                G, atoms, _ = carry_inverse(Pz, G, atoms, kind[go] == ENTER, index[go])
                lam = lam_next[go]
                rounds += 1
        refit_pool()  # before the records past the limit are dropped
        self.refits += int(refitted[~over].sum())

        fell = np.flatnonzero(over)
        if fell.size:  # past the limit a path keeps only its zero entry of the walk
            for i in range(1, len(records)):
                keep = ~over[owners[i]]
                records[i], owners[i] = records[i][keep], owners[i][keep]
            X, singular = self.nnls(start + fell)
            truncated[fell[singular]] = True
            X, fell = X[~singular], fell[~singular]
            record(fell, 0.0, residual_sq(self.R, Z[fell], perp_sq[fell], X), X > 0.0, X)

        # Records come in round order, each column at most once per round, so
        # scattering them round by round to the next free slot of their column
        # makes each path one slice.  Each round's array is dropped once
        # scattered, while the pages of the entry array are being filled.
        counts = np.bincount(np.concatenate(owners), minlength=width)
        ends = np.cumsum(counts)
        slot = ends - counts
        entries = np.empty(int(ends[-1]), dtype)
        records.reverse()
        for cols in owners:
            entries[slot[cols]] = records.pop()
            slot[cols] += 1
        ends = ends.tolist()
        for p, (lo, hi, cut, capped) in enumerate(zip([0] + ends, ends, truncated.tolist(),
                                                      over.tolist())):
            self._paths[start + p] = RegularizationPath(entries[lo:hi], truncated=cut,
                                                        fallback=capped)

    def range_split(self, start: int, stop: int):
        """densela.range_split of columns start..stop-1 of B, BUDGET // m columns
        at a time to bound its (columns, m) temporary."""
        step = max(1, BUDGET // max(1, self.B.shape[0]))
        return tuple(map(np.concatenate, zip(*(
            range_split(self.Q, self.B[:, i:min(i + step, stop)])
            for i in range(start, stop, step)))))

    def nnls(self, cols: np.ndarray):
        """NNLS optima of the data columns ``cols`` by the block active-set
        solver, BUDGET // r^2 rows per call, so that its (rows, r, r)
        inverses stay within BUDGET.

        Returns (X, singular): row i of X solves column cols[i], and is
        zero where ``singular`` marks a column whose passive set became rank
        deficient; those rows are deleted from their call and the rest
        solved again.  An IterationLimit leaves with ``column`` set.
        """
        r = self.P.shape[0]
        X = np.zeros((cols.size, r))
        singular = np.zeros(cols.size, dtype=bool)
        step = max(1, BUDGET // (r * r))
        for lo in range(0, cols.size, step):
            rows = np.arange(lo, min(lo + step, cols.size))
            while rows.size:
                try:
                    X[rows] = nnls_gram(self.P, self.L.T[cols[rows]], tol=self.tol)
                    break
                except SingularSystem as exc:
                    singular[rows[exc.matrices]] = True
                    rows = np.delete(rows, exc.matrices)
                except IterationLimit as exc:
                    raise _at_column(exc, int(cols[rows[exc.row]])) from exc
        return X, singular

    def path(self, j: int) -> RegularizationPath:
        if j not in self._paths:
            n = self.B.shape[1]
            if not 0 <= j < n:
                raise IndexError(f"column {j} is out of range for a walk over {n} columns")
            start = j - j % self.block
            self._walk(start, min(start + self.block, n))
        return self._paths[j]


def regularization_path(A, b, tol: float = 1e-10, max_breakpoints: int | None = None,
                        walk: PathWalk | None = None, column: int = 0) -> RegularizationPath:
    """Every breakpoint of the L1-penalized NNLS path of the (m, r)
    dictionary A and the (m,) right-hand side b.

    ``tol`` is the base tolerance; negativity thresholds are scaled by
    (1 + max|P|) so ratios never divide by a near-zero coefficient.  A
    path longer than ``max_breakpoints`` (default 50 r) is replaced by the
    two entries at its ends, the zero solution and the NNLS solution, with
    ``fallback`` set.  Given a PathWalk over many right-hand sides of A, of
    which b is column ``column``, the path is read from the walk (which
    walks the column's block on first use) and the other arguments are the
    walk's.

    The first entry is (lambda_max, ||b||^2, empty support, 0), in
    path_dtype's field order (lam, error_sq, support, solution);
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
