"""Regularization paths of the L1-penalized NNLS problem, many right-hand sides at once.

For min 0.5 ||Ax - b||^2 + lambda ||x||_1 with x >= 0, the optimal support
is piecewise constant in lambda.  Walking lambda down to 0 from the
largest correlation max_i (A.T b)_i, above which x = 0 is optimal, the
support changes one index at a time at a finite set of breakpoints.  On
the interval where a support K is optimal, the penalized solution is
linear in lambda:

    x(K) = a_K - lambda * b_K,   a_K = P(K,K)^-1 ell(K),  b_K = P(K,K)^-1 e,

with P = A.T A and ell = A.T b.  The interval ends at the largest lambda
where either some x(K) component hits zero (that index leaves) or some
complement gradient component

    c_K - lambda * d_K,  c_K = P(Kbar,K) a_K - ell(Kbar),
                         d_K = P(Kbar,K) b_K - e

hits zero (that index enters).  Each recorded entry pairs a support with
the breakpoint at which it stops being optimal, together with the unbiased
(penalty-free) least-squares refit on that support, from the zero
solution on the empty support (there a = b = 0, c = -ell and d = -e)
to the NNLS solution at lambda = 0.

Every right-hand side shares P, so the walk advances a block of columns
in lockstep, one breakpoint per round; block_width sizes the block so
that one round's arrays stay within one working-set budget.  Each column
carries G = P(K,K)^-1 across breakpoints by densela.carry_inverse, in
support ("slot") coordinates, as LARS and homotopy codes keep their
factor (Osborne, Presnell and Turlach, IMA J. Numer. Anal. 2000; Efron et
al., Ann. Statist. 2004): a (B, k) index names the atom in each slot, k
the largest support of the block's live columns so far, and G is a
(B, k, k) stack in that order.  A round solves for a and b on the slots
(densela.support_solve), and P gives c and d from them, so a round costs
O(k^2 + r k) per column; round 0, on one empty slot, makes the zero
entry.  The entries whose least-squares solution goes
negative are pooled across rounds until they fill half the block's
width, then refit together by nnls_gram, which starts from the
least-squares solutions their rounds recorded and carries their G on in
the same layout.  No round touches the m rows of A or b: with the thin QR
factorization A = QR (Golub and Van Loan, Matrix Computations, 5.3)
computed once per walk, and z = Q.T b and ||b - Q z||^2 once per column,
each entry's error is

    ||A x - b||^2 = ||b - Q z||^2 + ||z - R x||^2,

exactly, because b - Q z is orthogonal to range(A).  An entering atom
whose update carry_inverse finds unsound (its rank rule) makes the
support rank deficient, and the path ends at its NNLS entry instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import densela
# spd_factor is not called here; perfbench/test_perfbench.py asserts this binding.
from .densela import (BUDGET, TOL, as_matrix, as_vector, carry_inverse, range_split,
                      residual_sq, spd_factor)
from .errors import IterationLimit
from .nnls import nnls_gram

LEAVE = 0
ENTER = 1
TERMINATE = 2

# densela.BUDGET, a walk's working set in float64 entries, bounds two
# things: a block's width, by one round's three (columns, 2, r) arrays,
# its right-hand sides, solutions and gradients (1,024 columns at r = 24,
# so wider blocks share each round's numpy calls), and PathWalk's passes
# over B, a scaled chunk and its one temporary at a time: (m, BUDGET // 2m)
# in a walk's split and (BUDGET // 2n, n) in error_sq.  The inverse stacks
# are bounded by the block instead, at width r^2 entries on full supports,
# 4 BUDGET at r = 24: the live columns' (columns, k, k) and one
# PathWalk.nnls call's (columns, r, r); the refit pool holds under 1.5
# widths of (k, k).  The block's records, 16 + 9 r bytes per column and
# round (under one round's arrays), are the walk's output and grow with its
# width times path length.


def block_width(r: int) -> int:
    """Columns walked together over a dictionary of r atoms (BUDGET)."""
    return max(1, BUDGET // (6 * max(r, 1)))


def path_dtype(r: int) -> np.dtype:
    """Record type of one path entry over a dictionary of r atoms.

    ``lam`` is the penalty value at which ``support`` (an (r,) mask)
    stops being optimal, the lower end of its optimality interval.
    ``solution`` is the unbiased refit on the support, zero elsewhere,
    and ``error_sq`` its residual ||A x - b||^2 against the original
    system, from densela.residual_sq.
    """
    return np.dtype([("lam", np.float64), ("error_sq", np.float64),
                     ("support", np.bool_, (r,)), ("solution", np.float64, (r,))])


@dataclass
class RegularizationPath:
    """Path entries as path_dtype records, lambda nonincreasing to 0.

    A path ended early keeps its walked entries and then ends at the NNLS
    solution at lambda = 0: ``truncated`` marks one that met a
    rank-deficient support, ``fallback`` one that passed the breakpoint
    limit.
    """

    entries: np.ndarray
    truncated: bool = False
    fallback: bool = False


def next_breakpoint(a, b, c, d, K, lambda_current, leave_tol: float, enter_tol: float):
    """Largest penalties below ``lambda_current`` where the supports change.

    Returns (lambda_next, kind, index), one entry per row, with kind one
    of LEAVE, ENTER or TERMINATE and index the atom that leaves or enters
    (-1 on TERMINATE).  A LEAVE candidate is a support index i with
    b_i < -leave_tol, an ENTER candidate a complement index i with
    d_i < -enter_tol (the walk passes TOL / max|P| for b, in units of 1/P,
    and TOL for d, which has none); among equal ratios the smallest index
    wins.  Only the support's cells of ``a`` and ``b`` and the
    complement's cells of ``c`` and ``d`` are read: the others may hold
    anything, zeros included.  When no candidate has a positive crossing
    the support stays optimal all the way down and the row terminates at
    0.  Exact ties between the two cases resolve to LEAVE.
    """
    n, r = K.shape
    # Each row's leave ratios, then its enter ratios: the first maximum of the
    # row is then its smallest leaving index on a tie.  Every ratio is taken;
    # fmin against a bound of -inf, which ignores a NaN, then clears each cell
    # that holds no candidate, and a bound of +inf keeps each one that does.
    den = np.concatenate((b, d), axis=1)
    ratio = np.concatenate((a, c), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= den
        candidate = np.concatenate((K & (b < -leave_tol), ~K & (d < -enter_tol)), axis=1)
        bound = np.subtract(candidate, 0.5, out=den)
    bound *= np.inf
    np.fmin(ratio, bound, out=ratio)
    best = ratio.argmax(axis=1)
    lam = ratio[np.arange(n), best]
    kind, index = np.divmod(best, r)  # LEAVE = 0 and ENTER = 1
    done = lam <= 0.0
    kind[done] = TERMINATE
    index[done] = -1
    # Roundoff can push the ratio marginally above the current breakpoint;
    # treat that as a tie at lambda_current.
    return np.where(done, 0.0, np.minimum(lam, lambda_current)), kind, index


def _at_column(exc: IterationLimit, column: int) -> IterationLimit:
    """The IterationLimit of one row of a block solve, restated for the
    data column that row holds."""
    return IterationLimit(f"column {column} exceeded its active-set pivot limit",
                          row=exc.row, column=column)


class PathWalk:
    """Regularization paths of every column of B over one dictionary A.

    Columns are walked block_width(r) at a time, in lockstep, when
    regularization_path first asks for a column of the block.  A column
    whose path exceeds ``max_breakpoints``, 50 r, ends early with
    ``fallback`` set (RegularizationPath); the cap only guards against
    cycling, and no argument sets it.  ``refits`` and ``stats`` say what
    the blocks walked so far did, as mnnls.UnmixReport's ``refits`` and
    ``walk``.  An IterationLimit from an active-set solve, a refit's or a
    fallback's, leaves with ``column`` set to the data column.

    A and B are read row-major (densela.as_matrix), so their layout changes
    no result.  The walk runs on A 2^-a and B 2^-b, ``exponents`` (a, b)
    from densela.exponent (which raises NonFiniteEntry on a NaN or infinite
    entry), so P, A.T B and ||b||^2 are at most m.  It holds A 2^-a, its
    thin QR factors Q and R, P, L and B as given, which must not change: a
    block's range_split, which every entry's error is measured from, is
    taken from B when it is walked.  All but B is in the walk's units, as
    are what nnls and error_sq return and the paths, whose lam, error_sq
    and solution are A's and B's times 2^-(a+b), 2^-2b and 2^(a-b).  No
    threshold has an absolute term (next_breakpoint, nnls_gram; a
    breakpoint at or below TOL times the zero entry's lam is 0), so no
    power-of-two scale of A or B changes a decision.
    """

    def __init__(self, A, B):
        A, B = as_matrix(A, "the dictionary"), as_matrix(B, "the data")
        if A.shape[0] != B.shape[0]:
            raise ValueError(f"the dictionary has {A.shape[0]} rows but the data has {B.shape[0]}")
        a, b = self.exponents = (densela.exponent(A, "the dictionary"),
                                 densela.exponent(B, "the data"))
        self.A = np.ldexp(A, -a)
        self.Q, self.R = np.linalg.qr(self.A)
        self.P = densela.gram(self.A)
        self.L = np.ldexp(self.A, -b).T @ B  # A.T B 2^-b, with no scaled copy of B
        self.B = B
        r = self.P.shape[0]
        self.max_breakpoints = 50 * r
        self.block = block_width(r)  # columns walked together
        self._paths = {}  # column -> RegularizationPath
        self.refits = 0
        self.stats = {"rounds": 0, "refit_calls": 0, "refit_ms": 0.0, "fallback_calls": 0}

    def _walk(self, start: int, stop: int) -> None:
        """Walk columns start..stop-1 in lockstep, one breakpoint per round.

        The block carries four arrays, one row per live column:
        ``live`` (its column), ``lam``, the slot index ``atoms`` and the
        inverse ``G`` in slot coordinates; a column leaves them when its
        path ends.  Each column starts on one empty slot, so that round 0
        records its zero entry and enters its first atom.  Each round
        records every live column's least-squares solution as its refit,
        pools the entries where it goes negative, whole with their G and
        atoms, for refit_pool once they fill half the block's width, and
        carries G to the next support.  A column whose update carry_inverse
        finds unsound (its rank rule) leaves the walk truncated, and the
        columns still live after round
        ``max_breakpoints`` fall back; both keep their records and end at
        the NNLS solution, found by one ``nnls`` call.
        """
        P = self.P
        r = P.shape[0]
        Pz = np.pad(P, (0, 1))  # carry_inverse's layout: zero row and column at r
        ell = np.ascontiguousarray(self.L[:, start:stop].T)
        width = stop - start
        # range_split, BUDGET // 2m columns at a time: each block of B is scaled,
        # row by row, into a row-major (m, columns) array, which range_split's
        # residual matches in size.
        step = max(1, BUDGET // max(1, 2 * self.B.shape[0]))
        blocks = (np.ldexp(self.B[:, i:min(i + step, stop)], -self.exponents[1])
                  for i in range(start, stop, step))
        Z, perp_sq = map(np.concatenate, zip(*(range_split(self.Q, x) for x in blocks)))
        # next_breakpoint's thresholds: TOL in the units of b (1/P), then of d.
        with np.errstate(divide="ignore"):  # P = 0 leaves no column live
            leave_tol = TOL / np.abs(P).max(initial=0.0)
        dtype = path_dtype(r)
        records, owners = [], []

        def record(cols, lam, err, K, X):
            """Append one entry per column in ``cols``: refit X, errors err."""
            records.append(np.empty(cols.size, dtype))
            for name, value in zip(dtype.names, (lam, err, K, X)):
                records[-1][name] = value
            owners.append(cols)

        pool = []  # (record array, its rows, columns, G, atoms) awaiting refits

        def refit_pool():
            """Refit the pooled entries on their supports by one nnls_gram
            call, each started from its recorded least-squares solution and
            its G, padded to the pool's largest k, and write their refits
            and errors into their records."""
            if not pool:
                return
            arrays, at, cols, inverses, slots = zip(*pool)
            cols = np.concatenate(cols)
            mask, Z0 = (np.concatenate([entries[name][rows] for entries, rows in zip(arrays, at)])
                        for name in ("support", "solution"))  # least squares, before the refit
            k = max(g.shape[1] for g in inverses)
            G, atoms = np.zeros((cols.size, k, k)), np.full((cols.size, k), r)
            ends = np.cumsum([rows.size for rows in at]).tolist()
            for lo, hi, g, x in zip([0] + ends, ends, inverses, slots):
                G[lo:hi, :g.shape[1], :g.shape[1]] = g
                atoms[lo:hi, :x.shape[1]] = x
            clock = time.perf_counter()
            try:
                X = nnls_gram(P, ell[cols], mask, start=(G, atoms, Z0))
            except IterationLimit as exc:
                raise _at_column(exc, start + int(cols[exc.row])) from exc
            self.stats["refit_ms"] += (time.perf_counter() - clock) * 1e3
            self.stats["refit_calls"] += 1
            self.refits += cols.size
            err = residual_sq(self.R, Z[cols], perp_sq[cols], X)
            for entries, rows, x, e in zip(arrays, at, np.split(X, ends[:-1]),
                                           np.split(err, ends[:-1])):
                entries["solution"][rows] = x
                entries["error_sq"][rows] = e
            pool.clear()

        # Row i holds the right-hand sides (ell, 1) of column i's pair (a, b),
        # and 0 at index r, where an empty slot reads: a, b, c and d are 0
        # there, so index r is never a candidate.
        pairs = np.zeros((width, 2, r + 1))
        pairs[:, 0, :r] = ell
        pairs[:, 1, :r] = 1.0
        # Round 0 starts each column on one empty slot at lam = inf.  A
        # breakpoint at or below TOL max(ell, 0), the zero entry's lam, is 0.
        live, lam = np.arange(width), np.inf
        G, atoms = np.zeros((width, 1, 1)), np.full((width, 1), r)
        tol_lam = TOL * ell.max(axis=1, initial=0.0)
        truncated = np.zeros(width, dtype=bool)
        over = np.zeros(width, dtype=bool)

        rounds = 0
        while live.size and rounds <= self.max_breakpoints:
            rhs2 = pairs[live]
            full = densela.support_solve(Pz, G, atoms, rhs2)
            grad = (full.reshape(-1, r + 1) @ Pz).reshape(full.shape)
            grad -= rhs2
            K = np.zeros((live.size, r + 1), dtype=bool)
            K.reshape(-1)[atoms + (r + 1) * np.arange(live.size)[:, None]] = True
            lam_next, kind, index = next_breakpoint(full[:, 0], full[:, 1], grad[:, 0],
                                                    grad[:, 1], K, lam, leave_tol, TOL)
            lam_next[lam_next <= tol_lam[live]] = 0.0
            a = full[:, 0, :r]
            record(live, lam_next, residual_sq(self.R, Z[live], perp_sq[live], a), K[:, :r], a)
            negative = np.flatnonzero((a < 0.0).any(axis=1))
            if negative.size:
                pool.append((records[-1], negative, live[negative], G[negative], atoms[negative]))
                if 2 * sum(held.size for _, held, _, _, _ in pool) >= width:
                    refit_pool()
            go = (kind != TERMINATE) & (lam_next != 0.0)
            if not go.all():
                live, atoms, G = (x[go] for x in (live, atoms, G))
            G, atoms, sound = carry_inverse(Pz, G, atoms, kind[go] == ENTER, index[go])
            lam = lam_next[go]
            rounds += 1
            if not sound.all():
                truncated[live[~sound]] = True
                live, lam, atoms, G = (x[sound] for x in (live, lam, atoms, G))
        over[live] = True
        refit_pool()
        self.stats["rounds"] += rounds

        fell = np.flatnonzero(over | truncated)  # both end at their NNLS entry
        if fell.size:
            X = self.nnls(start + fell)
            self.stats["fallback_calls"] += 1
            record(fell, 0.0, residual_sq(self.R, Z[fell], perp_sq[fell], X), X > 0.0, X)

        # Records come in round order, each column at most once per round, so
        # scattering them round by round to the next free slot of their column
        # makes each path one slice.  Each round's array is dropped once
        # scattered, while the pages of the entry array are being filled;
        # records move as opaque bytes, which numpy copies whole.
        counts = np.bincount(np.concatenate(owners), minlength=width)
        ends = np.cumsum(counts)
        slot = ends - counts
        entries = np.empty(int(ends[-1]), dtype)
        raw = np.dtype((np.void, dtype.itemsize))
        records.reverse()
        for cols in owners:
            entries.view(raw)[slot[cols]] = records.pop().view(raw)
            slot[cols] += 1
        ends = ends.tolist()
        for p, (lo, hi, cut, capped) in enumerate(zip([0] + ends, ends, truncated.tolist(),
                                                      over.tolist())):
            self._paths[start + p] = RegularizationPath(entries[lo:hi], cut, capped)

    def nnls(self, cols: np.ndarray) -> np.ndarray:
        """NNLS optima of the data columns ``cols``, in the walk's units, by
        the block active-set solver, one block of rows per call, so that its
        (rows, r, r) inverses stay within the walk's.  Row i of the result
        solves column cols[i].  An IterationLimit leaves with ``column`` set.
        """
        X = np.zeros((cols.size, self.P.shape[0]))
        for lo in range(0, cols.size, self.block):
            rows = slice(lo, lo + self.block)
            try:
                X[rows] = nnls_gram(self.P, self.L.T[cols[rows]])
            except IterationLimit as exc:
                raise _at_column(exc, int(cols[lo + exc.row])) from exc
        return X

    def error_sq(self, X: np.ndarray):
        """(sum_j ||A x_j - b_j||^2, sum_j ||b_j||^2) in the walk's units, x_j
        row j of X, from one pass over B, BUDGET // 2n rows at a time: each
        chunk is scaled into one buffer and A X.T formed in another, both
        made once, so a chunk and its temporary stay in cache together."""
        m, n = self.B.shape
        step = max(1, BUDGET // max(1, 2 * n))
        buffers = np.empty((2, min(step, m), n))
        err = norm = 0.0
        for i in range(0, m, step):
            d, fit = buffers[:, :min(step, m - i)]
            np.ldexp(self.B[i:i + step], -self.exponents[1], out=d)
            norm += np.vdot(d, d)
            d -= np.matmul(self.A[i:i + step], X.T, out=fit)
            err += np.vdot(d, d)
        return err, norm

    def path(self, j: int) -> RegularizationPath:
        if j not in self._paths:
            n = self.L.shape[1]
            if not 0 <= j < n:
                raise IndexError(f"column {j} is out of range for a walk over {n} columns")
            start = j - j % self.block
            self._walk(start, min(start + self.block, n))
        return self._paths[j]

    def unscaled_path(self, j: int) -> RegularizationPath:
        """Column j's path in the units of A and B, a copy: lam times
        2^(a+b), error_sq times 2^2b and solution times 2^(b-a), for
        ``exponents`` (a, b).  Raises NonFiniteEntry where one overflows."""
        path = self.path(j)
        a, b = self.exponents
        entries = path.entries.copy()
        for name, shift in (("lam", a + b), ("error_sq", 2 * b), ("solution", b - a)):
            entries[name] = densela.unscale(entries[name], shift, f"the path's {name}")
        return RegularizationPath(entries, path.truncated, path.fallback)


def regularization_path(A, b, walk: PathWalk | None = None,
                        column: int = 0) -> RegularizationPath:
    """Every breakpoint of the L1-penalized NNLS path of the (m, r)
    dictionary A and the (m,) right-hand side b.

    A and b may come in any units (PathWalk); NonFiniteEntry marks an
    entry past the float range.  Given a PathWalk over many right-hand
    sides of A, of which b is column ``column``, the path is read from the
    walk, in the walk's units, and the other arguments are the walk's.

    The first entry is (max_i (A.T b)_i, or 0 if none is positive,
    ||b||^2, empty support, 0), in path_dtype's field order;
    consecutive supports differ by one index; the last entry sits at
    lambda = 0 with the unconstrained NNLS solution.  A path that meets a
    rank-deficient support (``truncated``) or passes 50 r breakpoints,
    PathWalk's guard against cycling (``fallback``), ends early: its walked
    entries are followed by that one.
    """
    if walk is None:
        return PathWalk(A, as_vector(b, "b")[:, None]).unscaled_path(0)
    return walk.path(column)
