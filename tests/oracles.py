"""Independent oracles the tests check the solvers against.

These deliberately avoid the code paths under test: brute-force support
enumeration for NNLS, exhaustive cursor enumeration for the budgeted
selection, a direct KKT evaluation of the penalized problem from each
path entry's support, a one-column-at-a-time homotopy walk for the
lockstep engine, a one-column-at-a-time active-set NNLS for the block
solver, a lazy-heap greedy for the sorted hull-segment selection, the
selector's gain table, segment sort and strict pick as argmax, cumsum and
stable-sort reductions over the levels axis, a per-entry, per-level fold
of the paths for the vectorized cost tables, and residuals formed in
extended precision for the path entries' errors.
"""

import heapq
import itertools

import numpy as np
from scipy.linalg.lapack import dpotrs

from shamans.densela import TOL, gram, spd_factor
from shamans.errors import IterationLimit, MissingZeroEntry, SingularSystem
from shamans.homotopy import RegularizationPath, path_dtype
from shamans.selector import SelectionState


def nnls_bruteforce(A, b):
    """NNLS by enumerating all supports and keeping the feasible minimizer.

    For each support, solve the unconstrained least-squares problem on
    those columns; a candidate is feasible when its coefficients are all
    nonnegative.  The optimum of the nonnegative problem is the feasible
    candidate with the smallest residual.
    """
    m, r = A.shape
    best_err = float(b @ b)
    best_x = np.zeros(r)
    for size in range(1, r + 1):
        for K in itertools.combinations(range(r), size):
            cols = list(K)
            z, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if z.min() < 0.0:
                continue
            resid = A[:, cols] @ z - b
            err = float(resid @ resid)
            if err < best_err - 1e-15:
                best_err = err
                best_x = np.zeros(r)
                best_x[cols] = z
    return best_x, best_err


def support_coefficients(P, ell, K):
    """Full-space (a, b) = P(K,K)^-1 [ell(K), 1] of the (r,) support mask K,
    zero off K: the biased solution on K is a - lambda * b."""
    k = np.flatnonzero(K)
    a, b = np.zeros(ell.size), np.zeros(ell.size)
    ab = solve_spd(P[np.ix_(k, k)], np.column_stack([ell[k], np.ones(k.size)]))
    a[k], b[k] = ab[:, 0], ab[:, 1]
    return a, b


def warm_start(G, atoms, ell):
    """nnls_gram's ``start`` from inverses in carry_inverse's slot layout:
    (G, atoms, Z), row i of Z the least-squares solution G[i] ell_i(atoms_i)
    on row i's slots, in full space."""
    ell = np.atleast_2d(ell)
    r = ell.shape[1]
    Z = np.zeros(ell.shape)
    for i, (g, a) in enumerate(zip(G, atoms)):
        on = a < r
        k = a[on].astype(np.intp)
        Z[i, k] = g[np.ix_(on, on)] @ ell[i, k]
    return G, atoms, Z


def refit_entries(entries):
    """Path entries whose refit dropped an atom of the support: those whose
    least-squares solution on the support went negative."""
    return np.count_nonzero(entries["solution"], axis=1) < entries["support"].sum(axis=1)


def kkt_midpoint_violation(P, ell, path):
    """Worst scaled violation of the penalized-problem optimality conditions.

    For each pair of consecutive path entries, solve for the biased
    solution of the lower entry's support at the midpoint penalty and at
    both ends of its interval, where one coefficient or one gradient
    component reaches zero, and measure: negativity of the solution,
    negativity of the gradient P x - ell + lambda, and the
    complementarity products, the latter scaled by (1 + max|ell|).
    """
    scale = 1.0 + float(np.abs(ell).max(initial=0.0))
    worst = 0.0
    for above, entry in zip(path.entries, path.entries[1:]):
        a, b = support_coefficients(P, ell, entry["support"])
        for lam in (above["lam"], 0.5 * (above["lam"] + entry["lam"]), entry["lam"]):
            x = a - lam * b
            g = P @ x - ell + lam
            worst = max(worst,
                        -float(x.min(initial=0.0)),
                        -float(g.min(initial=0.0)),
                        float(np.abs(x * g).max(initial=0.0)) / scale)
    return worst


def min_error_by_total(cost):
    """Exhaustive optimum of the cursor assignment at every total budget.

    Enumerates all (r+1)^n cursor tuples of a cost table and returns a
    dict mapping total nonzeros to the minimum achievable error sum.
    """
    levels, n = cost.shape
    best = {}
    for tup in itertools.product(range(levels), repeat=n):
        total = sum(tup)
        err = float(sum(cost[k, j] for j, k in enumerate(tup)))
        if total not in best or err < best[total]:
            best[total] = err
    return best


def reference_cost_tables(paths, r, n):
    """Cost table and per-cell entry index, one path entry and level at a time.

    The fold the vectorized build_cost_tables replaced: each entry of
    k nonzeros and error err updates rows k..r of its column wherever
    it improves the stored value.  Returns (cost, source) with
    ``source[k, j]`` the index of the entry behind cost[k, j] among all
    paths' entries concatenated in path order.
    """
    if len(paths) != n:
        raise ValueError(f"expected {n} paths, got {len(paths)}")
    cost = np.full((r + 1, n), np.inf)
    source = np.full((r + 1, n), -1)
    offset = 0
    for j, path in enumerate(paths):
        entries = path.entries
        if not len(entries) or np.count_nonzero(entries[0]["solution"]):
            raise MissingZeroEntry(f"path for column {j} lacks the zero-solution entry")
        col = cost[:, j]
        for index, e in enumerate(entries, start=offset):
            k = int(np.count_nonzero(e["solution"]))
            err = float(e["error_sq"])
            for i in range(k, r + 1):
                if err < col[i]:
                    col[i] = err
                    source[i, j] = index
        offset += len(entries)
    return cost, source


def reference_select(delta, q, strict=False):
    """The lazy-heap greedy the sorted hull-segment selection replaced.

    Keeps a gain table (mean error decrease per nonzero of every cursor
    advance), a heap holding each column's first argmax as (-gain,
    column, row, version), and rebuilds a column's gains after each of
    its picks; stale heap entries are skipped by version.  In strict mode,
    once fewer than r nonzeros remain, it takes the best positive advance
    that still fits.  Returns the final cursors and the (level, column)
    picks in order.
    """
    r, n = delta.shape
    gain = np.cumsum(delta, axis=0) / np.arange(1, r + 1)[:, None]
    cursors = np.zeros(n, dtype=np.int64)
    version = np.zeros(n, dtype=np.int64)
    heap = []

    def push(j):
        i = int(np.argmax(gain[:, j]))
        if gain[i, j] > 0.0:
            heapq.heappush(heap, (-float(gain[i, j]), j, i, int(version[j])))

    for j in range(n):
        push(j)
    nnz, picks = 0, []
    while nnz < q:
        remaining = q - nnz
        if strict and remaining < r:
            allowed = np.arange(1, r + 1)[:, None] <= cursors + remaining
            masked = np.where(allowed, gain, -np.inf)
            rows = np.argmax(masked, axis=0)
            vals = masked[rows, np.arange(n)]
            j = int(np.argmax(vals))
            if vals[j] <= 0.0:
                break
            i = int(rows[j])
        else:
            while heap and heap[0][3] != version[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                break
            _, j, i, _ = heap[0]
        c = i + 1
        nnz += c - int(cursors[j])
        cursors[j] = c
        picks.append((c, j))
        gain[:, j] = 0.0
        gain[c:, j] = np.cumsum(delta[c:, j]) / np.arange(1, r - c + 1)
        version[j] += 1
        push(j)
    return cursors, picks


def reference_gain_table(delta, cursors):
    """selector.gain_table by one cumsum over the levels axis, the form
    its row-by-row running sums replaced."""
    rows = np.arange(delta.shape[0])[:, None]
    return (np.cumsum(np.where(rows >= cursors, delta, 0.0), axis=0)
            / np.maximum(rows + 1 - cursors, 1))


def reference_init_gain(delta):
    """selector.init_gain's state from argmax(axis=0) of each round's gain
    table, np.minimum.accumulate over the rounds and one stable sort: the
    forms its reductions along the columns and its default sort replaced."""
    r, n = delta.shape
    cursors = np.zeros(n, dtype=np.int64)
    levels = np.zeros((r, n), dtype=np.int64)
    gains = np.zeros((r, n))
    active = np.arange(n)
    for k in range(r):
        G = reference_gain_table(delta[:, active], cursors[active])
        rows = np.argmax(G, axis=0)
        best = G[rows, np.arange(active.size)]
        keep = best > 0.0
        active, rows = active[keep], rows[keep]
        gains[k, active] = best[keep]
        cursors[active] = levels[k, active] = rows + 1
    j, k = np.nonzero(levels.T)
    order = np.argsort(-np.minimum.accumulate(gains, axis=0)[k, j], kind="stable")
    j, k = j[order], k[order]
    sizes = np.diff(levels, axis=0, prepend=0)[k, j]
    return SelectionState(cursors=np.zeros(n, dtype=np.int64), nnz_total=0,
                          segments=np.column_stack((levels[k, j], j)), sizes=sizes)


def reference_best_fitting(delta, cursors, remaining):
    """selector._best_fitting by argmax(axis=0) of the masked gain table."""
    r, n = delta.shape
    allowed = np.arange(1, r + 1)[:, None] <= cursors + remaining
    masked = np.where(allowed, reference_gain_table(delta, cursors), -np.inf)
    rows = np.argmax(masked, axis=0)
    vals = masked[rows, np.arange(n)]
    j = int(np.argmax(vals))
    if vals[j] <= 0.0:
        return None
    return int(rows[j]) + 1, j


def solve_spd(S, rhs):
    """Solve S x = rhs for symmetric positive definite S by Cholesky."""
    L = spd_factor(S)
    if L.shape[0] == 0:
        return np.zeros_like(rhs)
    x, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise SingularSystem(f"triangular solve failed (info={info})")
    return x


def random_nonneg_instance(rng, m, r, noise=0.0):
    """Dictionary and right-hand side with nonnegative entries."""
    A = np.abs(rng.standard_normal((m, r)))
    b = np.abs(rng.standard_normal(m))
    if noise:
        b = b + noise * np.abs(rng.standard_normal(m))
    return A, b


def extended_residual_sq(A, B, X):
    """||A x - b||^2 for each row x of X and matching column b of B, the
    residual formed and summed in numpy's extended precision (np.longdouble,
    which is plain float64 on platforms without a wider type)."""
    E = np.longdouble
    resid = np.asarray(A, E) @ np.asarray(X, E).T - np.asarray(B, E)
    return (resid * resid).sum(axis=0)


def random_spd(rng, k):
    """Well-conditioned random symmetric positive definite matrix."""
    B = rng.standard_normal((2 * k + 2, k))
    S = B.T @ B
    return (S + S.T) * 0.5


def random_cost_table(rng, r, n):
    """Synthetic nonincreasing cost columns, with occasional flat tails."""
    cost = np.empty((r + 1, n))
    for j in range(n):
        col = np.sort(rng.uniform(0.0, 10.0, size=r + 1))[::-1]
        if rng.random() < 0.4:
            cut = int(rng.integers(1, r + 1))
            col[cut:] = col[cut]
        if rng.random() < 0.3:
            col[-1] = 0.0
        cost[:, j] = col
    return cost


def reference_nnls_gram(P, ell):
    """Active-set NNLS of one right-hand side from normal-equation data.

    The per-column Lawson-Hanson solver the block ``nnls_gram`` replaced:
    it starts from x = 0 and solves each passive set on its own.  Solves
    min ||Ax - b||^2 s.t. x >= 0 where P = A.T A and ell = A.T b; ties on
    the entering variable break toward the smallest index.

    Raises IterationLimit after 10 r (r+1) pivots, which signals cycling
    or heavy degeneracy, and propagates SingularSystem from the inner
    solve on a rank-deficient passive set.  A gradient enters above
    TOL max|ell|; coefficients that end below TOL max|ell| / max|P| are
    set to zero and the rest solved again on their own support, so the
    result stays a stationary refit.
    """
    r = ell.shape[0]
    x = np.zeros(r)
    passive = np.zeros(r, dtype=bool)
    grad_floor = TOL * float(np.abs(ell).max(initial=0.0))
    floor = grad_floor / float(np.abs(P).max(initial=0.0)) if r else 0.0
    max_pivots = 10 * r * (r + 1)
    pivots = 0

    while True:
        w = ell - P @ x
        w = np.where(passive, -np.inf, w)
        entering = int(np.argmax(w))  # first maximum, i.e. smallest index
        if not np.isfinite(w[entering]) or w[entering] <= grad_floor:
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
            drop = K[x[K] <= floor]
            x[drop] = 0.0
            passive[drop] = False
            pivots += drop.size
            if pivots > max_pivots:
                raise IterationLimit(f"active-set pivot limit {max_pivots} exceeded")

    snapped = (x != 0.0) & (x < floor)
    if snapped.any():
        # Zeroing a coefficient moves the others' optimum: refit on the rest.
        x[snapped] = 0.0
        K = np.flatnonzero(x)
        if K.size:
            z = solve_spd(P[np.ix_(K, K)], ell[K])
            if z.min() > 0.0:
                x[K] = z
    return x


def reference_path(A, b, max_breakpoints=None):
    """Regularization path of (A, b) walked one breakpoint at a time.

    The per-column walk the lockstep engine replaced: index-set supports,
    one factorization and solve per breakpoint, the smallest-index tie
    rule, LEAVE on exact ties, ratios clamped to the current breakpoint,
    and a rank-deficient support ending the path with ``truncated`` set.
    A LEAVE candidate has b < -TOL / max|P|, an ENTER candidate d < -TOL,
    and a breakpoint at or below TOL lambda_max is 0.
    """
    P = gram(A)
    ell = A.T @ b
    r = ell.shape[0]

    def record(lam, K, x, err):
        """One path_dtype record of support K."""
        support = np.zeros(r, dtype=bool)
        support[K] = True
        return lam, err, support, x

    if max_breakpoints is None:
        max_breakpoints = 50 * r
    first = int(np.argmax(ell))
    lam0 = max(float(ell[first]), 0.0)
    entries = [record(lam0, [], np.zeros(r), float(b @ b))]
    if lam0 == 0.0:
        return RegularizationPath(np.array(entries, dtype=path_dtype(r)))

    leave_tol = TOL / float(np.abs(P).max())
    K = np.array([first], dtype=np.int64)
    lam = lam0
    truncated = False
    while True:
        if len(entries) > max_breakpoints:
            raise IterationLimit(f"path exceeded {max_breakpoints} breakpoints")
        Kbar = np.setdiff1d(np.arange(r), K)
        try:
            ab = solve_spd(P[np.ix_(K, K)], np.column_stack([ell[K], np.ones(K.size)]))
        except SingularSystem:
            truncated = True
            break
        a_K, b_K = ab[:, 0].copy(), ab[:, 1].copy()
        c_K = P[np.ix_(Kbar, K)] @ a_K - ell[Kbar]
        d_K = P[np.ix_(Kbar, K)] @ b_K - 1.0

        best = {}  # kind -> (ratio, position), first maximum among candidates
        for kind, num, den, tol in (("leave", a_K, b_K, leave_tol), ("enter", c_K, d_K, TOL)):
            pos = np.flatnonzero(den < -tol)
            if pos.size:
                ratios = num[pos] / den[pos]
                i = int(np.argmax(ratios))
                best[kind] = (float(ratios[i]), int(pos[i]))
        lam_leave = best.get("leave", (-np.inf, -1))[0]
        lam_enter = best.get("enter", (-np.inf, -1))[0]
        if max(lam_leave, lam_enter) <= 0.0:
            kind, lam_next = "terminate", 0.0
        else:
            kind = "leave" if lam_leave >= lam_enter else "enter"
            lam_next = min(best[kind][0], lam)

        x = np.zeros(r)
        if a_K.min() >= 0.0:
            x[K] = a_K
        else:
            x[K] = reference_nnls_gram(P[np.ix_(K, K)], ell[K])
        resid = A @ x - b
        if lam_next <= TOL * lam0:
            lam_next = 0.0
        entries.append(record(lam_next, K, x, float(resid @ resid)))
        if kind == "terminate" or lam_next == 0.0:
            break
        if kind == "leave":
            K = np.delete(K, best[kind][1])
        else:
            K = np.sort(np.append(K, Kbar[best[kind][1]]))
        lam = lam_next
    return RegularizationPath(np.array(entries, dtype=path_dtype(r)), truncated=truncated)


def breakpoint_condition(A, b, entries):
    """First-order relative condition number of each path entry's lam.

    Entry i's support K stops being optimal at lam = c_j / d_j, where atom
    j's complement gradient crosses zero (j enters), or at lam = a_j / b_j,
    where its coefficient does (j leaves), with (a, b) the solutions of
    P(K,K) [a b] = [ell(K) 1].  Perturbing every operation by a relative
    eps moves lam by at most eps * kappa * |lam|, to first order, where
    kappa adds the relative sensitivities of the quotient's two sides:
    Skeel's componentwise bound |G| (|P(K,K)| |x| + |rhs|), G = P(K,K)^-1,
    for the errors of a and b, and the sums of absolute terms over the
    result for c = P(j,K) a - ell(j) and d = P(j,K) b - 1, which cancel
    when the atoms are close to collinear.  The last entry, which ends the
    path, gets 0.
    """
    P = gram(A)
    ell = A.T @ b
    kappa = np.zeros(len(entries))
    for i in range(len(entries) - 1):
        K, after = entries["support"][i], entries["support"][i + 1]
        k = np.flatnonzero(K)
        a, bb = (v[k] for v in support_coefficients(P, ell, K))
        G = np.abs(np.linalg.inv(P[np.ix_(k, k)])) if k.size else np.zeros((0, 0))
        S = np.abs(P[np.ix_(k, k)])
        err_a = G @ (S @ np.abs(a) + np.abs(ell[k]))
        err_b = G @ (S @ np.abs(bb) + 1.0)
        j = int(np.flatnonzero(K ^ after)[0])
        if after[j]:
            p = P[j, k]
            c, d = p @ a - ell[j], p @ bb - 1.0
            kappa[i] = ((np.abs(p) @ (np.abs(a) + err_a) + abs(ell[j])) / abs(c)
                        + (np.abs(p) @ (np.abs(bb) + err_b) + 1.0) / abs(d))
        else:
            t = int(np.flatnonzero(k == j)[0])
            kappa[i] = err_a[t] / abs(a[t]) + err_b[t] / abs(bb[t])
    return kappa
