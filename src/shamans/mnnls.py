"""End-to-end solve of sparse multiple right-hand-sides NNLS.

Given data M (m x n) and dictionary W (m x r), compute H >= 0 minimizing
||M - WH||_F under one of three regimes: a global nonzero budget spread
across columns (shamans), a fixed per-column sparsity (ksparse), or no
sparsity constraint at all (unconstrained).  The Gram matrix W.T W and the
correlations W.T M are computed once and shared by every column.  In the
first two regimes the paths are walked in lockstep blocks of columns,
then selected from; unconstrained mode needs only each path's lambda = 0
end, the NNLS optimum, and solves for it directly by the block
active-set solver.  Every mode checks each column of H against its
optimality conditions.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import selector
from .densela import as_matrix, frob_norm, residual_sq
from .errors import DimensionMismatch, ZeroColumnInDictionary, ZeroDataMatrix
from .homotopy import PathWalk, check_max_breakpoints, regularization_path
from .nnls import check_tol

MODES = ("shamans", "ksparse", "unconstrained")

# Largest scaled optimality violation (_kkt_violation) of a column that is
# reported exact.  Roundoff stays below 6e-16 on the benchmark workloads and
# the test suites; the solvers' stopping tests admit up to tol (1 + 1/max|ell|),
# below it at the default tol while max|ell| >= 0.01.
KKT_BOUND = 1e-8


@dataclass
class SolveConfig:
    """Solve mode and numerical knobs.

    Exactly one of ``q`` (total nonzero budget, shamans mode) or ``k``
    (per-column sparsity, ksparse mode) applies.  ``zero_threshold`` only
    affects sparsity reporting, never the solve itself.  ``strict_budget``
    forbids the final selection step from overshooting q.
    ``max_breakpoints`` caps each column's path (PathWalk); it has no
    effect in unconstrained mode, which walks no paths.
    """

    mode: str = "shamans"
    q: int | None = None
    k: int | None = None
    tol: float = 1e-10
    zero_threshold: float = 1e-3
    strict_budget: bool = False
    max_breakpoints: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for mode, name in (("shamans", "q"), ("ksparse", "k")):
            count = getattr(self, name)  # NumPy integers pass; None, 2.5 and NaN do not
            if self.mode == mode and not (isinstance(count, numbers.Integral) and count >= 0):
                raise ValueError(f"{mode} mode needs a nonnegative integer {name}")
        check_tol(self.tol)
        if not (self.zero_threshold >= 0 and np.isfinite(self.zero_threshold)):  # also NaN
            raise ValueError("zero_threshold must be nonnegative and finite")
        check_max_breakpoints(self.max_breakpoints)


@dataclass
class UnmixReport:
    """Quality and cost summary of one solve.

    ``timings_ms`` maps each stage of the solve that ran to its wall time
    in milliseconds, in order: validate, gram (W.T W, W.T M and the thin
    QR of W), then paths, tables, select and assemble, or in unconstrained
    mode nnls, and last metrics (the report and the certificate).
    ``breakpoints`` totals the path steps of all columns, and entry k of
    ``breakpoint_histogram`` counts the columns whose path took k steps;
    ``refits`` counts the steps whose unbiased refit needed the active-set
    solver, because least squares on the support went negative, on the
    paths that keep them (a fallback column's are dropped).  Columns
    listed in ``fallback_columns`` hit the breakpoint limit, so their path
    holds only its two ends, the zero and the NNLS solution.  The four
    describe paths, so they are None in unconstrained mode.
    ``truncated_columns`` lists the columns that met a rank-deficient
    support: their path ended early, or in unconstrained mode their NNLS
    solve did, leaving H's column 0.  ``kkt_violation`` is the worst
    scaled departure of a column of H from its optimality conditions:
    stationarity on its support in every mode, and in unconstrained mode
    a nonnegative gradient off it too.  ``inexact_columns`` lists the
    columns of H that are neither a solution of their full path nor the
    NNLS optimum: every truncated column, every fallback column read
    below level r (its path has nothing between its two ends), and every
    column whose violation passes KKT_BOUND.

    In shamans mode ``picks`` counts the greedy steps, ``overshoot`` is
    the sum of the selected sparsity levels minus q (negative when no
    positive gain or, in strict mode, no fitting advance was left),
    ``stopped_short``
    says that selection ended below q, and ``last_gain`` is the error
    decrease per added nonzero of the last pick (None without one).
    The four are None in the other modes.
    """

    rel_error: float
    avg_sparsity: float
    nnz: int
    per_column_sparsity: list
    timings_ms: dict = field(default_factory=dict)
    mode: str | None = None
    budget: int | None = None
    breakpoints: int | None = None
    breakpoint_histogram: list | None = None
    refits: int | None = None
    fallback_columns: list | None = None
    truncated_columns: list = field(default_factory=list)
    inexact_columns: list = field(default_factory=list)
    kkt_violation: float | None = None
    picks: int | None = None
    overshoot: int | None = None
    stopped_short: bool | None = None
    last_gain: float | None = None


def metrics(M, W, H, zero_threshold: float = 1e-3) -> UnmixReport:
    """Relative Frobenius error and sparsity statistics of a solution.

    Raises DimensionMismatch unless M (m, n), W (m, r) and H (r, n) fit.
    ``avg_sparsity`` and the per-column histogram count entries above
    ``zero_threshold``; ``nnz`` counts exact nonzeros.
    """
    M = as_matrix(M, "M")
    W = as_matrix(W, "W")
    H = as_matrix(H, "H")
    if M.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"M has shape {M.shape} but W has shape {W.shape}")
    if H.shape != (W.shape[1], M.shape[1]):
        raise DimensionMismatch(f"H has shape {H.shape} but W {W.shape} and M {M.shape} "
                                f"need {(W.shape[1], M.shape[1])}")
    return _summary(H, frob_norm(M - W @ H), frob_norm(M), zero_threshold)


def _summary(H, residual, data, zero_threshold) -> UnmixReport:
    """Report of H from the Frobenius norms of its residual and the data."""
    if data == 0.0:
        raise ZeroDataMatrix("data matrix is identically zero")
    counts = (H > zero_threshold).sum(axis=0)
    hist = np.bincount(counts, minlength=H.shape[0] + 1)
    return UnmixReport(
        rel_error=float(residual / data),
        avg_sparsity=float(counts.mean()),
        nnz=int(np.count_nonzero(H)),
        per_column_sparsity=[int(c) for c in hist],
    )


def solve(M, W, cfg: SolveConfig):
    """Solve for H >= 0 under the configured sparsity regime.

    Returns (H, report).  Columns whose path exceeds the breakpoint limit
    take the two-entry path to their NNLS solution and are listed in
    ``report.fallback_columns`` instead of aborting the whole run; a
    column whose NNLS meets a rank-deficient passive set is listed as
    truncated and inexact.
    """
    timings = {}
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        timings[stage] = (now - clock) * 1e3
        clock = now

    M = as_matrix(M, "M")
    W = as_matrix(W, "W")
    if M.shape[0] != W.shape[0]:
        raise DimensionMismatch(
            f"M has {M.shape[0]} rows but W has {W.shape[0]}")
    m, n = M.shape
    r = W.shape[1]
    if n == 0 or r == 0:
        raise DimensionMismatch("M and W must be nonempty")
    with np.errstate(over="ignore"):  # PathWalk reports an overflow
        nonzero = (W * W).sum(axis=0) > 0.0
    if not nonzero.all():
        raise ZeroColumnInDictionary("dictionary has an all-zero column")
    if cfg.mode == "shamans" and cfg.q > r * n:
        raise ValueError(f"budget q={cfg.q} exceeds r*n={r * n}")
    if cfg.mode == "ksparse" and cfg.k > r:
        raise ValueError(f"k={cfg.k} exceeds the dictionary size r={r}")
    lap("validate")

    walk = PathWalk(W, M, tol=cfg.tol, max_breakpoints=cfg.max_breakpoints)
    lap("gram")

    if cfg.mode == "unconstrained":
        # Only the lambda = 0 end of each path is read: solve for it directly.
        X, singular = walk.nnls(np.arange(n))
        H = X.T
        lap("nnls")
        err = residual_sq(walk.R, *walk.range_split(0, n), X)
        report = _summary(H, np.sqrt(err.sum()), np.sqrt(walk.norm_sq.sum()),
                          cfg.zero_threshold)
        truncated = np.flatnonzero(singular).tolist()
        inexact = set()
    else:
        # Every path passes the public per-column call, where the benchmark's
        # trace counts breakpoints; a block is walked on its first read.
        paths = [regularization_path(W, M[:, j], walk=walk, column=j) for j in range(n)]
        lap("paths")

        tables = selector.build_cost_tables(paths, r, n)
        lap("tables")

        if cfg.mode == "shamans":
            state = selector.init_gain(tables)
            cursors = selector.select(state, tables, cfg.q, strict=cfg.strict_budget)
        else:
            cursors = np.full(n, cfg.k, dtype=np.int64)
        lap("select")

        H = selector.assemble(tables, cursors)
        lap("assemble")

        # A selected cell is its entry's measured residual; row 0 holds ||M_j||^2.
        report = _summary(H, np.sqrt(tables.cost[cursors, np.arange(n)].sum()),
                          np.sqrt(tables.cost[0].sum()), cfg.zero_threshold)
        truncated = [j for j, path in enumerate(paths) if path.truncated]
        report.fallback_columns = [j for j, path in enumerate(paths) if path.fallback]
        # A fallback path holds nothing between its zero and NNLS entries:
        # only level r, the NNLS entry's, is read as on the full path.
        inexact = {j for j in report.fallback_columns if cursors[j] < r}
        steps = np.array([len(path.entries) - 1 for path in paths])
        report.breakpoints = int(steps.sum())
        report.breakpoint_histogram = [int(c) for c in np.bincount(steps)]
        report.refits = walk.refits
    violation = _kkt_violation(walk.P, walk.L, H, cfg.mode == "unconstrained")
    lap("metrics")
    report.timings_ms = timings
    report.mode = cfg.mode
    report.budget = {"shamans": cfg.q, "ksparse": cfg.k}.get(cfg.mode)
    report.truncated_columns = truncated
    report.kkt_violation = float(violation.max())
    report.inexact_columns = sorted(inexact.union(truncated,
                                                  np.flatnonzero(violation > KKT_BOUND).tolist()))
    if cfg.mode == "shamans":
        report.picks = state.picks
        report.overshoot = state.nnz_total - cfg.q
        report.stopped_short = state.nnz_total < cfg.q
        if state.last_pick is not None:
            j, start, level = state.last_pick
            drop = tables.cost[start, j] - tables.cost[level, j]
            report.last_gain = float(drop) / (level - start)
    return H, report


def _kkt_violation(P, L, H, nonnegative: bool) -> np.ndarray:
    """Scaled violation of each column's optimality conditions.

    With g = P x - ell, the gradient of 0.5 ||A x - b||^2 (Lawson and
    Hanson, Solving Least Squares Problems, 1974, ch. 23), a refit on
    supp(x) has g = 0 there, and the NNLS optimum also has g >= 0 off it
    (``nonnegative``).  Returns the largest departure of each column,
    divided by max|P| max|x| + max|ell|, the size of the terms whose
    roundoff it measures (0 for a zero column of zero correlations).
    """
    H = np.ascontiguousarray(H)  # rows, so that each reduction is elementwise
    g = P @ H
    g -= L
    bad = np.abs(g)
    bad *= H > 0.0  # H >= 0: |g| on the support, 0 off it
    if nonnegative:
        np.maximum(bad, np.negative(g, out=g), out=bad)
    scale = np.abs(P).max() * H.max(axis=0) + np.abs(L).max(axis=0)
    return np.divide(bad.max(axis=0), scale, out=np.zeros(H.shape[1]), where=scale > 0.0)
