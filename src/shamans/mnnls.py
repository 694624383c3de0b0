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
from .densela import as_matrix, frob_norm, unscale
from .errors import DimensionMismatch, ZeroColumnInDictionary, ZeroDataMatrix
from .homotopy import PathWalk, regularization_path

MODES = ("shamans", "ksparse", "unconstrained")

# Largest scaled optimality violation (_kkt_violation) of a column that is
# reported exact.  Roundoff stays below 6e-16 on the benchmark workloads and
# the test suites; the solvers' stopping tests admit up to about densela.TOL,
# 1e-10, of the same scale, whatever the data's units.
KKT_BOUND = 1e-8


@dataclass
class SolveConfig:
    """Solve mode and numerical knobs.

    Exactly one of ``q`` (total nonzero budget, shamans mode) or ``k``
    (per-column sparsity, ksparse mode) applies, and the other must be
    None.  ``strict_budget``, shamans mode only, forbids the final
    selection step from overshooting q.
    """

    mode: str = "shamans"
    q: int | None = None
    k: int | None = None
    strict_budget: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for mode, name in (("shamans", "q"), ("ksparse", "k")):
            count = getattr(self, name)  # None: not given
            if self.mode != mode:
                if count is not None:
                    raise ValueError(f"{name} does not apply to {self.mode} mode")
            # NumPy integers pass; None, 2.5, NaN and bools do not.
            elif not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 0:
                raise ValueError(f"{mode} mode needs a nonnegative integer {name}")
            else:
                setattr(self, name, int(count))  # so that the report's counts are JSON ints
        if self.strict_budget and self.mode != "shamans":
            raise ValueError(f"strict_budget=True does not apply to {self.mode} mode")


@dataclass
class UnmixReport:
    """Quality and cost summary of one solve.

    The sparsity counts are of exact nonzeros, as q and k count them.
    ``timings_ms`` maps each stage of the solve that ran to its wall time
    in milliseconds, in order: validate (shapes and counts), gram (the
    PathWalk: the scale and finite check of W and M, W.T W, W.T M and the
    thin QR of W), then paths (which also takes M's coordinates in that QR),
    tables, select and assemble, or in unconstrained mode nnls, and last
    metrics (the report, in unconstrained mode from one pass over M that
    measures H's error, and the certificate).
    ``breakpoints`` totals the path steps of all columns, and entry k of
    ``breakpoint_histogram`` counts the columns whose path took k steps;
    ``refits`` counts the steps whose unbiased refit needed the active-set
    solver, because least squares on the support went negative.  The
    paths of the columns listed in ``fallback_columns``, which hit the
    breakpoint limit, and in ``truncated_columns``, which met a
    rank-deficient support (an update densela.carry_inverse's rank rule
    finds unsound), ended early: they go on from their last walked entry
    to the NNLS solution.  ``walk`` says what the
    lockstep walk did: ``rounds`` walked (round 0 of a block makes its
    zero entries and first atoms), ``refit_calls`` to the
    active-set solver and the ``refit_ms`` they took, and
    ``fallback_calls`` that solved fallback and truncated columns.  These
    describe paths, so they are None in unconstrained mode, and
    ``truncated_columns`` is empty.  ``kkt_violation`` is the
    worst scaled departure of a column of H from its optimality
    conditions: stationarity on its support in every mode, and in
    unconstrained mode a nonnegative gradient off it too.
    ``inexact_columns`` lists the columns of H that may depart from their
    full path's solution at their level and from the NNLS optimum: every
    fallback or truncated column read below level r; every column whose
    path steps but whose costs are equal at levels 0 and r, because its
    errors underflowed against the largest column's at the solve's one
    scale, so that its entries were chosen blind; and every column whose
    violation is not within KKT_BOUND (NaN included).

    In shamans mode ``picks`` counts the greedy steps, ``overshoot`` is
    the sum of the selected sparsity levels minus q (negative when no
    positive gain or, in strict mode, no fitting advance was left),
    ``stopped_short`` says that selection ended below q, and ``last_gain``
    is the error decrease per added nonzero of the last pick (None
    without one, inf past the float range).
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
    walk: dict | None = None
    fallback_columns: list | None = None
    truncated_columns: list = field(default_factory=list)
    inexact_columns: list = field(default_factory=list)
    kkt_violation: float | None = None
    picks: int | None = None
    overshoot: int | None = None
    stopped_short: bool | None = None
    last_gain: float | None = None


def metrics(M, W, H) -> UnmixReport:
    """Relative Frobenius error and sparsity statistics of a solution.

    Raises DimensionMismatch unless M (m, n), W (m, r) and H (r, n) fit.
    The sparsity counts are of exact nonzeros, as q and k count them.
    M, W and H may come in any units (frob_norm).
    """
    M, W, H = as_matrix(M, "M"), as_matrix(W, "W"), as_matrix(H, "H")
    if M.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"M has shape {M.shape} but W has shape {W.shape}")
    if H.shape != (W.shape[1], M.shape[1]):
        raise DimensionMismatch(f"H has shape {H.shape} but W {W.shape} and M {M.shape} "
                                f"need {(W.shape[1], M.shape[1])}")
    data = frob_norm(M, "M")  # M's finite check, then W's and H's
    return _summary(H, frob_norm(M - W @ H, "M - W H"), data)


def _summary(H, residual, data) -> UnmixReport:
    """Report of H from the Frobenius norms of its residual and the data."""
    if data == 0.0:
        raise ZeroDataMatrix("data matrix is identically zero")
    counts = np.count_nonzero(H, axis=0)
    hist = np.bincount(counts, minlength=H.shape[0] + 1)
    return UnmixReport(
        rel_error=float(residual / data),
        avg_sparsity=float(counts.mean()),
        nnz=int(counts.sum()),
        per_column_sparsity=[int(c) for c in hist],
    )


def solve(M, W, cfg: SolveConfig):
    """Solve for H >= 0 under the configured sparsity regime.

    Returns (H, report).  Columns whose path exceeds the breakpoint limit
    end it early at their NNLS solution and are listed in
    ``report.fallback_columns`` instead of aborting the whole run.  M and
    W may come in any units (PathWalk); an H past the float range raises
    NonFiniteEntry.
    """
    timings = {}
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        timings[stage] = (now - clock) * 1e3
        clock = now

    M, W = as_matrix(M, "M"), as_matrix(W, "W")
    if M.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"M has {M.shape[0]} rows but W has {W.shape[0]}")
    n, r = M.shape[1], W.shape[1]
    if n == 0 or r == 0:
        raise DimensionMismatch("M and W must be nonempty")
    if cfg.mode == "shamans" and cfg.q > r * n:
        raise ValueError(f"budget q={cfg.q} exceeds r*n={r * n}")
    if cfg.mode == "ksparse" and cfg.k > r:
        raise ValueError(f"k={cfg.k} exceeds the dictionary size r={r}")
    lap("validate")

    walk = PathWalk(W, M)
    if not (np.diagonal(walk.P) > 0.0).all():
        raise ZeroColumnInDictionary("dictionary has an all-zero column")
    lap("gram")

    a, b = walk.exponents  # the walk's units: W 2^-a, M 2^-b and H 2^(a-b)
    if cfg.mode == "unconstrained":
        # Only the lambda = 0 end of each path is read: solve for it directly.
        X = walk.nnls(np.arange(n))
        Hn = X.T
        lap("nnls")
        err, norm = walk.error_sq(X)
        H = unscale(Hn, b - a, "H")
        report = _summary(H, np.sqrt(err), np.sqrt(norm))
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

        Hn = selector.assemble(tables, cursors)
        lap("assemble")

        H = unscale(Hn, b - a, "H")
        # A selected cell is its entry's measured residual; row 0 holds ||M_j||^2.
        report = _summary(H, np.sqrt(tables.cost[cursors, np.arange(n)].sum()),
                          np.sqrt(tables.cost[0].sum()))
        report.truncated_columns = [j for j, path in enumerate(paths) if path.truncated]
        report.fallback_columns = [j for j, path in enumerate(paths) if path.fallback]
        # A fallback or truncated path skips to its NNLS entry: only level r,
        # that entry's, is read as on the full path.  A path that steps but
        # costs the same at every level had its errors underflow to ties.
        inexact = {j for j in report.fallback_columns + report.truncated_columns
                   if cursors[j] < r}
        steps = np.array([len(path.entries) - 1 for path in paths])
        inexact.update(np.flatnonzero((steps > 0) & (tables.cost[0] == tables.cost[r])).tolist())
        report.breakpoints = int(steps.sum())
        report.breakpoint_histogram = [int(c) for c in np.bincount(steps)]
        report.refits = walk.refits
        report.walk = dict(walk.stats)
    violation = _kkt_violation(walk.P, walk.L, Hn, cfg.mode == "unconstrained")
    lap("metrics")
    report.timings_ms = timings
    report.mode = cfg.mode
    report.budget = {"shamans": cfg.q, "ksparse": cfg.k}.get(cfg.mode)
    report.kkt_violation = float(violation.max())
    # A NaN violation, of a non-finite column, is not below the bound.
    report.inexact_columns = sorted(inexact.union(
        np.flatnonzero(~(violation <= KKT_BOUND)).tolist()))
    if cfg.mode == "shamans":
        report.picks = state.picks
        report.overshoot = state.nnz_total - cfg.q
        report.stopped_short = state.nnz_total < cfg.q
        if state.last_pick is not None:
            j, start, level = state.last_pick
            drop = tables.cost[start, j] - tables.cost[level, j]
            with np.errstate(over="ignore"):  # past the float range the gain reads inf
                report.last_gain = float(np.ldexp(drop / (level - start), 2 * b))
    return H, report


def _kkt_violation(P, L, H, nonnegative: bool) -> np.ndarray:
    """Scaled violation of each column's optimality conditions.

    With g = P x - ell, the gradient of 0.5 ||A x - b||^2 (Lawson and
    Hanson, Solving Least Squares Problems, 1974, ch. 23), a refit on
    supp(x) has g = 0 there, and the NNLS optimum also has g >= 0 off it
    (``nonnegative``).  Returns the largest departure of each column,
    divided by max|P| max|x| + max|ell|, the size of the terms whose
    roundoff it measures (0 for a zero column of zero correlations, NaN
    for a column that is not finite).
    """
    H = np.ascontiguousarray(H)  # rows, so that each reduction is elementwise
    g = P @ H
    g -= L
    bad = np.abs(g)
    bad *= H > 0.0  # H >= 0: |g| on the support, 0 off it
    if nonnegative:
        np.maximum(bad, np.negative(g, out=g), out=bad)
    scale = np.abs(P).max() * H.max(axis=0) + np.abs(L).max(axis=0)
    return np.divide(bad.max(axis=0), scale, out=np.zeros(H.shape[1]), where=scale != 0.0)
