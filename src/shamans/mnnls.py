"""End-to-end solve of sparse multiple right-hand-sides NNLS.

Given data M (m x n) and dictionary W (m x r), compute H >= 0 minimizing
||M - WH||_F under one of three regimes: a global nonzero budget spread
across columns (shamans), a fixed per-column sparsity (ksparse), or no
sparsity constraint at all (unconstrained).  The Gram matrix W.T W and the
correlations W.T M are computed once and shared by every column's path;
the paths are walked in lockstep blocks of columns, then selected from.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import selector
from .densela import as_matrix, frob_norm
from .errors import DimensionMismatch, ZeroColumnInDictionary, ZeroDataMatrix
from .homotopy import PathWalk, check_max_breakpoints, regularization_path
from .nnls import check_tol

MODES = ("shamans", "ksparse", "unconstrained")


@dataclass
class SolveConfig:
    """Solve mode and numerical knobs.

    Exactly one of ``q`` (total nonzero budget, shamans mode) or ``k``
    (per-column sparsity, ksparse mode) applies.  ``zero_threshold`` only
    affects sparsity reporting, never the solve itself.  ``strict_budget``
    forbids the final selection step from overshooting q.
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

    ``timings_ms`` maps each stage of the solve to its wall time in
    milliseconds, in order: validate, gram (W.T W, W.T M and the thin QR
    of W), paths, tables, select, assemble and metrics.  ``breakpoints``
    totals the path steps of all columns, and entry k of
    ``breakpoint_histogram`` counts the columns whose path took k steps;
    ``refits`` counts the steps whose unbiased refit needed the active-set
    solver, because least squares on the support went negative, on the
    paths that keep them (a fallback column's are dropped).  Columns
    listed in ``fallback_columns`` hit the breakpoint limit, so their path
    holds only its two ends, the zero and the NNLS solution; those in
    ``truncated_columns`` ended their path early on a rank-deficient
    support.  ``inexact_columns`` lists the columns of H that are neither
    a solution of their full path nor the NNLS optimum: every truncated
    column, and the fallback columns outside unconstrained mode (whose
    path has nothing between its two ends).

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
    breakpoints: int = 0
    breakpoint_histogram: list = field(default_factory=list)
    refits: int = 0
    fallback_columns: list = field(default_factory=list)
    truncated_columns: list = field(default_factory=list)
    inexact_columns: list = field(default_factory=list)
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
    ``report.fallback_columns`` instead of aborting the whole run.
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
        cursors = np.full(n, cfg.k if cfg.mode == "ksparse" else r, dtype=np.int64)
    lap("select")

    H = selector.assemble(tables, cursors)
    lap("assemble")

    # A selected cell is its entry's measured residual; row 0 holds ||M_j||^2.
    report = _summary(H, np.sqrt(tables.cost[cursors, np.arange(n)].sum()),
                      np.sqrt(tables.cost[0].sum()), cfg.zero_threshold)
    lap("metrics")
    report.timings_ms = timings
    report.mode = cfg.mode
    report.budget = {"shamans": cfg.q, "ksparse": cfg.k}.get(cfg.mode)
    report.fallback_columns = [j for j, path in enumerate(paths) if path.fallback]
    report.truncated_columns = [j for j, path in enumerate(paths) if path.truncated]
    report.inexact_columns = [j for j, path in enumerate(paths) if path.truncated
                              or path.fallback and cfg.mode != "unconstrained"]
    steps = np.array([len(path.entries) - 1 for path in paths])
    report.breakpoints = int(steps.sum())
    report.breakpoint_histogram = [int(c) for c in np.bincount(steps)]
    report.refits = walk.refits
    if cfg.mode == "shamans":
        report.picks = state.picks
        report.overshoot = state.nnz_total - cfg.q
        report.stopped_short = state.nnz_total < cfg.q
        if state.last_pick is not None:
            j, start, level = state.last_pick
            drop = tables.cost[start, j] - tables.cost[level, j]
            report.last_gain = float(drop) / (level - start)
    return H, report
