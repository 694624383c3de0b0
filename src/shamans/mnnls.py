"""End-to-end solve of sparse multiple right-hand-sides NNLS.

Given data M (m x n) and dictionary W (m x r), compute H >= 0 minimizing
||M - WH||_F under one of three regimes: a global nonzero budget spread
across columns (shamans), a fixed per-column sparsity (ksparse), or no
sparsity constraint at all (unconstrained).  The Gram matrix W.T W and the
correlations W.T M are computed once and shared by every column's path;
the paths are walked in lockstep blocks of columns, then selected from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import selector
from .densela import as_matrix, frob_norm, gram
from .errors import (DimensionMismatch, IterationLimit, ZeroColumnInDictionary,
                     ZeroDataMatrix)
from .homotopy import (PathWalk, RegularizationPath, check_max_breakpoints, lambda_max,
                       path_dtype, regularization_path)
from .nnls import nnls_active_set

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
        if self.mode == "shamans" and (self.q is None or self.q < 0):
            raise ValueError("shamans mode needs a nonnegative budget q")
        if self.mode == "ksparse" and (self.k is None or self.k < 0):
            raise ValueError("ksparse mode needs a nonnegative per-column k")
        if not self.tol > 0:  # also NaN
            raise ValueError("tol must be positive")
        if not self.zero_threshold >= 0:  # also NaN
            raise ValueError("zero_threshold must be nonnegative")
        check_max_breakpoints(self.max_breakpoints)


@dataclass
class UnmixReport:
    """Quality and cost summary of one solve.

    ``timings_ms`` maps each stage of the solve to its wall time in
    milliseconds, in order: validate, gram (W.T W and W.T M), paths,
    tables, select, assemble and metrics.  ``breakpoints`` totals the path
    steps of all columns, and entry k of ``breakpoint_histogram`` counts
    the columns whose path took k steps; ``refits`` counts the steps whose
    unbiased refit needed the active-set solver, because least squares on
    the support went negative.  Columns listed in ``fallback_columns`` hit
    the breakpoint limit and were solved by plain NNLS instead; those in
    ``truncated_columns`` ended their path early on a rank-deficient
    support.  ``inexact_columns`` lists the columns of H that are neither
    a solution of their full path nor the NNLS optimum: every truncated
    column, and the fallback columns outside unconstrained mode (whose
    two-entry path has nothing between zero and the NNLS solution).

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
    fallback_columns: list = field(default_factory=list)
    truncated_columns: list = field(default_factory=list)
    breakpoints: int = 0
    breakpoint_histogram: list = field(default_factory=list)
    refits: int = 0
    inexact_columns: list = field(default_factory=list)
    picks: int | None = None
    overshoot: int | None = None
    stopped_short: bool | None = None
    last_gain: float | None = None


def metrics(M, W, H, zero_threshold: float = 1e-3) -> UnmixReport:
    """Relative Frobenius error and sparsity statistics of a solution.

    ``avg_sparsity`` and the per-column histogram count entries above
    ``zero_threshold``; ``nnz`` counts exact nonzeros.
    """
    M = as_matrix(M, "M")
    W = as_matrix(W, "W")
    H = as_matrix(H, "H")
    denom = frob_norm(M)
    if denom == 0.0:
        raise ZeroDataMatrix("data matrix is identically zero")
    r, n = H.shape
    rel = frob_norm(M - W @ H) / denom
    counts = (H > zero_threshold).sum(axis=0)
    hist = np.bincount(counts, minlength=r + 1)
    return UnmixReport(
        rel_error=float(rel),
        avg_sparsity=float(counts.sum()) / n,
        nnz=int(np.count_nonzero(H)),
        per_column_sparsity=[int(c) for c in hist],
    )


def _fallback_path(W, b, P, ell, tol) -> RegularizationPath:
    """Two-entry path (zero solution, plain NNLS solution) for a column
    whose homotopy hit the breakpoint limit."""
    sol = nnls_active_set(W, b, tol=tol, gram_matrix=P, corr=ell)
    lam0, _ = lambda_max(ell[None])
    entries = np.zeros(2, path_dtype(ell.shape[0]))
    entries["lam"] = lam0[0], 0.0
    entries["error_sq"] = b @ b, sol.residual_sq
    entries["cardinality"][1] = sol.support.size
    entries["support"][1, sol.support] = True
    entries["solution"][1] = entries["coeff_a"][1] = sol.x
    return RegularizationPath(entries, truncated=True)


def solve(M, W, cfg: SolveConfig):
    """Solve for H >= 0 under the configured sparsity regime.

    Returns (H, report).  Columns whose path exceeds the breakpoint limit
    fall back to a plain NNLS solve and are listed in
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
    if not np.all((W * W).sum(axis=0) > 0.0):
        raise ZeroColumnInDictionary("dictionary has an all-zero column")
    if cfg.mode == "shamans" and cfg.q > r * n:
        raise ValueError(f"budget q={cfg.q} exceeds r*n={r * n}")
    if cfg.mode == "ksparse" and cfg.k > r:
        raise ValueError(f"k={cfg.k} exceeds the dictionary size r={r}")
    lap("validate")

    P = gram(W)
    L = W.T @ M
    lap("gram")

    walk = PathWalk(W, M, tol=cfg.tol, max_breakpoints=cfg.max_breakpoints,
                    gram_matrix=P, corr=L)
    paths, fallbacks, truncated = [], [], []
    for j in range(n):
        # Every path passes the public per-column call, where the benchmark's
        # trace counts breakpoints; a block is walked on its first read.
        try:
            path = regularization_path(W, M[:, j], walk=walk, column=j)
        except IterationLimit:
            fallbacks.append(j)
            try:
                path = _fallback_path(W, M[:, j], P, L[:, j], cfg.tol)
            except IterationLimit as exc:
                exc.column = j
                raise
        else:
            if path.truncated:
                truncated.append(j)
        paths.append(path)
    lap("paths")

    unconstrained = cfg.mode == "unconstrained"
    tables = None if unconstrained else selector.build_cost_tables(paths, r, n)
    lap("tables")

    if cfg.mode == "shamans":
        state = selector.init_gain(tables)
        cursors = selector.select(state, tables, cfg.q, strict=cfg.strict_budget)
    elif cfg.mode == "ksparse":
        cursors = np.full(n, cfg.k, dtype=np.int64)
    lap("select")

    if unconstrained:
        H = np.concatenate([path.entries["solution"][-1:] for path in paths]).T
    else:
        H = selector.assemble(tables, cursors)
    lap("assemble")

    report = metrics(M, W, H, zero_threshold=cfg.zero_threshold)
    lap("metrics")
    report.timings_ms = timings
    report.mode = cfg.mode
    report.budget = {"shamans": cfg.q, "ksparse": cfg.k}.get(cfg.mode)
    report.fallback_columns = fallbacks
    report.truncated_columns = truncated
    report.inexact_columns = sorted(truncated + ([] if unconstrained else fallbacks))
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
