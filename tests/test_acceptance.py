"""Acceptance gate: one test per exit criterion, each printing a PASS or
FAIL line with the criterion number.

Criteria 1-4 compare against the reference tables for the demo problem,
which are printed to two decimals.  Those reference tables were generated
from higher-precision inputs than the two-decimal demo matrices shipped
here, so a small set of entries (listed in the failure diagnostics, worst
case ~0.034) cannot be reproduced within +-0.01 from the shipped data by
any faithful implementation; quantities with no algorithmic freedom at
all, such as the squared norm of data column 3 (7.7220 computed vs 7.70
reference), already exceed the tolerance.  The assertions are kept at the
required tolerance and fail honestly rather than being loosened.

Run with ``pytest tests/test_acceptance.py -v``; the one-line-per-criterion
report is replayed in the "acceptance criteria" section at the end of the
run.
"""

import os
import time

import numpy as np
import pytest

import shamans
from shamans import SolveConfig, selector, solve
from shamans.cli import read_csv_matrix
from shamans.densela import gram
from shamans.nnls import nnls_active_set

import demo_data as dd
from acceptance_report import report as _report
from oracles import (kkt_midpoint_violation, min_error_by_total,
                     nnls_bruteforce, random_cost_table,
                     random_nonneg_instance)

# ---------------------------------------------------------------------------
# Reference values, printed to two decimals.
# ---------------------------------------------------------------------------

REF_H_SHAMANS = np.array([
    [0.2,  0.79, 0.06, 0.49, 0.0,  0.0],
    [0.16, 0.32, 0.37, 0.0,  0.46, 0.03],
    [0.28, 0.66, 0.9,  0.0,  0.16, 0.31],
    [0.85, 0.61, 0.69, 0.5,  0.0,  0.0],
])
REF_REL_SHAMANS = 0.0073

REF_H_KSPARSE = np.array([
    [0.0,  0.0,  0.0,  0.49, 0.0,  0.0],
    [0.19, 0.42, 0.38, 0.0,  0.45, 0.03],
    [0.21, 0.38, 0.88, 0.0,  0.16, 0.31],
    [1.04, 1.38, 0.75, 0.49, 0.02, 0.0],
])
REF_REL_KSPARSE = 0.0450

REF_COL0 = {
    "lambdas": [3.16, 2.75, 0.25, 0.06, 0.0],
    "errors": [4.31, 0.67, 0.02, 0.0, 0.0],
    "cards": [0, 1, 2, 3, 4],
    "solutions": np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.15, 0.0, 0.0],
        [0.0, 0.34, 0.0, 1.05],
        [0.0, 0.19, 0.21, 1.04],
        [0.2, 0.16, 0.28, 0.85],
    ]),
}
REF_COL5 = {
    "lambdas": [0.71, 0.37, 0.0],
    "errors": [0.21, 0.03, 0.0],
    "cards": [0, 1, 2],
    "solutions": np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.26, 0.0, 0.0],
        [0.0, 0.03, 0.31, 0.0],
    ]),
}

REF_COST = np.array([
    [4.31, 9.81, 7.70, 1.95, 0.94, 0.21],
    [0.67, 1.24, 0.59, 0.03, 0.01, 0.03],
    [0.02, 0.09, 0.24, 0.0,  0.0,  0.0],
    [0.0,  0.05, 0.0,  0.0,  0.0,  0.0],
    [0.0,  0.0,  0.0,  0.0,  0.0,  0.0],
])
REF_DELTA = np.array([
    [3.64, 8.57, 7.11, 1.92, 0.93, 0.19],
    [0.65, 1.14, 0.35, 0.03, 0.01, 0.03],
    [0.01, 0.05, 0.24, 0.0,  0.0,  0.0],
    [0.0,  0.05, 0.0,  0.0,  0.0,  0.0],
])
REF_GAIN_INIT = np.array([
    [3.64, 8.57, 7.11, 1.92, 0.93, 0.19],
    [2.15, 4.86, 3.73, 0.97, 0.47, 0.11],
    [1.44, 3.25, 2.57, 0.65, 0.31, 0.07],
    [1.08, 2.45, 1.93, 0.49, 0.24, 0.05],
])
REF_GAIN_STEP1 = np.array([
    [3.64, 0.0,  7.11, 1.92, 0.93, 0.19],
    [2.15, 1.14, 3.73, 0.97, 0.47, 0.11],
    [1.44, 0.6,  2.57, 0.65, 0.31, 0.07],
    [1.08, 0.41, 1.93, 0.49, 0.24, 0.05],
])
REF_GAIN_STEP2 = np.array([
    [3.64, 0.0,  0.0,  1.92, 0.93, 0.19],
    [2.15, 1.14, 0.35, 0.97, 0.47, 0.11],
    [1.44, 0.6,  0.29, 0.65, 0.31, 0.07],
    [1.08, 0.41, 0.20, 0.49, 0.24, 0.05],
])
# One-based (sparsity level, column) picks of the first three iterations.
REF_PICKS = [(1, 2), (1, 3), (1, 1)]

TOL_TABLE = 0.01          # two printed decimals
TOL_REL = 0.0005          # 0.05 percentage points


def _diffs(label, computed, reference, tol):
    computed = np.asarray(computed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    delta = np.abs(computed - reference)
    out = []
    for idx in np.argwhere(delta > tol):
        key = tuple(int(v) for v in idx)
        out.append(f"{label}{key}: computed {computed[key]:.4f}, "
                   f"reference {reference[key]:.4f}, "
                   f"|diff| {delta[key]:.4f} > {tol}")
    return out


def test_criterion_1_golden_shamans(demo):
    M, W = demo
    t0 = time.perf_counter()
    H, report = solve(M, W, SolveConfig(mode="shamans", q=18))
    elapsed = time.perf_counter() - t0
    failures = _diffs("H", H, REF_H_SHAMANS, TOL_TABLE)
    if abs(report.rel_error - REF_REL_SHAMANS) > TOL_REL:
        failures.append(f"rel_error {report.rel_error:.4%} vs 0.73%")
    if elapsed >= 0.050:
        failures.append(f"runtime {elapsed * 1e3:.1f} ms >= 50 ms")
    ok = not failures
    _report(1, ok, f"budgeted solve vs reference, rel_error "
                   f"{report.rel_error:.4%}, {elapsed * 1e3:.1f} ms"
                   + ("" if ok else f"; {len(failures)} value(s) out of band"))
    assert ok, "\n".join(failures)


def test_criterion_2_golden_ksparse(demo):
    M, W = demo
    H, report = solve(M, W, SolveConfig(mode="ksparse", k=3))
    failures = _diffs("H", H, REF_H_KSPARSE, TOL_TABLE)
    if abs(report.rel_error - REF_REL_KSPARSE) > TOL_REL:
        failures.append(f"rel_error {report.rel_error:.4%} vs 4.50%")
    ok = not failures
    _report(2, ok, f"per-column 3-sparse solve vs reference, rel_error "
                   f"{report.rel_error:.4%}"
                   + ("" if ok else f"; {len(failures)} value(s) out of band"))
    assert ok, "\n".join(failures)


def _check_path(column, ref):
    path = shamans.regularization_path(dd.DEMO_W, dd.DEMO_M[:, column])
    failures = []
    cards = np.count_nonzero(path.entries["solution"], axis=1).tolist()
    if cards != ref["cards"]:
        failures.append(f"column {column}: cardinalities {cards} vs {ref['cards']}")
        return failures
    failures += _diffs(f"col{column} lambda",
                       path.entries["lam"], ref["lambdas"], TOL_TABLE)
    failures += _diffs(f"col{column} error",
                       path.entries["error_sq"], ref["errors"], TOL_TABLE)
    failures += _diffs(f"col{column} solution",
                       path.entries["solution"], ref["solutions"], TOL_TABLE)
    return failures


def test_criterion_3_golden_paths():
    failures = _check_path(0, REF_COL0) + _check_path(5, REF_COL5)
    ok = not failures
    _report(3, ok, "breakpoint paths of demo columns 1 and 6 vs reference"
                   + ("" if ok else f"; {len(failures)} value(s) out of band"))
    assert ok, "\n".join(failures)


def test_criterion_4_golden_tables():
    paths = [shamans.regularization_path(dd.DEMO_W, dd.DEMO_M[:, j])
             for j in range(dd.DEMO_N)]
    tables = selector.build_cost_tables(paths, dd.DEMO_R, dd.DEMO_N)
    state = selector.init_gain(tables)
    failures = _diffs("C", tables.cost, REF_COST, TOL_TABLE)
    failures += _diffs("deltaC", tables.delta, REF_DELTA, TOL_TABLE)
    failures += _diffs("G0", selector.gain_table(tables.delta, state.cursors),
                       REF_GAIN_INIT, TOL_TABLE)
    picks = []
    snapshots = []
    for _ in range(3):
        picks.append(selector.select_step(state, tables, dd.DEMO_BUDGET))
        snapshots.append(selector.gain_table(tables.delta, state.cursors))
    failures += _diffs("G1", snapshots[0], REF_GAIN_STEP1, TOL_TABLE)
    failures += _diffs("G2", snapshots[1], REF_GAIN_STEP2, TOL_TABLE)
    got_picks = [(level, col + 1) for level, col in picks]
    if got_picks != REF_PICKS:
        failures.append(f"argmax sequence {got_picks} vs {REF_PICKS}")
    ok = not failures
    _report(4, ok, f"cost/gain tables and argmax sequence {got_picks}"
                   + ("" if ok else f"; {len(failures)} value(s) out of band"))
    assert ok, "\n".join(failures)


def test_criterion_5_kkt_property_suite():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    worst_kkt = 0.0
    worst_terminal = 0.0
    for _ in range(1000):
        A, b = random_nonneg_instance(rng, 10, 5)
        P = gram(np.asfortranarray(A))
        path = shamans.regularization_path(A, b)
        worst_kkt = max(worst_kkt, kkt_midpoint_violation(P, A.T @ b, path))
        sol = nnls_active_set(A, b)
        gap = float(np.abs(path.entries["solution"][-1] - sol.x).max())
        worst_terminal = max(worst_terminal, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_kkt <= 1e-8 and worst_terminal <= 1e-8 and elapsed < 30.0
    _report(5, ok, f"1000 paths: worst KKT violation {worst_kkt:.2e}, worst "
                   f"terminal gap {worst_terminal:.2e}, {elapsed:.1f} s")
    assert worst_kkt <= 1e-8
    assert worst_terminal <= 1e-8
    assert elapsed < 30.0


def test_criterion_6_nnls_oracle_suite():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for i in range(1000):
        A, b = random_nonneg_instance(rng, 8, 4)
        if i % 2:
            b = b - A @ np.abs(rng.standard_normal(4)) * 0.5
        sol = nnls_active_set(A, b)
        _, err_star = nnls_bruteforce(A, b)
        worst = max(worst, abs(sol.residual_sq - err_star))
    ok = worst <= 1e-8
    _report(6, ok, f"1000 instances vs support enumeration, worst residual "
                   f"gap {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_7_selection_oracle_suite(tmp_path):
    rng = np.random.default_rng(1007)
    worst = 0.0
    for case in range(200):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        cost = random_cost_table(rng, r, n)
        best = min_error_by_total(cost)
        for q in range(0, r * n + 1):
            tables = selector.CostTables(cost=cost.copy(),
                                         source=np.zeros(cost.shape, dtype=np.int64),
                                         solutions=np.array([None]))
            state = selector.init_gain(tables)
            cursors = selector.select(state, tables, q)
            achieved = int(cursors.sum())
            err = float(sum(cost[cursors[j], j] for j in range(n)))
            gap = abs(err - best[achieved])
            worst = max(worst, gap)
            if gap > 1e-10:
                dump = tmp_path / f"selection_counterexample_{case}_{q}.npy"
                np.save(dump, cost)
                _report(7, False,
                        f"counterexample at case {case}, q={q}: greedy "
                        f"{err:.12f} vs optimum {best[achieved]:.12f} at "
                        f"total {achieved}; table dumped to {dump}")
                raise AssertionError(
                    f"greedy selection suboptimal at achieved budget "
                    f"{achieved} (q={q}); cost table saved to {dump}")
    _report(7, True, f"200 cost tables, all budgets: worst gap to "
                     f"enumeration optimum {worst:.2e}")


def test_criterion_8_budget_window_property():
    rng = np.random.default_rng(1008)
    for _ in range(500):
        m = 10
        r = int(rng.integers(3, 7))
        n = int(rng.integers(4, 16))
        W = np.abs(rng.standard_normal((m, r))) + 0.05
        H0 = np.zeros((r, n))
        for j in range(n):
            k = int(rng.integers(1, r + 1))
            idx = rng.choice(r, size=k, replace=False)
            H0[idx, j] = rng.uniform(0.2, 1.0, size=k)
        M = W @ H0 + 0.01 * np.abs(rng.standard_normal((m, n)))
        q = int(rng.integers(1, r * n + 1))
        _, rep_u = solve(M, W, SolveConfig(mode="unconstrained"))
        available = rep_u.nnz
        _, rep = solve(M, W, SolveConfig(mode="shamans", q=q))
        if available >= q:
            assert q <= rep.nnz <= q + r - 1, (q, rep.nnz, r, available)
        else:
            assert rep.nnz <= available
        _, rep_strict = solve(M, W, SolveConfig(mode="shamans", q=q,
                                                strict_budget=True))
        assert rep_strict.nnz <= q, (q, rep_strict.nnz)
    _report(8, True, "500 instances: default mode lands in [q, q+r-1] when "
                     "unsaturated, strict mode never exceeds q")


def test_criterion_9_scale_smoke():
    rng = np.random.default_rng(1009)
    m, n, r = 200, 10_000, 6
    W = rng.random((m, r)) + 0.05
    H0 = np.zeros((r, n))
    for j in range(n):
        idx = rng.choice(r, size=2, replace=False)
        H0[idx, j] = rng.uniform(0.2, 1.0, size=2)
    M = np.clip(W @ H0 + 0.005 * rng.standard_normal((m, n)), 0.0, None)

    t0 = time.perf_counter()
    _, rep = solve(M, W, SolveConfig(mode="shamans", q=2 * n))
    elapsed = time.perf_counter() - t0
    _, rep_u = solve(M, W, SolveConfig(mode="unconstrained"))
    envelope = 1.1 * rep_u.rel_error
    ok = elapsed < 10.0 and rep.rel_error <= envelope
    _report(9, ok, f"m=200 n=10000 r=6 q=2n in {elapsed:.2f} s, rel_error "
                   f"{rep.rel_error:.4%} vs envelope {envelope:.4%}")
    assert elapsed < 10.0
    assert rep.rel_error <= envelope


@pytest.mark.skipif("SHAMANS_JASPER_DIR" not in os.environ,
                    reason="set SHAMANS_JASPER_DIR to a directory holding "
                           "M.csv and W.csv for the Jasper scene")
def test_optional_jasper_dataset():
    """Optional external-data check, documented in the README.

    With the Jasper scene exported as M.csv (198 x 10000) and its
    ground-truth four-column dictionary as W.csv, a budgeted solve at
    q = 2n must land within 0.5 percentage points of the 5.72% reference
    relative error.
    """
    root = os.environ["SHAMANS_JASPER_DIR"]
    M = read_csv_matrix(os.path.join(root, "M.csv"))
    W = read_csv_matrix(os.path.join(root, "W.csv"))
    n = M.shape[1]
    _, rep = solve(M, W, SolveConfig(mode="shamans", q=2 * n))
    _report(0, abs(rep.rel_error - 0.0572) <= 0.005,
            f"jasper: rel_error {rep.rel_error:.4%} vs 5.72% +- 0.5pp")
    assert abs(rep.rel_error - 0.0572) <= 0.005
