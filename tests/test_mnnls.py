import numpy as np
import pytest

import shamans.mnnls as mnnls_mod
from shamans.errors import (DimensionMismatch, IterationLimit,
                            ZeroColumnInDictionary, ZeroDataMatrix)
from shamans.homotopy import PathWalk, regularization_path
from shamans.mnnls import SolveConfig, metrics, solve
from shamans.selector import build_cost_tables, init_gain, select_step
from shamans.nnls import nnls_active_set

import demo_data as dd
from oracles import nnls_bruteforce, reference_path


def random_problem(rng, m, r, n, col_sparsity=None, noise=0.01):
    W = np.abs(rng.standard_normal((m, r))) + 0.05
    H0 = np.zeros((r, n))
    for j in range(n):
        k = col_sparsity if col_sparsity else int(rng.integers(1, r + 1))
        idx = rng.choice(r, size=k, replace=False)
        H0[idx, j] = rng.uniform(0.2, 1.0, size=k)
    M = W @ H0 + noise * np.abs(rng.standard_normal((m, n)))
    return M, W, H0


class TestSolveDemo:
    def test_shamans(self, demo):
        M, W = demo
        H, report = solve(M, W, SolveConfig(mode="shamans", q=18))
        np.testing.assert_allclose(H, dd.DEMO_H_SHAMANS, atol=1e-9)
        assert report.rel_error == pytest.approx(dd.DEMO_REL_SHAMANS, abs=1e-12)
        assert report.nnz == 18
        assert report.avg_sparsity == pytest.approx(3.0)
        assert report.mode == "shamans" and report.budget == 18
        assert report.per_column_sparsity == [0, 0, 3, 0, 3]
        assert report.fallback_columns == []
        assert report.truncated_columns == []
        assert report.breakpoints == sum(
            len(regularization_path(W, M[:, j]).entries) - 1 for j in range(6))
        assert report.refits == 0
        assert report.inexact_columns == []

    def test_timings_cover_every_stage(self, demo):
        M, W = demo
        for cfg in (SolveConfig(mode="shamans", q=18), SolveConfig(mode="ksparse", k=3),
                    SolveConfig(mode="unconstrained")):
            _, report = solve(M, W, cfg)
            assert list(report.timings_ms) == ["validate", "gram", "paths", "tables",
                                               "select", "assemble", "metrics"]
            assert all(t >= 0.0 for t in report.timings_ms.values())

    def test_ksparse(self, demo):
        M, W = demo
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=3))
        np.testing.assert_allclose(H, dd.DEMO_H_KSPARSE, atol=1e-9)
        assert report.rel_error == pytest.approx(dd.DEMO_REL_KSPARSE, abs=1e-12)
        assert report.budget == 3

    def test_unconstrained(self, demo):
        M, W = demo
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert report.rel_error == pytest.approx(dd.DEMO_REL_UNCONSTRAINED,
                                                 abs=1e-12)
        for j in range(dd.DEMO_N):
            sol = nnls_active_set(W, M[:, j])
            np.testing.assert_allclose(H[:, j], sol.x, atol=1e-8)
        assert report.budget is None


def test_exact_recovery_unconstrained():
    rng = np.random.default_rng(41)
    M, W, H0 = random_problem(rng, 20, 5, 30, col_sparsity=2, noise=0.0)
    H, report = solve(M, W, SolveConfig(mode="unconstrained"))
    assert report.rel_error <= 1e-6


class TestMetrics:
    def test_zero_solution(self, demo):
        M, W = demo
        rep = metrics(M, W, np.zeros((4, 6)))
        assert rep.rel_error == pytest.approx(1.0)
        assert rep.avg_sparsity == 0.0
        assert rep.nnz == 0
        assert rep.per_column_sparsity == [6, 0, 0, 0, 0]

    def test_exact_dense_solution(self):
        rng = np.random.default_rng(42)
        W = np.abs(rng.standard_normal((6, 3))) + 0.1
        H = rng.uniform(0.5, 1.0, size=(3, 4))
        M = W @ H
        rep = metrics(M, W, H)
        assert rep.rel_error == pytest.approx(0.0, abs=1e-12)
        assert rep.avg_sparsity == 3.0

    def test_threshold_controls_counts(self, demo):
        M, W = demo
        H = np.full((4, 6), 1e-4)
        rep = metrics(M, W, H, zero_threshold=1e-3)
        assert rep.avg_sparsity == 0.0
        assert rep.nnz == 24
        rep2 = metrics(M, W, H, zero_threshold=1e-5)
        assert rep2.avg_sparsity == 4.0

    def test_zero_data_matrix(self, demo):
        _, W = demo
        with pytest.raises(ZeroDataMatrix):
            metrics(np.zeros((5, 6)), W, np.zeros((4, 6)))


class TestProperties:
    def test_mode_dominance(self):
        # unconstrained <= shamans(q=k*n) <= ksparse(k) in relative error
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = int(rng.integers(6, 12))
            r = int(rng.integers(2, 6))
            n = int(rng.integers(3, 10))
            M, W, _ = random_problem(rng, m, r, n)
            k = int(rng.integers(1, r + 1))
            _, rep_u = solve(M, W, SolveConfig(mode="unconstrained"))
            _, rep_s = solve(M, W, SolveConfig(mode="shamans", q=k * n))
            _, rep_k = solve(M, W, SolveConfig(mode="ksparse", k=k))
            assert rep_u.rel_error <= rep_s.rel_error + 1e-12
            assert rep_s.rel_error <= rep_k.rel_error + 1e-12

    def test_budget_window(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m, r, n = 10, int(rng.integers(3, 6)), int(rng.integers(5, 20))
            M, W, _ = random_problem(rng, m, r, n)
            q = int(rng.integers(1, r * n + 1))
            _, rep_u = solve(M, W, SolveConfig(mode="unconstrained"))
            available = rep_u.nnz
            H, rep = solve(M, W, SolveConfig(mode="shamans", q=q))
            if available >= q:
                assert q <= rep.nnz <= q + r - 1
            else:
                assert rep.nnz <= available
            H2, rep2 = solve(M, W, SolveConfig(mode="shamans", q=q,
                                               strict_budget=True))
            assert rep2.nnz <= q

    def test_determinism_serial_vs_parallel(self, demo):
        # Repeated solves agree bit for bit, and walking the columns one at
        # a time gives the tables that the lockstep walk of all columns does.
        M, W = demo
        cfg = SolveConfig(mode="shamans", q=18)
        H1, _ = solve(M, W, cfg)
        H2, _ = solve(M, W, cfg)
        assert np.array_equal(H1, H2)
        r, n = W.shape[1], M.shape[1]
        serial = [regularization_path(W, M[:, j]) for j in range(n)]
        walk = PathWalk(np.asfortranarray(W), np.asfortranarray(M))
        lockstep = [regularization_path(W, M[:, j], walk=walk, column=j)
                    for j in range(n)]
        np.testing.assert_allclose(build_cost_tables(lockstep, r, n).cost,
                                   build_cost_tables(serial, r, n).cost,
                                   rtol=1e-12, atol=0)


class TestValidation:
    def test_dimension_mismatch(self, demo):
        M, W = demo
        with pytest.raises(DimensionMismatch):
            solve(M[:4, :], W, SolveConfig(mode="unconstrained"))

    def test_zero_column_dictionary(self, demo):
        M, W = demo
        W = W.copy()
        W[:, 2] = 0.0
        with pytest.raises(ZeroColumnInDictionary):
            solve(M, W, SolveConfig(mode="unconstrained"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="nope")
        with pytest.raises(ValueError):
            SolveConfig(mode="shamans")  # missing q
        with pytest.raises(ValueError):
            SolveConfig(mode="ksparse")  # missing k
        with pytest.raises(ValueError):
            SolveConfig(mode="shamans", q=-1)
        with pytest.raises(ValueError):
            SolveConfig(mode="unconstrained", tol=0.0)
        for threshold in (-1.0, np.nan):
            with pytest.raises(ValueError, match="zero_threshold must be nonnegative"):
                SolveConfig(mode="unconstrained", zero_threshold=threshold)
        SolveConfig(mode="unconstrained", zero_threshold=0.0)  # counts every nonzero

    def test_max_breakpoints_must_be_a_positive_integer(self, demo):
        # 0 or -5 used to send every demo column to the fallback and 2.5
        # ran; each is now rejected when the configuration is built.
        for cap in (0, -5, 2.5, np.nan, "3"):
            with pytest.raises(ValueError, match="max_breakpoints must be a positive integer"):
                SolveConfig(mode="unconstrained", max_breakpoints=cap)
        M, W = demo
        for cap in (None, 1, np.int64(40)):
            _, report = solve(M, W, SolveConfig(mode="unconstrained", max_breakpoints=cap))
            assert report.fallback_columns == ([] if cap != 1 else list(range(6)))

    def test_budget_exceeding_capacity(self, demo):
        M, W = demo
        with pytest.raises(ValueError):
            solve(M, W, SolveConfig(mode="shamans", q=25))
        with pytest.raises(ValueError):
            solve(M, W, SolveConfig(mode="ksparse", k=5))


class TestSelectionStatistics:
    # q=18 is the demo budget, met exactly; at q=11 the default greedy's
    # last pick overshoots by one and strict mode takes a smaller advance
    # instead; at q=20 the positive gains run out one nonzero short.
    @pytest.mark.parametrize("q, strict, picks, overshoot", [
        (18, False, 17, 0), (18, True, 17, 0), (11, False, 11, 1),
        (11, True, 11, 0), (20, False, 18, -1), (20, True, 18, -1)])
    def test_demo(self, demo, q, strict, picks, overshoot):
        M, W = demo
        H, report = solve(M, W, SolveConfig(mode="shamans", q=q,
                                            strict_budget=strict))
        assert (report.picks, report.overshoot) == (picks, overshoot)
        assert report.stopped_short == (overshoot < 0)
        # Replay the greedy one step at a time; the last pick's gain comes
        # from the frozen cost table.
        tables = build_cost_tables(
            [regularization_path(W, M[:, j]) for j in range(dd.DEMO_N)],
            dd.DEMO_R, dd.DEMO_N)
        state = init_gain(tables)
        steps = []
        before = state.cursors.copy()
        while (step := select_step(state, tables, q, strict=strict)) is not None:
            level, j = step
            steps.append((j, int(before[j]), level))
            before = state.cursors.copy()
        assert len(steps) == picks
        assert int(before.sum()) - q == overshoot
        j, start, level = steps[-1]
        assert report.last_gain == pytest.approx(
            (dd.DEMO_COST[start, j] - dd.DEMO_COST[level, j]) / (level - start),
            rel=1e-9)

    def test_zero_budget_and_other_modes(self, demo):
        M, W = demo
        _, report = solve(M, W, SolveConfig(mode="shamans", q=0))
        assert (report.picks, report.overshoot, report.stopped_short,
                report.last_gain) == (0, 0, False, None)
        for cfg in (SolveConfig(mode="ksparse", k=2),
                    SolveConfig(mode="unconstrained")):
            _, report = solve(M, W, cfg)
            assert (report.picks, report.overshoot, report.stopped_short,
                    report.last_gain) == (None, None, None, None)


class TestFallback:
    def test_breakpoint_limit_falls_back_to_active_set(self, demo):
        M, W = demo
        cfg = SolveConfig(mode="unconstrained", max_breakpoints=1)
        H, report = solve(M, W, cfg)
        assert report.fallback_columns == list(range(6))
        for j in range(6):
            sol = nnls_active_set(W, M[:, j])
            np.testing.assert_allclose(H[:, j], sol.x, atol=1e-10)

    def test_fallback_paths_feed_selection(self, demo):
        M, W = demo
        cfg = SolveConfig(mode="shamans", q=18, max_breakpoints=1)
        H, report = solve(M, W, cfg)
        assert report.fallback_columns == list(range(6))
        assert report.nnz <= 18 + 3
        assert report.rel_error < 0.05

    def test_fallback_columns_are_inexact_outside_unconstrained(self, demo):
        M, W = demo
        _, exact = solve(M, W, SolveConfig(mode="unconstrained", max_breakpoints=1))
        _, budgeted = solve(M, W, SolveConfig(mode="ksparse", k=2, max_breakpoints=1))
        assert exact.inexact_columns == []
        assert budgeted.inexact_columns == budgeted.fallback_columns == list(range(6))

    def test_nested_limit_attaches_column(self, demo, monkeypatch):
        M, W = demo

        def explode(*args, **kwargs):
            raise IterationLimit("no pivots for you")

        monkeypatch.setattr(mnnls_mod, "nnls_active_set", explode)
        cfg = SolveConfig(mode="unconstrained", max_breakpoints=1)
        with pytest.raises(IterationLimit) as info:
            solve(M, W, cfg)
        assert info.value.column == 0


class TestPathReport:
    def test_rank_deficient_column_is_listed_as_truncated(self):
        # Atom 4 is within 1e-9 of (W0 + W1)/2, so a support holding atoms
        # 0, 1 and 4 is singular: a path that reaches one stops there,
        # before lambda reaches 0 (column 2 here).
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        truncated = [j for j in range(4) if regularization_path(W, M[:, j]).truncated]
        assert truncated == [2]
        assert report.truncated_columns == truncated
        assert report.fallback_columns == []

    def test_unconstrained_lists_truncated_columns_as_inexact(self):
        # The same near-dependent dictionary: column 2's path stops before
        # lambda reaches 0, so its column of H is not the NNLS optimum the
        # mode promises; every other column is.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert report.inexact_columns == report.truncated_columns == [2]
        for j in (0, 1, 3):
            x, _ = nnls_bruteforce(W, M[:, j])
            np.testing.assert_allclose(H[:, j], x, atol=1e-8)

    def test_refits_count_negative_least_squares_entries(self):
        # Counted independently: entries of the one-column reference walk
        # whose least-squares solution on the support has a negative entry.
        rng = np.random.default_rng(3)
        W = rng.random((12, 8))
        M = rng.random((12, 300))
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        want = sum(int((reference_path(W, M[:, j]).entries["coeff_a"] < 0.0).any(axis=1).sum())
                   for j in range(300))
        assert want > 0
        assert report.refits == want


class TestBreakpointHistogram:
    def assert_matches_paths(self, M, W, report):
        walk = PathWalk(np.asfortranarray(W), np.asfortranarray(M))
        steps = [len(walk.path(j).entries) - 1 for j in range(M.shape[1])]
        hist = report.breakpoint_histogram
        assert sum(hist) == M.shape[1]
        assert sum(k * c for k, c in enumerate(hist)) == report.breakpoints
        assert len(hist) - 1 == max(steps)

    def test_demo(self, demo):
        M, W = demo
        H, report = solve(M, W, SolveConfig(mode="shamans", q=18))
        self.assert_matches_paths(M, W, report)

    def test_random_problem(self):
        M, W, _ = random_problem(np.random.default_rng(41), 40, 8, 300)
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=3))
        self.assert_matches_paths(M, W, report)
