import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import shamans.homotopy as homotopy_mod
import shamans.mnnls as mnnls_mod
from shamans.errors import (DimensionMismatch, IterationLimit, NonFiniteEntry,
                            ZeroColumnInDictionary, ZeroDataMatrix)
from shamans.homotopy import PathWalk, regularization_path
from shamans.mnnls import KKT_BOUND, SolveConfig, metrics, solve
from shamans.selector import build_cost_tables, init_gain, select_step
from shamans.nnls import nnls_active_set

import demo_data as dd
from oracles import nnls_bruteforce, reference_path, refit_entries


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
        # Each mode lists the stages that ran; unconstrained mode walks no
        # paths, so it builds no tables and selects nothing.
        M, W = demo
        walked = ["validate", "gram", "paths", "tables", "select", "assemble", "metrics"]
        for cfg, stages in ((SolveConfig(mode="shamans", q=18), walked),
                            (SolveConfig(mode="ksparse", k=3), walked),
                            (SolveConfig(mode="unconstrained"),
                             ["validate", "gram", "nnls", "metrics"])):
            _, report = solve(M, W, cfg)
            assert list(report.timings_ms) == stages
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

    def test_shape_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(0)
        W, M = rng.random((10, 4)), rng.random((10, 7))
        with pytest.raises(DimensionMismatch, match=r"H has shape \(3, 7\) but W \(10, 4\)"):
            metrics(M, W, rng.random((3, 7)))
        with pytest.raises(DimensionMismatch, match=r"M has shape \(5, 7\) but W has shape"):
            metrics(M[:5], W, rng.random((4, 7)))
        with pytest.raises(DimensionMismatch, match=r"H has shape \(4, 5\)"):
            metrics(M, W, rng.random((4, 5)))


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
        for M_, W_ in ((M[:, :0], W), (M, W[:, :0])):
            with pytest.raises(DimensionMismatch, match="M and W must be nonempty"):
                solve(M_, W_, SolveConfig(mode="unconstrained"))

    @pytest.mark.parametrize("scale_M, scale_W", [(1.0, 1e160), (1e160, 1.0)])
    @pytest.mark.parametrize("kwargs", [{"mode": "unconstrained"}, {"mode": "shamans", "q": 10},
                                        {"mode": "ksparse", "k": 2}])
    def test_overflowing_products_raise(self, scale_M, scale_W, kwargs):
        # W.T W or a column's squared norm overflows: the solve used to crash
        # in assemble or return an all-zero H.
        rng = np.random.default_rng(0)
        W, M = scale_W * (rng.random((10, 4)) + 0.05), scale_M * rng.random((10, 7))
        with pytest.raises(NonFiniteEntry, match="overflows"):
            solve(M, W, SolveConfig(**kwargs))
        with pytest.raises(NonFiniteEntry, match="overflows"):
            regularization_path(W, M[:, 0])

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
        # tol = inf used to stop the unconstrained solve at the zero
        # solution and list no column as inexact.
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                SolveConfig(mode="unconstrained", tol=tol)
        for threshold in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="zero_threshold must be nonnegative and finite"):
                SolveConfig(mode="unconstrained", zero_threshold=threshold)
        SolveConfig(mode="unconstrained", zero_threshold=0.0)  # counts every nonzero
        # k = 2.5 used to run as k = 2, and q = NaN passed every check and
        # spent positive gains without limit; a count must be an integer.
        for bad in ({"mode": "ksparse", "k": 2.5}, {"mode": "ksparse", "k": np.nan},
                    {"mode": "ksparse", "k": "3"}, {"mode": "shamans", "q": np.nan},
                    {"mode": "shamans", "q": 18.0}, {"mode": "shamans", "q": np.int64(-1)}):
            with pytest.raises(ValueError, match="nonnegative integer"):
                SolveConfig(**bad)
        assert SolveConfig(mode="shamans", q=np.int64(18)).q == 18
        assert SolveConfig(mode="ksparse", k=np.int32(2)).k == 2

    def test_max_breakpoints_must_be_a_positive_integer(self, demo):
        # 0 or -5 used to send every demo column to the fallback and 2.5
        # ran; each is now rejected when the configuration is built.
        for cap in (0, -5, 2.5, np.nan, "3"):
            with pytest.raises(ValueError, match="max_breakpoints must be a positive integer"):
                SolveConfig(mode="unconstrained", max_breakpoints=cap)
        M, W = demo
        for cap in (None, 1, np.int64(40)):
            _, report = solve(M, W, SolveConfig(mode="ksparse", k=dd.DEMO_R,
                                                max_breakpoints=cap))
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
        cfg = SolveConfig(mode="ksparse", k=dd.DEMO_R, max_breakpoints=1)
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
        _, level_r = solve(M, W, SolveConfig(mode="ksparse", k=dd.DEMO_R, max_breakpoints=1))
        _, budgeted = solve(M, W, SolveConfig(mode="ksparse", k=2, max_breakpoints=1))
        assert exact.inexact_columns == []
        assert level_r.inexact_columns == [] and level_r.fallback_columns == list(range(6))
        assert budgeted.inexact_columns == budgeted.fallback_columns == list(range(6))

    def test_singular_fallback_column_keeps_its_zero_entry(self):
        # Atom 4 is within 1e-9 of (W0 + W1)/2.  With one breakpoint allowed,
        # the NNLS fallback of columns 1 and 4 meets a rank-deficient passive
        # set; those columns keep their zero solution and are inexact in every
        # mode, and the rest solve as they do without them.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = rng.random((8, 10))
        others = [0, 2, 3, 5, 6, 7, 8, 9]
        for cfg in (SolveConfig(mode="ksparse", k=5, max_breakpoints=1),
                    SolveConfig(mode="ksparse", k=2, max_breakpoints=1),
                    SolveConfig(mode="shamans", q=20, max_breakpoints=1)):
            H, report = solve(M, W, cfg)
            assert report.truncated_columns == [1, 4]
            assert {1, 4} <= set(report.fallback_columns)
            assert {1, 4} <= set(report.inexact_columns)
            assert len(set(report.inexact_columns)) == len(report.inexact_columns)
            assert not H[:, [1, 4]].any()
        H_rest, rest = solve(M[:, others], W, SolveConfig(mode="ksparse", k=5,
                                                          max_breakpoints=1))
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=5, max_breakpoints=1))
        np.testing.assert_allclose(H[:, others], H_rest, rtol=0, atol=1e-12)
        assert report.inexact_columns == [1, 4] and rest.inexact_columns == []
        assert report.fallback_columns == sorted([1, 4] + [others[j] for j in
                                                           rest.fallback_columns])

    def test_nested_limit_attaches_column(self, demo, monkeypatch):
        # Zero columns never fall back, so the walk's NNLS solves columns
        # 1, 3, 4, ... as rows 0, 1, 2, ...; its row 2 is data column 4.
        M, W = demo
        M = np.column_stack([np.zeros(M.shape[0]), M[:, 0], np.zeros(M.shape[0]), M[:, 1:]])
        nnls_gram = homotopy_mod.nnls_gram

        def explode(P, ell, mask=None, **kwargs):
            if mask is None:  # the fallback's block solve, not a refit
                assert ell.shape[0] == M.shape[1] - 2
                raise IterationLimit("no pivots for you", row=2)
            return nnls_gram(P, ell, mask, **kwargs)

        monkeypatch.setattr(homotopy_mod, "nnls_gram", explode)
        cfg = SolveConfig(mode="ksparse", k=dd.DEMO_R, max_breakpoints=1)
        with pytest.raises(IterationLimit) as info:
            solve(M, W, cfg)
        assert info.value.column == 4
        assert str(info.value).startswith("column 4 ")

    def test_pooled_refit_limit_attaches_column(self, monkeypatch):
        # Data uncorrelated with a 12-atom dictionary: many least-squares
        # solutions go negative, and their refits drop atoms of the support.
        # The walk pools their refits in round order and, within a round, in
        # column order, and entry i of a path is recorded in round i - 1, so
        # the rows of the first refit call are the first such entries in
        # (entry, column) order; zero columns have none.
        rng = np.random.default_rng(0)
        W = rng.random((40, 12))
        M = rng.random((40, 30))
        M[:, [0, 5]] = 0.0
        walk = PathWalk(W, M)
        pooled = sorted((i, j) for j in range(M.shape[1])
                        for i in np.flatnonzero(refit_entries(walk.path(j).entries)))
        nnls_gram = homotopy_mod.nnls_gram
        first = []

        def explode(P, ell, mask=None, **kwargs):
            if mask is not None and not first:  # the first refit call
                first.append(ell.shape[0])
                raise IterationLimit("no pivots for you", row=ell.shape[0] - 1)
            return nnls_gram(P, ell, mask, **kwargs)

        monkeypatch.setattr(homotopy_mod, "nnls_gram", explode)
        with pytest.raises(IterationLimit) as info:
            solve(M, W, SolveConfig(mode="ksparse", k=12))
        row = first[0] - 1
        entry, column = pooled[row]
        assert entry > pooled[0][0]  # the call pools rows of several rounds
        assert info.value.row == row and info.value.column == column
        assert str(info.value).startswith(f"column {column} ")


class TestPathReport:
    def test_rank_deficient_column_is_listed_as_truncated(self):
        # Atom 4 is within 1e-9 of (W0 + W1)/2, so a support holding atoms
        # 0, 1 and 4 is singular: a path that reaches one stops there,
        # before lambda reaches 0 (column 2 here).
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=5))
        truncated = [j for j in range(4) if regularization_path(W, M[:, j]).truncated]
        assert truncated == [2]
        assert report.truncated_columns == truncated
        assert report.fallback_columns == []

    def test_level_r_lists_truncated_columns_as_inexact(self):
        # The same near-dependent dictionary: column 2's path stops before
        # lambda reaches 0, so its level-r cell is not the NNLS optimum;
        # every other column's is.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=5))
        assert report.inexact_columns == report.truncated_columns == [2]
        for j in (0, 1, 3):
            x, _ = nnls_bruteforce(W, M[:, j])
            np.testing.assert_allclose(H[:, j], x, atol=1e-8)

    def test_block_nnls_solves_the_truncated_column(self):
        # Unconstrained mode walks no path: the block NNLS returns column
        # 2's optimum, where the walk truncates, and certifies every column.
        # Column 3 has two supports within 1.3e-10 of its optimal error
        # (atom 4 against atoms 0 and 1), and the solver's tolerance stops
        # it on the other one.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        _, walked = solve(M, W, SolveConfig(mode="ksparse", k=5))
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert walked.truncated_columns == [2]
        assert report.inexact_columns == report.truncated_columns == []
        for j in range(4):
            x, best = nnls_bruteforce(W, M[:, j])
            if j < 3:
                np.testing.assert_allclose(H[:, j], x, atol=1e-8)
            resid = M[:, j] - W @ H[:, j]
            assert abs(resid @ resid - best) <= 1e-9 * best

    def test_refits_count_negative_least_squares_entries(self):
        # Counted independently: entries of the one-column reference walk
        # whose least-squares solution on the support has a negative entry,
        # so that their refit drops an atom of the support.
        rng = np.random.default_rng(3)
        W = rng.random((12, 8))
        M = rng.random((12, 300))
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=8))
        want = sum(int(refit_entries(reference_path(W, M[:, j]).entries).sum())
                   for j in range(300))
        assert want > 0
        assert report.refits == want

    def test_refits_leave_out_columns_past_the_limit(self):
        # A column past the breakpoint limit drops its pooled refits with its
        # records, so they are not counted: with and without a cap, the
        # count is that of the refit entries the paths keep.
        rng = np.random.default_rng(29)
        W = np.asfortranarray(rng.random((200, 24)) + 0.05)
        H0 = np.where(rng.random((24, 300)) < 0.2, rng.uniform(0.2, 1.0, (24, 300)), 0.0)
        M = np.clip(W @ H0 + 0.005 * rng.standard_normal((200, 300)), 0.0, None)
        counts = []
        for cap in (None, 20):
            _, report = solve(M, W, SolveConfig(mode="ksparse", k=24, max_breakpoints=cap))
            walk = PathWalk(W, M, max_breakpoints=cap)
            kept = sum(int(refit_entries(walk.path(j).entries).sum()) for j in range(300))
            assert report.refits == walk.refits == kept
            counts.append((kept, len(report.fallback_columns)))
        assert counts[0][0] > counts[1][0] > 0 and counts[0][1] == 0 < counts[1][1]


def generated_workloads():
    """perfbench's workload generator, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def assert_matches_level_r(M, W):
    """Unconstrained H against the walk's level-r cells (ksparse k = r):
    the same supports, and entries within 1e-12 of max|H|."""
    H, report = solve(M, W, SolveConfig(mode="unconstrained"))
    H_r, _ = solve(M, W, SolveConfig(mode="ksparse", k=W.shape[1]))
    assert np.array_equal(H > 0.0, H_r > 0.0)
    assert np.abs(H - H_r).max() <= 1e-12 * np.abs(H_r).max()
    return report


class TestUnconstrained:
    def test_matches_level_r_on_random_problems(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            r = int(rng.integers(1, 9))
            M, W, _ = random_problem(rng, int(rng.integers(r, 30)), r, int(rng.integers(1, 40)))
            report = assert_matches_level_r(M, W)
            assert report.inexact_columns == report.truncated_columns == []

    @pytest.mark.parametrize("name", ["pixels-r6", "dict-r24", "tall-io"])
    def test_matches_level_r_on_workloads(self, name):
        # Every column is certified in unconstrained mode and in the
        # workload's own mode.
        workloads = generated_workloads()
        w = workloads.WORKLOADS[name]
        for seed in (1, 2, 3):
            M, W = workloads.generate(w, seed)
            report = assert_matches_level_r(M, W)
            assert report.inexact_columns == [] and report.kkt_violation <= KKT_BOUND
            own = SolveConfig(mode=w.mode, q=w.q, k=w.k)
            _, report = solve(M, W, own)
            assert report.inexact_columns == [] and report.kkt_violation <= KKT_BOUND

    def test_report_describes_no_paths(self, demo):
        M, W = demo
        _, report = solve(M, W, SolveConfig(mode="unconstrained", max_breakpoints=1))
        assert (report.breakpoints, report.breakpoint_histogram, report.refits,
                report.fallback_columns) == (None, None, None, None)
        assert report.inexact_columns == report.truncated_columns == []
        assert 0.0 <= report.kkt_violation <= KKT_BOUND

    def test_singular_passive_set_is_listed(self):
        # The dictionary of TestFallback: the NNLS of columns 1 and 4 meets
        # a rank-deficient passive set.  Those columns are listed and left
        # at 0, and the rest solve as they do without them.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = rng.random((8, 10))
        others = [0, 2, 3, 5, 6, 7, 8, 9]
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert report.truncated_columns == report.inexact_columns == [1, 4]
        assert not H[:, [1, 4]].any()
        H_rest, rest = solve(M[:, others], W, SolveConfig(mode="unconstrained"))
        np.testing.assert_allclose(H[:, others], H_rest, rtol=0, atol=1e-12)
        assert rest.inexact_columns == []

    def test_calls_stay_within_budget(self, demo, monkeypatch):
        # With room for three rows of (r, r) inverses per call, the demo's
        # six columns take two calls; the result does not change, and an
        # IterationLimit in the second call names its data column.
        M, W = demo
        H, _ = solve(M, W, SolveConfig(mode="unconstrained"))
        monkeypatch.setattr(homotopy_mod, "BUDGET", 3 * dd.DEMO_R ** 2)
        nnls_gram = homotopy_mod.nnls_gram
        calls = []

        def spy(P, ell, mask=None, **kwargs):
            calls.append(ell.shape[0])
            return nnls_gram(P, ell, mask, **kwargs)

        monkeypatch.setattr(homotopy_mod, "nnls_gram", spy)
        H_split, _ = solve(M, W, SolveConfig(mode="unconstrained"))
        assert calls == [3, 3]
        np.testing.assert_allclose(H_split, H, rtol=0, atol=1e-12)

        def explode(P, ell, mask=None, **kwargs):
            calls.append(ell.shape[0])
            if len(calls) == 2:
                raise IterationLimit("no pivots for you", row=1)
            return nnls_gram(P, ell, mask, **kwargs)

        calls.clear()
        monkeypatch.setattr(homotopy_mod, "nnls_gram", explode)
        with pytest.raises(IterationLimit) as info:
            solve(M, W, SolveConfig(mode="unconstrained"))
        assert (info.value.row, info.value.column) == (1, 4)
        assert str(info.value).startswith("column 4 ")

    def test_scaled_probe_lists_its_columns(self):
        # At 1e-5 the solver's absolute tolerances swamp the data, and the
        # block NNLS stops short of the optimum; the certificate lists every
        # column it left.  Unscaled, every column is certified.
        rng = np.random.default_rng(3)
        W = rng.random((30, 5)) + 0.05
        M = rng.random((30, 40))
        best = np.column_stack([nnls_bruteforce(W, M[:, j])[0] for j in range(40)])
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        np.testing.assert_allclose(H, best, rtol=0, atol=1e-12)
        assert report.inexact_columns == []
        H, report = solve(1e-5 * M, 1e-5 * W, SolveConfig(mode="unconstrained"))
        far = [j for j in range(40) if np.abs(H[:, j] - best[:, j]).max() > 1e-8]
        assert far and set(far) <= set(report.inexact_columns)
        assert report.kkt_violation > KKT_BOUND


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


class TestReportFromTables:
    """solve reports the error of the selected cost-table cells, not of M - WH."""

    CONFIGS = [{"mode": "unconstrained"}, {"mode": "ksparse", "k": 2},
               {"mode": "shamans", "q": 18}, {"mode": "shamans", "q": 18, "strict_budget": True}]

    @pytest.mark.parametrize("kwargs", CONFIGS)
    def test_matches_metrics(self, kwargs):
        rng = np.random.default_rng(45)
        for _ in range(30):
            M, W, _ = random_problem(rng, int(rng.integers(6, 15)), 4, int(rng.integers(8, 20)))
            H, report = solve(M, W, SolveConfig(**kwargs))
            want = metrics(M, W, H)
            assert report.rel_error == pytest.approx(want.rel_error, rel=1e-12, abs=0)
            assert (report.nnz, report.avg_sparsity, report.per_column_sparsity) == \
                (want.nnz, want.avg_sparsity, want.per_column_sparsity)

    def test_level_r_reads_first_entry_of_least_error(self):
        # Level r holds the first entry of least error, so a refit that ties
        # or undercuts the terminal entry by roundoff is taken instead of it
        # (a few columns of this problem).
        rng = np.random.default_rng(2)
        W = rng.random((40, 8)) + 0.05
        H0 = np.where(rng.random((8, 300)) < 0.5, rng.uniform(0.2, 1.0, (8, 300)), 0.0)
        M = np.clip(W @ H0 + 0.005 * rng.standard_normal((40, 300)), 0.0, None)
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=8))
        assert report.inexact_columns == []
        walk = PathWalk(np.asfortranarray(W), np.asfortranarray(M))
        earlier = 0
        for j in range(300):
            entries = walk.path(j).entries
            i = next(i for i, x in enumerate(entries["solution"]) if np.array_equal(x, H[:, j]))
            err = entries["error_sq"]
            assert err[-1] - 1e-12 * err[0] <= err[i] <= err[-1]
            earlier += i < len(entries) - 1
        assert earlier > 0

    def test_zero_data_matrix(self, demo):
        _, W = demo
        for cfg in (SolveConfig(mode="unconstrained"), SolveConfig(mode="shamans", q=3)):
            with pytest.raises(ZeroDataMatrix):
                solve(np.zeros((5, 6)), W, cfg)

    def test_solve_never_calls_metrics(self, demo, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("solve recomputed the residual")

        monkeypatch.setattr(mnnls_mod, "metrics", explode)
        M, W = demo
        for kwargs in self.CONFIGS:
            solve(M, W, SolveConfig(**kwargs))
