import dataclasses
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


@pytest.fixture
def breakpoint_cap(monkeypatch):
    """A function that caps the paths of the walks solve builds at a given
    number of breakpoints; None restores PathWalk's own 50 r."""
    def cap_at(cap):
        class Capped(PathWalk):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.max_breakpoints = cap  # read when a block is walked

        monkeypatch.setattr(mnnls_mod, "PathWalk", PathWalk if cap is None else Capped)
    return cap_at


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

    def test_counts_exact_nonzeros(self, demo):
        # Entries of 1e-4 count, as q and k count them: an absolute cutoff of
        # 1e-3 once counted none of them, and none of the demo solve's with M
        # scaled by 2^-40, whose H is exactly 2^-40 times the unit one's.
        M, W = demo
        H = np.full((4, 6), 1e-4)
        H[[1, 3], 2] = 0.0
        for scale in (1.0, 2.0 ** -40):
            rep = metrics(M, W, scale * H)
            assert (rep.nnz, rep.avg_sparsity) == (22, 22 / 6)
            assert rep.per_column_sparsity == [0, 0, 1, 0, 5]
        cfg = SolveConfig(mode="shamans", q=18)
        (H, unit), (H_small, small) = solve(M, W, cfg), solve(np.ldexp(M, -40), W, cfg)
        assert np.array_equal(H_small, np.ldexp(H, -40))
        assert (small.nnz, small.avg_sparsity, small.per_column_sparsity) == (
            unit.nnz, unit.avg_sparsity, unit.per_column_sparsity)
        assert small.nnz == 18 == sum(k * c for k, c in enumerate(small.per_column_sparsity))

    def test_has_no_threshold(self, demo):
        M, W = demo
        with pytest.raises(TypeError):
            metrics(M, W, np.zeros((4, 6)), zero_threshold=1e-3)
        assert metrics(M, W, np.zeros((4, 6))).avg_sparsity == 0.0

    def test_zero_data_matrix(self, demo):
        _, W = demo
        with pytest.raises(ZeroDataMatrix):
            metrics(np.zeros((5, 6)), W, np.zeros((4, 6)))

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scales_past_the_squares_range(self, scale):
        # ||M||^2 underflows to 0 at 1e-170 and overflows at 1e160; the norms
        # are taken at M's own scale (densela.frob_norm).
        rng = np.random.default_rng(0)
        W, M = rng.random((10, 4)) + 0.05, rng.random((10, 7))
        H, _ = solve(M, W, SolveConfig(mode="unconstrained"))
        want = metrics(M, W, H)
        got = metrics(scale * M, W, scale * H)
        assert got.rel_error == pytest.approx(want.rel_error, rel=1e-14)
        assert (got.nnz, got.per_column_sparsity) == (want.nnz, want.per_column_sparsity)

    def test_non_finite_input_raises(self, demo):
        # M is checked on its own, W and H through the residual M - W H.
        M, W = demo
        for bad, named in (("M", "M"), ("W", "M - W H"), ("H", "M - W H")):
            A = {"M": M.copy(), "W": W.copy(), "H": np.ones((4, 6))}
            A[bad][0, 0] = np.nan
            with pytest.raises(NonFiniteEntry, match=f"^{named} contains NaN"):
                metrics(A["M"], A["W"], A["H"])

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

    @pytest.mark.parametrize("cfg", [SolveConfig(mode="shamans", q=18),
                                     SolveConfig(mode="ksparse", k=2),
                                     SolveConfig(mode="unconstrained")],
                             ids=["shamans", "ksparse", "unconstrained"])
    def test_memory_layout_changes_no_result(self, demo, cfg):
        # H and the report, apart from the clocks, are byte-identical on
        # C-order and Fortran-order copies of M and W.
        M, W = demo
        solved = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            H, report = solve(order(M), order(W), cfg)
            report.timings_ms = None
            if report.walk is not None:
                del report.walk["refit_ms"]
            solved.append((H.tobytes(), repr(report)))
        assert solved[0] == solved[1]

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
        walk = PathWalk(W, M)
        lockstep = [walk.unscaled_path(j) for j in range(n)]
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
        # W.T W or a column's squared norm overflows at 1e160 in the data's
        # units.  The walk's units (PathWalk) keep them at most m, so the
        # solve matches the unit-scale one; it used to crash in assemble or
        # return an all-zero H, then to raise.  Only a product that leaves
        # the package past the float range raises: an H near 1e400, or the
        # error of a path in units of M 1e160 squared.
        rng = np.random.default_rng(0)
        W, M = rng.random((10, 4)) + 0.05, rng.random((10, 7))
        cfg = SolveConfig(**kwargs)
        want, base = solve(M, W, cfg)
        want *= scale_M / scale_W
        H, report = solve(scale_M * M, scale_W * W, cfg)
        np.testing.assert_allclose(H, want, rtol=0, atol=1e-14 * want.max())
        assert report.rel_error == pytest.approx(base.rel_error, rel=1e-14)
        assert report.inexact_columns == []
        with pytest.raises(NonFiniteEntry, match="H overflows"):
            solve(1e100 * M, 1e-300 * W, cfg)
        path, unit = regularization_path(scale_W * W, M[:, 0]), regularization_path(W, M[:, 0])
        assert np.array_equal(path.entries["support"], unit.entries["support"])
        np.testing.assert_allclose(scale_W * path.entries["solution"], unit.entries["solution"],
                                   rtol=0, atol=1e-14 * unit.entries["solution"].max())
        with pytest.raises(NonFiniteEntry, match="error_sq overflows"):
            regularization_path(W, 1e160 * M[:, 0])

    @pytest.mark.parametrize("bad", ["M", "W"])
    def test_non_finite_input_raises(self, demo, bad):
        A = dict(zip("MW", demo))
        A[bad][1, 2] = np.inf
        with pytest.raises(NonFiniteEntry, match="contains NaN or infinite entries"):
            solve(A["M"], A["W"], SolveConfig(mode="unconstrained"))

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
        with pytest.raises(TypeError):  # every threshold is relative to the data
            SolveConfig(mode="unconstrained", tol=1e-10)
        with pytest.raises(TypeError):  # the report counts exact nonzeros
            SolveConfig(mode="unconstrained", zero_threshold=1e-3)
        # k = 2.5 used to run as k = 2, and q = NaN passed every check and
        # spent positive gains without limit; a count must be an integer.
        for bad in ({"mode": "ksparse", "k": 2.5}, {"mode": "ksparse", "k": np.nan},
                    {"mode": "ksparse", "k": "3"}, {"mode": "shamans", "q": np.nan},
                    {"mode": "shamans", "q": 18.0}, {"mode": "shamans", "q": np.int64(-1)}):
            with pytest.raises(ValueError, match="nonnegative integer"):
                SolveConfig(**bad)
        assert SolveConfig(mode="shamans", q=np.int64(18)).q == 18
        assert SolveConfig(mode="ksparse", k=np.int32(2)).k == 2
        with pytest.raises(TypeError):  # the breakpoint cap is PathWalk's 50 r
            SolveConfig(mode="ksparse", k=2, max_breakpoints=1)
        # A count or flag of another mode used to be kept and ignored: ksparse
        # with q = 5 and strict_budget=True ran as plain k = 2.  The CLI
        # refuses the same flags.  None means "not given".
        for bad, name in ((dict(mode="ksparse", k=2, q=5), "q"),
                          (dict(mode="ksparse", k=2, strict_budget=True), "strict_budget=True"),
                          (dict(mode="shamans", q=18, k=2), "k"),
                          (dict(mode="unconstrained", q=0), "q"),
                          (dict(mode="unconstrained", k=np.int64(3)), "k"),
                          (dict(mode="unconstrained", strict_budget=True), "strict_budget=True")):
            with pytest.raises(ValueError, match=f"^{name} does not apply to {bad['mode']} mode$"):
                SolveConfig(**bad)
        assert SolveConfig(mode="shamans", q=18, k=None, strict_budget=True).strict_budget
        assert SolveConfig(mode="ksparse", q=None, k=2, strict_budget=False).k == 2
        assert SolveConfig(mode="unconstrained", q=None, k=None).q is None

    def test_booleans_are_not_counts(self, demo):
        # bool is a numbers.Integral: q = True ran as q = 1, k = False as k = 0.
        for bad in ({"mode": "shamans", "q": True}, {"mode": "ksparse", "k": False},
                    {"mode": "ksparse", "k": np.True_}):
            with pytest.raises(ValueError, match="nonnegative integer"):
                SolveConfig(**bad)

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

    @pytest.mark.parametrize("strict", [False, True])
    def test_select_takes_the_prefix_at_once(self, monkeypatch, strict):
        # A workload-shaped solve: select takes the sorted segments that
        # leave part of q unspent in one go, so select_step only makes the
        # tail, at most r picks and the call that ends them.
        rng = np.random.default_rng(38)
        m, r, n = 40, 6, 600
        M, W, _ = random_problem(rng, m, r, n)
        selector_mod = mnnls_mod.selector
        step, calls = selector_mod.select_step, []

        def spy(state, tables, q, strict=False):
            calls.append(step(state, tables, q, strict=strict))
            spy.tables = tables
            return calls[-1]

        monkeypatch.setattr(selector_mod, "select_step", spy)
        _, report = solve(M, W, SolveConfig(mode="shamans", q=2 * n,
                                            strict_budget=strict))
        assert 1 < len(calls) <= r + 2
        assert any(pick is not None for pick in calls)
        state = init_gain(spy.tables)
        while step(state, spy.tables, 2 * n, strict=strict) is not None:
            pass
        assert report.picks == state.picks > len(calls)
        assert report.overshoot == state.nnz_total - 2 * n


class TestFallback:
    def test_breakpoint_limit_falls_back_to_active_set(self, demo, breakpoint_cap):
        M, W = demo
        breakpoint_cap(1)
        cfg = SolveConfig(mode="ksparse", k=dd.DEMO_R)
        H, report = solve(M, W, cfg)
        assert report.fallback_columns == list(range(6))
        for j in range(6):
            sol = nnls_active_set(W, M[:, j])
            np.testing.assert_allclose(H[:, j], sol.x, atol=1e-10)

    def test_fallback_paths_feed_selection(self, demo, breakpoint_cap):
        M, W = demo
        breakpoint_cap(1)
        cfg = SolveConfig(mode="shamans", q=18)
        H, report = solve(M, W, cfg)
        assert report.fallback_columns == list(range(6))
        assert report.nnz <= 18 + 3
        assert report.rel_error < 0.05

    def test_fallback_columns_are_inexact_outside_unconstrained(self, demo, breakpoint_cap):
        M, W = demo
        breakpoint_cap(1)
        _, exact = solve(M, W, SolveConfig(mode="unconstrained"))
        _, level_r = solve(M, W, SolveConfig(mode="ksparse", k=dd.DEMO_R))
        _, budgeted = solve(M, W, SolveConfig(mode="ksparse", k=2))
        assert exact.inexact_columns == []
        assert level_r.inexact_columns == [] and level_r.fallback_columns == list(range(6))
        assert budgeted.inexact_columns == budgeted.fallback_columns == list(range(6))

    def test_near_dependent_fallback_columns_reach_the_optimum(self, breakpoint_cap):
        # Atom 4 is within 1e-9 of (W0 + W1)/2.  With one breakpoint allowed,
        # the NNLS fallback of columns 1 and 4 meets a passive set that atom 4
        # would make rank deficient: the solver bars it there and goes on.  So
        # no column is truncated or left at 0, level r reads every column's
        # NNLS optimum, and the fallback columns read below it are inexact.
        # The rest solve as they do without columns 1 and 4.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = rng.random((8, 10))
        others = [0, 2, 3, 5, 6, 7, 8, 9]
        breakpoint_cap(1)
        for cfg in (SolveConfig(mode="ksparse", k=5), SolveConfig(mode="ksparse", k=2),
                    SolveConfig(mode="shamans", q=20)):
            H, report = solve(M, W, cfg)
            assert report.truncated_columns == []
            assert {1, 4} <= set(report.fallback_columns)
            assert set(report.inexact_columns) <= set(report.fallback_columns)
            assert len(set(report.inexact_columns)) == len(report.inexact_columns)
        _, below = solve(M, W, SolveConfig(mode="ksparse", k=2))
        assert below.inexact_columns == below.fallback_columns
        H_rest, rest = solve(M[:, others], W, SolveConfig(mode="ksparse", k=5))
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=5))
        assert H.any(axis=0).all()
        for j in range(10):
            resid = M[:, j] - W @ H[:, j]
            best = nnls_bruteforce(W, M[:, j])[1]
            assert resid @ resid == pytest.approx(best, rel=1e-8, abs=0), j
        np.testing.assert_allclose(H[:, others], H_rest, rtol=0, atol=1e-12)
        assert report.inexact_columns == [] and rest.inexact_columns == []
        assert report.fallback_columns == sorted([1, 4] + [others[j] for j in
                                                           rest.fallback_columns])

    def test_nested_limit_attaches_column(self, demo, monkeypatch, breakpoint_cap):
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
        breakpoint_cap(1)
        cfg = SolveConfig(mode="ksparse", k=dd.DEMO_R)
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

    def test_truncated_columns_end_at_the_nnls_entry(self):
        # The same near-dependent dictionary: column 2's walk stops before
        # lambda reaches 0, and its path then ends at the NNLS entry, so its
        # level-r cell is the NNLS optimum, as every other column's is.
        # Below level r the truncated column is inexact.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = np.column_stack([rng.random(8) for _ in range(4)])
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=5))
        assert report.truncated_columns == [2] and report.inexact_columns == []
        for j in range(4):
            x, _ = nnls_bruteforce(W, M[:, j])
            np.testing.assert_allclose(H[:, j], x, atol=1e-8)
        path = regularization_path(W, M[:, 2])
        assert path.truncated and path.entries["lam"][-1] == 0.0
        x, best = nnls_bruteforce(W, M[:, 2])
        assert path.entries["error_sq"][-1] == pytest.approx(best, rel=1e-8, abs=0)
        np.testing.assert_allclose(path.entries["solution"][-1], x, atol=1e-8)
        _, below = solve(M, W, SolveConfig(mode="ksparse", k=2))
        assert below.inexact_columns == below.truncated_columns == [2]

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

    def test_refits_leave_out_columns_past_the_limit(self, breakpoint_cap):
        # A column past the breakpoint limit drops its pooled refits with its
        # records, so they are not counted: with and without a cap, the
        # count is that of the refit entries the paths keep.
        rng = np.random.default_rng(29)
        W = np.asfortranarray(rng.random((200, 24)) + 0.05)
        H0 = np.where(rng.random((24, 300)) < 0.2, rng.uniform(0.2, 1.0, (24, 300)), 0.0)
        M = np.clip(W @ H0 + 0.005 * rng.standard_normal((200, 300)), 0.0, None)
        counts = []
        for cap in (None, 20):
            breakpoint_cap(cap)
            _, report = solve(M, W, SolveConfig(mode="ksparse", k=24))
            walk = mnnls_mod.PathWalk(W, M)  # capped as the walk solve builds
            kept = sum(int(refit_entries(walk.path(j).entries).sum()) for j in range(300))
            assert report.refits == walk.refits == kept
            counts.append((kept, len(report.fallback_columns)))
        assert counts[0][0] > counts[1][0] > 0 and counts[0][1] == 0 < counts[1][1]

    def test_path_set_reads_as_the_paths(self, monkeypatch, breakpoint_cap):
        # Five blocks of 8 columns, a near-dependent atom that truncates
        # paths, a cap of 6 breakpoints that ends others early and two zero
        # data columns: the walk's path set, one block walked before the
        # rest, holds the walk's own paths; the tables built from it and from
        # those paths listed one by one are byte-equal; and solve's path
        # fields are the paths' own.
        r, n = 5, 40
        monkeypatch.setattr(homotopy_mod, "BUDGET", 8 * 6 * r)
        rng = np.random.default_rng(5)
        W = rng.random((12, r)) + 0.05
        M = rng.random((12, n))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(12)
        M[:, [5, 21]] = 0.0
        breakpoint_cap(6)
        walk = mnnls_mod.PathWalk(W, M)
        assert walk.block == 8
        walk.path(n - 1)
        paths = walk.paths()
        listed = [walk.path(j) for j in range(n)]
        assert len(paths) == n and all(paths[j] is listed[j] for j in range(n))
        truncated = [j for j, path in enumerate(listed) if path.truncated]
        fallback = [j for j, path in enumerate(listed) if path.fallback]
        steps = [len(path.entries) - 1 for path in listed]
        assert truncated and fallback and steps[5] == steps[21] == 0
        flat, each = (build_cost_tables(p, r, n) for p in (paths, listed))
        for name in ("cost", "source", "solutions"):
            got, want = getattr(flat, name), getattr(each, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        for cfg in (SolveConfig(mode="ksparse", k=3), SolveConfig(mode="shamans", q=60)):
            _, report = solve(M, W, cfg)
            assert report.truncated_columns == truncated
            assert report.fallback_columns == fallback
            assert report.breakpoint_histogram == np.bincount(steps).tolist()


class TestWalkReport:
    """The report's ``walk`` entry against the walk's kernel calls, counted
    from outside: a round is one densela.support_solve call from homotopy
    (nnls holds its own binding), round 0, which starts each block's
    columns on one empty slot, included; a refit is an nnls_gram call with
    a start, and a fallback is one PathWalk.nnls call, which ends a block's
    breakpoint-limit and truncated paths."""

    @staticmethod
    def counted(monkeypatch):
        counts = dict.fromkeys(("rounds", "refit_calls", "fallback_calls"), 0)
        support_solve, nnls_gram = homotopy_mod.densela.support_solve, homotopy_mod.nnls_gram
        nnls = PathWalk.nnls

        def rounds(*args):
            counts["rounds"] += 1
            return support_solve(*args)

        def refits(P, ell, mask=None, **kwargs):
            counts["refit_calls"] += "start" in kwargs
            return nnls_gram(P, ell, mask, **kwargs)

        def fallbacks(walk, cols):
            counts["fallback_calls"] += 1
            return nnls(walk, cols)

        monkeypatch.setattr(homotopy_mod.densela, "support_solve", rounds)
        monkeypatch.setattr(homotopy_mod, "nnls_gram", refits)
        monkeypatch.setattr(PathWalk, "nnls", fallbacks)
        return counts

    @staticmethod
    def assert_matches(counts, report):
        walk = report.walk
        assert set(walk) == set(counts) | {"refit_ms"}
        assert {key: walk[key] for key in counts} == counts
        assert all(type(walk[key]) is int for key in counts)
        assert type(walk["refit_ms"]) is float
        assert (walk["refit_ms"] > 0.0) == (walk["refit_calls"] > 0)
        assert walk["refit_ms"] <= report.timings_ms["paths"]

    @pytest.mark.parametrize("name", ["pixels-r6", "dict-r24"])
    def test_workload_shaped_problems(self, name, monkeypatch, breakpoint_cap):
        # 300 columns of each walking workload, on seeds 1-3, and under a
        # cap of 4 breakpoints, which sends some columns to the fallback.
        workloads = generated_workloads()
        w = workloads.WORKLOADS[name]
        w = dataclasses.replace(w, n=300)
        total = dict.fromkeys(("refit_calls", "fallback_calls"), 0)
        for seed, cap in ((1, None), (2, None), (3, None), (1, 4)):
            M, W = workloads.generate(w, seed)
            counts = self.counted(monkeypatch)
            breakpoint_cap(cap)
            _, report = solve(M, W, SolveConfig(mode=w.mode, q=w.q, k=w.k))
            self.assert_matches(counts, report)
            assert counts["rounds"] > 0 and report.truncated_columns == []
            assert counts["fallback_calls"] == (len(report.fallback_columns) > 0)
            for key in total:
                total[key] += counts[key]
        assert total["fallback_calls"] > 0
        assert total["refit_calls"] > 0 or name == "pixels-r6"

    def test_truncated_columns(self, monkeypatch):
        # Atom 4 is within 1e-9 of (W0 + W1)/2 and atom 5 duplicates atom 2,
        # so some entering pivots are unsound, and those paths end
        # truncated, each at its NNLS entry, which one fallback call per
        # block solves.
        rng = np.random.default_rng(72)
        truncated = 0
        for _ in range(10):
            W = rng.random((8, 6))
            W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
            W[:, 5] = W[:, 2]
            M = rng.random((8, 10))
            counts = self.counted(monkeypatch)
            _, report = solve(M, W, SolveConfig(mode="ksparse", k=6))
            self.assert_matches(counts, report)
            truncated += len(report.truncated_columns)
            assert counts["fallback_calls"] == (len(report.truncated_columns) > 0)
        assert truncated > 0

    def test_all_zero_data_block(self, monkeypatch):
        # Blocks of 4 columns, the first all zero: round 0 records its zero
        # entries and ends its paths, so carry_inverse enters no first atom
        # there, and the block counts that one round.
        monkeypatch.setattr(homotopy_mod, "block_width", lambda r: 4)
        rows = []
        carry_inverse = homotopy_mod.carry_inverse

        def carried(P, G, atoms, enter, index):
            rows.append(atoms.shape[0])
            return carry_inverse(P, G, atoms, enter, index)

        monkeypatch.setattr(homotopy_mod, "carry_inverse", carried)
        rng = np.random.default_rng(5)
        W = rng.random((8, 3)) + 0.05
        M = np.hstack([np.zeros((8, 4)), rng.random((8, 6))])
        counts = self.counted(monkeypatch)
        H, report = solve(M, W, SolveConfig(mode="ksparse", k=2))
        self.assert_matches(counts, report)
        assert rows[:2] == [0, 4]  # the first two blocks' round 0
        assert report.breakpoint_histogram[0] == 4 and not H[:, :4].any() and H[:, 4:].any()

    def test_one_atom_dictionary(self, monkeypatch):
        # r = 1: round 0 enters the atom in every nonzero column and round 1
        # ends each path at its NNLS entry; the zero column stops in round 0.
        rng = np.random.default_rng(6)
        W = rng.random((8, 1)) + 0.05
        M = rng.random((8, 12))
        M[:, 3] = 0.0
        counts = self.counted(monkeypatch)
        H, report = solve(M, W, SolveConfig(mode="shamans", q=11))
        self.assert_matches(counts, report)
        assert counts["rounds"] == 2 and report.breakpoint_histogram == [1, 11]
        want = np.maximum(W[:, 0] @ M / (W[:, 0] @ W[:, 0]), 0.0)
        np.testing.assert_allclose(H[0], want, rtol=1e-14)


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

    def test_report_describes_no_paths(self, demo, breakpoint_cap):
        M, W = demo
        breakpoint_cap(1)
        _, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert (report.breakpoints, report.breakpoint_histogram, report.refits, report.walk,
                report.fallback_columns) == (None, None, None, None, None)
        assert report.inexact_columns == report.truncated_columns == []
        assert 0.0 <= report.kkt_violation <= KKT_BOUND

    def test_near_dependent_passive_set_reaches_the_optimum(self):
        # The dictionary of TestFallback: the NNLS of columns 1 and 4 meets
        # a passive set that atom 4 would make rank deficient.  The solver
        # bars it, so no column is listed or left at 0, every column reaches
        # the brute-force error, and the rest solve as they do without them.
        rng = np.random.default_rng(0)
        W = rng.random((8, 5))
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + 1e-9 * rng.random(8)
        M = rng.random((8, 10))
        others = [0, 2, 3, 5, 6, 7, 8, 9]
        H, report = solve(M, W, SolveConfig(mode="unconstrained"))
        assert report.truncated_columns == report.inexact_columns == []
        assert H.any(axis=0).all()
        for j in range(10):
            resid = M[:, j] - W @ H[:, j]
            best = nnls_bruteforce(W, M[:, j])[1]
            assert resid @ resid == pytest.approx(best, rel=1e-8, abs=0), j
        H_rest, rest = solve(M[:, others], W, SolveConfig(mode="unconstrained"))
        np.testing.assert_allclose(H[:, others], H_rest, rtol=0, atol=1e-12)
        assert rest.inexact_columns == []

    def test_calls_stay_within_budget(self, demo, monkeypatch):
        # With blocks three columns wide, the demo's six columns take two
        # calls; the result does not change, and an IterationLimit in the
        # second call names its data column.
        M, W = demo
        H, _ = solve(M, W, SolveConfig(mode="unconstrained"))
        monkeypatch.setattr(homotopy_mod, "BUDGET", 3 * 6 * dd.DEMO_R)
        assert homotopy_mod.block_width(dd.DEMO_R) == 3
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

    def test_takes_no_coordinates(self, demo, monkeypatch):
        # Only path entries read the data's coordinates in W's range: with
        # range_split raising, H is unchanged and the error is measured
        # directly, as metrics measures it.
        problems = [demo, random_problem(np.random.default_rng(8), 300, 4, 50)[:2]]
        want = [solve(M, W, SolveConfig(mode="unconstrained"))[0] for M, W in problems]

        def explode(Q, B):
            raise AssertionError("unconstrained mode split the data")

        monkeypatch.setattr(homotopy_mod, "range_split", explode)
        for (M, W), H_want in zip(problems, want):
            H, report = solve(M, W, SolveConfig(mode="unconstrained"))
            assert H.tobytes() == H_want.tobytes()
            assert report.rel_error == pytest.approx(metrics(M, W, H).rel_error, rel=1e-14, abs=0)

    def test_error_pass_on_an_exact_fit(self):
        # M = W H0 with a zero column: the error is roundoff, and every
        # column, the zero one too, is certified.
        rng = np.random.default_rng(9)
        W = rng.random((30, 5)) + 0.05
        H0 = np.where(rng.random((5, 20)) < 0.6, rng.uniform(0.2, 1.0, (5, 20)), 0.0)
        H0[:, 3] = 0.0
        _, report = solve(W @ H0, W, SolveConfig(mode="unconstrained"))
        assert np.isfinite(report.rel_error) and report.rel_error <= 1e-14
        assert report.inexact_columns == []

    def test_error_pass_reads_row_chunks(self, monkeypatch):
        # With room for 7 rows of 50 entries, B is read 3 rows at a time, so
        # that a chunk and its temporary A X.T stay within BUDGET together,
        # in 20 chunks, and the sums move only by their order.
        M, W, _ = random_problem(np.random.default_rng(10), 60, 4, 50)
        walk = PathWalk(W, M)
        X = walk.nnls(np.arange(50))
        want = walk.error_sq(X)
        reads = []

        class Rows(np.ndarray):
            def __getitem__(self, key):
                reads.append(np.asarray(super().__getitem__(key)))
                return reads[-1]

        monkeypatch.setattr(homotopy_mod, "BUDGET", 7 * 50 + 3)
        monkeypatch.setattr(walk, "B", walk.B.view(Rows))
        got = walk.error_sq(X)
        assert [x.shape for x in reads] == [(3, 50)] * 20
        assert np.concatenate(reads).tobytes() == M.tobytes()
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_scaled_probe_is_exact(self):
        # W and M scaled alike leave H unchanged.  Thresholds with an absolute
        # term once stopped the block NNLS short of the optimum at 1e-5, and
        # made it cycle to its pivot limit at 1e5 and 1e10.
        rng = np.random.default_rng(3)
        W = rng.random((30, 5)) + 0.05
        M = rng.random((30, 40))
        best = np.column_stack([nnls_bruteforce(W, M[:, j])[0] for j in range(40)])
        for scale in (1.0, 1e-5, 1e5, 1e10):
            H, report = solve(scale * M, scale * W, SolveConfig(mode="unconstrained"))
            np.testing.assert_allclose(H, best, rtol=0, atol=1e-12)
            assert report.inexact_columns == []

    @pytest.mark.parametrize("kwargs", [{"mode": "unconstrained"}, {"mode": "shamans", "q": 18},
                                        {"mode": "ksparse", "k": 2}])
    def test_certificate_fails_closed(self, demo, monkeypatch, kwargs):
        # A NaN in one column of H has a NaN scaled violation, which used to
        # read 0 and list nothing; it is not below KKT_BOUND, so it is listed.
        M, W = demo
        assemble, nnls = mnnls_mod.selector.assemble, PathWalk.nnls

        def planted_assemble(tables, cursors):
            H = assemble(tables, cursors).copy()
            H[1, 3] = np.nan
            return H

        def planted_nnls(self, cols):
            X = nnls(self, cols)
            X[3, 1] = np.nan  # row j of X is column j of H
            return X

        monkeypatch.setattr(mnnls_mod.selector, "assemble", planted_assemble)
        monkeypatch.setattr(PathWalk, "nnls", planted_nnls)
        H, report = solve(M, W, SolveConfig(**kwargs))
        assert np.isnan(H[1, 3]) and np.isnan(report.kkt_violation)
        assert report.inexact_columns == [3]


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-7, 1e-5])
def test_near_dependence_sweep(eps):
    # Atom 4 is (W0 + W1)/2 plus eps times noise, over ten random
    # dictionaries of 20 columns each.  No column of H is lost to the
    # dependency (the optimum of this data is never 0), every column left
    # off inexact_columns passes the certificate, recomputed from W and M,
    # and up to eps = 1e-9 reaches the brute-force error within 1e-8.
    rng = np.random.default_rng(11)
    for _ in range(10):
        W = rng.random((12, 5)) + 0.05
        W[:, 4] = 0.5 * (W[:, 0] + W[:, 1]) + eps * rng.random(12)
        M = rng.random((12, 20))
        best = np.array([nnls_bruteforce(W, M[:, j])[1] for j in range(20)])
        for cfg in (SolveConfig(mode="unconstrained"), SolveConfig(mode="ksparse", k=5)):
            H, report = solve(M, W, cfg)
            assert H.any(axis=0).all(), cfg.mode
            exact = np.setdiff1d(np.arange(20), report.inexact_columns)
            violation = mnnls_mod._kkt_violation(W.T @ W, W.T @ M, H, cfg.mode == "unconstrained")
            assert (violation[exact] <= KKT_BOUND).all(), cfg.mode
            if eps <= 1e-9:
                err = ((M - W @ H) ** 2).sum(axis=0)
                assert (np.abs(err - best)[exact] <= 1e-8 * best[exact]).all(), cfg.mode


class TestBreakpointHistogram:
    def assert_matches_paths(self, M, W, report):
        walk = PathWalk(W, M)
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
    """solve reports the error of the selected cost-table cells, or in
    unconstrained mode of its one pass over M, without calling metrics."""

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
        walk = PathWalk(W, M)
        earlier = 0
        for j in range(300):
            entries = walk.unscaled_path(j).entries
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
