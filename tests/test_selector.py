import itertools

import numpy as np
import pytest

from shamans.errors import MissingZeroEntry
from shamans.homotopy import (PathWalk, RegularizationPath, path_dtype,
                              regularization_path)
from shamans.selector import (CostTables, assemble, build_cost_tables,
                              gain_table, init_gain, select, select_step)

import demo_data as dd
from oracles import (min_error_by_total, random_cost_table,
                     reference_cost_tables, reference_select)

R, N = dd.DEMO_R, dd.DEMO_N


def synthetic_path(entries, r=4):
    """Path of synthetic (lam, err, card) entries, each with `card`
    leading nonzeros."""
    path = np.zeros(len(entries), path_dtype(r))
    for e, (lam, err, card) in zip(path, entries):
        e["lam"], e["error_sq"] = lam, err
        e["support"][:card] = True
        e["solution"][:card] = 1.0
    return RegularizationPath(path)


def demo_paths():
    return [regularization_path(dd.DEMO_W, dd.DEMO_M[:, j]) for j in range(N)]


def demo_tables():
    return build_cost_tables(demo_paths(), R, N)


def synthetic_tables(cost):
    """Tables for selection only: every cell holds the one zero solution."""
    levels, n = cost.shape
    return CostTables(cost=np.asarray(cost, dtype=float),
                      source=np.zeros((levels, n), dtype=np.int64),
                      solutions=np.zeros((1, levels - 1)))


def solution(tables, k, j):
    return tables.solutions[tables.source[k, j]]


def selection_state(state):
    """Everything a pick moves, with the type of each count."""
    counts = (state.nnz_total, state.position, state.picks) + (state.last_pick or ())
    return (state.cursors.tolist(), counts, [type(c) for c in counts])


def random_paths(rng, r, n):
    """Synthetic paths with errors on a few integers: exact ties within
    and across cardinalities, sparser entries after denser ones, and
    later entries with larger errors than earlier ones."""
    paths = []
    for _ in range(n):
        entries = [(9.0, float(rng.integers(4, 7)), 0)]
        for _ in range(int(rng.integers(0, 8))):
            card = int(rng.integers(0, r + 1))
            entries.append((0.0, float(rng.integers(0, 7)), card))
        paths.append(synthetic_path(entries, r))
    return paths


class TestBuildCostTables:
    def test_demo_matches_frozen(self):
        tables = build_cost_tables(demo_paths(), R, N)
        np.testing.assert_allclose(tables.cost, dd.DEMO_COST, atol=1e-9)

    def test_zero_level_is_squared_column_norm(self):
        tables = build_cost_tables(demo_paths(), R, N)
        norms = (dd.DEMO_M ** 2).sum(axis=0)
        np.testing.assert_allclose(tables.cost[0, :], norms, rtol=1e-12)

    def test_columns_nonincreasing_and_solutions_consistent(self):
        tables = build_cost_tables(demo_paths(), R, N)
        assert np.all(np.diff(tables.cost, axis=0) <= 0.0)
        for k in range(R + 1):
            for j in range(N):
                x = solution(tables, k, j)
                assert np.count_nonzero(x) <= k
                resid = dd.DEMO_M[:, j] - dd.DEMO_W @ x
                assert float(resid @ resid) == pytest.approx(
                    tables.cost[k, j], abs=1e-8)

    def test_gap_propagation(self):
        # Entries only at cardinalities 0 and 2: rows 2..r carry the
        # 2-sparse solution, row 1 keeps the zero solution.
        path = synthetic_path([(2.0, 10.0, 0), (0.0, 1.0, 2)])
        tables = build_cost_tables([path], 4, 1)
        np.testing.assert_allclose(tables.cost[:, 0], [10, 10, 1, 1, 1])
        assert np.count_nonzero(solution(tables, 1, 0)) == 0
        assert np.count_nonzero(solution(tables, 3, 0)) == 2

    def test_sparser_later_entry_wins_denser_rows(self):
        # A 2-sparse solution found after a 3-sparse one, with a smaller
        # error: the row for level 3 must hold the 2-sparse error.
        path = synthetic_path([
            (3.0, 10.0, 0),
            (1.0, 5.0, 3),
            (0.0, 3.0, 2),
        ])
        tables = build_cost_tables([path], 4, 1)
        np.testing.assert_allclose(tables.cost[:, 0], [10, 10, 3, 3, 3])
        assert np.count_nonzero(solution(tables, 3, 0)) == 2

    def test_stale_error_never_overwrites(self):
        # A later entry with a *larger* error must not displace rows
        # already filled with smaller values.
        path = synthetic_path([
            (3.0, 10.0, 0),
            (1.0, 2.0, 1),
            (0.0, 4.0, 2),
        ])
        tables = build_cost_tables([path], 4, 1)
        np.testing.assert_allclose(tables.cost[:, 0], [10, 2, 2, 2, 2])

    def test_missing_zero_entry(self):
        path = synthetic_path([(1.0, 5.0, 2)])
        with pytest.raises(MissingZeroEntry):
            build_cost_tables([path], 4, 1)
        good = synthetic_path([(1.0, 5.0, 0)])
        with pytest.raises(MissingZeroEntry, match="column 1 "):
            build_cost_tables([good, synthetic_path([]), good], 4, 3)

    def test_path_count_must_match(self):
        good = synthetic_path([(1.0, 5.0, 0)])
        with pytest.raises(ValueError, match="expected 2 paths, got 1"):
            build_cost_tables([good], 4, 2)


class TestFoldMatchesReference:
    def assert_same_tables(self, paths, r, n):
        tables = build_cost_tables(paths, r, n)
        cost, source = reference_cost_tables(paths, r, n)
        assert np.array_equal(tables.cost, cost)
        assert np.array_equal(tables.source, source)
        entries = [e for path in paths for e in path.entries]
        for k, j in np.ndindex(source.shape):
            assert np.array_equal(solution(tables, k, j), entries[source[k, j]]["solution"])

    def test_synthetic_paths_with_ties(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            r, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            self.assert_same_tables(random_paths(rng, r, n), r, n)

    def test_demo_paths(self):
        self.assert_same_tables(demo_paths(), R, N)

    def test_lockstep_walk(self):
        rng = np.random.default_rng(37)
        m, r, n = 30, 6, 200
        W = np.abs(rng.standard_normal((m, r)))
        H = rng.uniform(size=(r, n)) * (rng.uniform(size=(r, n)) < 0.5)
        M = W @ H + 0.05 * np.abs(rng.standard_normal((m, n)))
        walk = PathWalk(W, M)
        self.assert_same_tables([walk.path(j) for j in range(n)], r, n)


class TestDeltaCost:
    def test_demo(self):
        tables = demo_tables()
        expected = dd.DEMO_COST[:-1, :] - dd.DEMO_COST[1:, :]
        np.testing.assert_allclose(tables.delta, expected, atol=1e-9)
        assert np.all(tables.delta >= 0.0)

    def test_constant_column(self):
        tables = synthetic_tables(np.full((4, 1), 2.5))
        np.testing.assert_array_equal(tables.delta, np.zeros((3, 1)))

    def test_single_drop(self):
        tables = synthetic_tables(np.array([[1.0], [0.0], [0.0], [0.0]]))
        np.testing.assert_array_equal(tables.delta[:, 0], [1.0, 0.0, 0.0])


class TestInitGain:
    def test_prefix_means_single_column(self):
        cost = np.array([[4.3], [0.66], [0.01], [0.0], [0.0]])
        tables = synthetic_tables(cost)
        state = init_gain(tables)
        expected = [3.64, (3.64 + 0.65) / 2, (3.64 + 0.65 + 0.01) / 3,
                    (3.64 + 0.65 + 0.01) / 4]
        np.testing.assert_allclose(gain_table(tables.delta, state.cursors)[:, 0],
                                   expected, rtol=1e-12)

    def test_all_zero(self):
        tables = synthetic_tables(np.full((5, 3), 1.0))
        state = init_gain(tables)
        np.testing.assert_array_equal(gain_table(tables.delta, state.cursors),
                                      np.zeros((4, 3)))
        assert len(state.segments) == 0
        assert select_step(state, tables, 5) is None

    def test_demo_top_entry(self):
        tables = demo_tables()
        state = init_gain(tables)
        level, col = state.segments[0]
        assert (level, col) == (1, 1)
        assert gain_table(tables.delta, state.cursors)[0, 1] == pytest.approx(
            8.58349710771, abs=1e-9)


class TestSelect:
    def test_demo_budget18(self):
        tables = demo_tables()
        state = init_gain(tables)
        picks = [select_step(state, tables, dd.DEMO_BUDGET) for _ in range(3)]
        assert picks == dd.DEMO_FIRST_PICKS
        cursors = select(state, tables, dd.DEMO_BUDGET)
        np.testing.assert_array_equal(cursors, dd.DEMO_CURSORS)
        assert state.nnz_total == dd.DEMO_BUDGET

    def test_zero_budget(self):
        tables = demo_tables()
        state = init_gain(tables)
        cursors = select(state, tables, 0)
        np.testing.assert_array_equal(cursors, np.zeros(N, dtype=int))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            cost = random_cost_table(rng, 3, 4)
            tables = synthetic_tables(cost)
            best = min_error_by_total(cost)
            state = init_gain(tables)
            cursors = select(state, tables, 6)
            achieved = int(cursors.sum())
            total_err = float(sum(cost[cursors[j], j] for j in range(4)))
            assert total_err == pytest.approx(best[achieved], abs=1e-10)

    def test_strict_mode_never_exceeds_budget(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            cost = random_cost_table(rng, 4, 5)
            for q in range(0, 21):
                tables = synthetic_tables(cost)
                state = init_gain(tables)
                cursors = select(state, tables, q, strict=True)
                assert int(cursors.sum()) <= q

    def test_strict_mode_takes_best_fitting_step(self):
        # Best advance jumps two levels, but only one nonzero remains in
        # the budget; strict mode must fall back to the best single step.
        cost = np.array([
            [10.0, 10.0],
            [9.0, 8.0],
            [0.0, 7.9],
        ])
        tables = synthetic_tables(cost)
        state = init_gain(tables)
        cursors = select(state, tables, 1, strict=True)
        np.testing.assert_array_equal(cursors, [0, 1])
        tables2 = synthetic_tables(cost)
        cursors2 = select(init_gain(tables2), tables2, 1)
        # default mode takes the 2-level jump and overshoots to q + r - 1
        np.testing.assert_array_equal(cursors2, [2, 0])

    def test_default_mode_overshoot_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            r = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            cost = random_cost_table(rng, r, n)
            available = sum(
                int(np.flatnonzero(cost[:-1, j] - cost[1:, j] > 0).max(initial=-1)) + 1
                for j in range(n))
            for q in range(0, r * n + 1):
                tables = synthetic_tables(cost)
                state = init_gain(tables)
                cursors = select(state, tables, q)
                got = int(cursors.sum())
                if available >= q:
                    assert q <= got <= q + r - 1
                else:
                    assert got == available

    def test_gain_table_is_per_column_prefix_mean(self):
        # Leading zeros below the cursor leave the running sums exact.
        rng = np.random.default_rng(34)
        for _ in range(50):
            r, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            delta = rng.uniform(0.0, 5.0, size=(r, n))
            cursors = rng.integers(0, r + 1, size=n)
            G = gain_table(delta, cursors)
            for j, c in enumerate(cursors):
                expected = np.zeros(r)
                expected[c:] = np.cumsum(delta[c:, j]) / np.arange(1, r - c + 1)
                assert np.array_equal(G[:, j], expected)

    def test_each_pick_is_the_gain_table_argmax(self):
        tables = demo_tables()
        state = init_gain(tables)
        while True:
            G = gain_table(tables.delta, state.cursors)
            pick = select_step(state, tables, dd.DEMO_BUDGET)
            if pick is None:
                break
            level, col = pick
            assert G[level - 1, col] == G.max()

    def test_matches_reference_heap_greedy(self):
        # Identical pick sequences and cursors at every budget, both modes.
        # In the last table column 0 gains 1 and then 1 + 2**-52 (their
        # mean rounds to 1): sorting by raw gain would take (2, 0) first.
        rng = np.random.default_rng(35)
        costs = [demo_tables().cost, np.array([[3.0, 3.0], [2.0, 2.0], [1 - 2**-52, 2.0]])]
        for i in range(160):
            cost = random_cost_table(rng, int(rng.integers(1, 7)),
                                     int(rng.integers(1, 8)))
            costs.append(np.round(cost) if i % 2 else cost)  # ties when rounded
        for cost in costs:
            r, n = cost.shape[0] - 1, cost.shape[1]
            for q, strict in itertools.product(range(r * n + 2), (False, True)):
                tables = synthetic_tables(cost)
                state = init_gain(tables)
                picks = []
                while (pick := select_step(state, tables, q, strict)) is not None:
                    picks.append(pick)
                ref_cursors, ref_picks = reference_select(tables.delta, q, strict)
                assert picks == ref_picks, (cost, q, strict)
                np.testing.assert_array_equal(state.cursors, ref_cursors)
                # select, from a fresh state or after a few steps, leaves the
                # state where the step loop does, its counts Python ints.
                for steps in (0, 1, 3):
                    other = init_gain(tables)
                    for _ in range(steps):
                        select_step(other, tables, q, strict)
                    select(other, tables, q, strict)
                    assert selection_state(other) == selection_state(state), (
                        cost, q, strict, steps)

    def test_larger_budget_after_strict_picks(self):
        # Strict picks move cursors off the segments; a later select at a
        # larger budget must still leave the state where the steps do, and
        # each of those steps advances a cursor and lowers the total error.
        rng = np.random.default_rng(39)
        for _ in range(40):
            cost = random_cost_table(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
            tables = synthetic_tables(cost)
            r, n = tables.levels, tables.columns
            for q in range(r * n):
                stepped, selected = init_gain(tables), init_gain(tables)
                select(stepped, tables, q, strict=True)
                select(selected, tables, q, strict=True)
                while True:
                    before = stepped.cursors.copy()
                    if select_step(stepped, tables, r * n) is None:
                        break
                    assert (stepped.cursors >= before).all(), (cost, q, before)
                    error = [cost[c, np.arange(n)].sum() for c in (before, stepped.cursors)]
                    assert error[1] < error[0], (cost, q, before)
                select(selected, tables, r * n)
                assert selection_state(selected) == selection_state(stepped), (cost, q)

    def test_total_error_monotone(self):
        tables = demo_tables()
        state = init_gain(tables)
        prev = float(sum(tables.cost[0, :]))
        while select_step(state, tables, dd.DEMO_BUDGET) is not None:
            cur = float(sum(tables.cost[state.cursors[j], j] for j in range(N)))
            assert cur <= prev + 1e-12
            prev = cur

    def test_negative_budget_rejected(self):
        tables = demo_tables()
        with pytest.raises(ValueError):
            select(init_gain(tables), tables, -1)


class TestAssemble:
    def test_demo_cursors(self):
        tables = demo_tables()
        H = assemble(tables, dd.DEMO_CURSORS)
        np.testing.assert_allclose(H, dd.DEMO_H_SHAMANS, atol=1e-9)

    def test_full_budget_matches_terminal_solutions(self):
        paths = demo_paths()
        tables = demo_tables()
        H = assemble(tables, np.full(N, R))
        for j in range(N):
            np.testing.assert_allclose(H[:, j], paths[j].entries["solution"][-1],
                                       atol=1e-12)

    def test_zero_cursors(self):
        tables = demo_tables()
        H = assemble(tables, np.zeros(N, dtype=int))
        np.testing.assert_array_equal(H, np.zeros((R, N)))

    def test_nonzeros_bounded_by_cursor(self):
        tables = demo_tables()
        for tup in itertools.product(range(R + 1), repeat=2):
            cursors = np.array(tup + (0,) * (N - 2))
            H = assemble(tables, cursors)
            for j in range(N):
                assert np.count_nonzero(H[:, j]) <= cursors[j]
