"""The lockstep path engine against the one-column reference walk.

Columns of one dictionary are walked together through a PathWalk and
read back in the data's units (PathWalk.unscaled_path); each must match
reference_path on its own: identical support sequences and ``truncated`` flags, and lam,
error and solution within 1e-12 relative to their largest value along
the reference path.  A breakpoint whose lam is ill-conditioned (a
crossing ratio of sums that cancel) may also differ by r eps times its
first-order condition number times |lam|.  The walk that carries each
support's inverse across breakpoints is also checked against one that
solves every support afresh.
"""

import numpy as np
import pytest

from shamans import densela, homotopy
from shamans.densela import exponent
from shamans.errors import IterationLimit
from shamans.homotopy import PathWalk, RegularizationPath, path_dtype, regularization_path
from shamans.nnls import nnls_active_set
from shamans.selector import build_cost_tables

import demo_data as dd
from oracles import (breakpoint_condition, extended_residual_sq, nnls_bruteforce, reference_path,
                     refit_entries)

RTOL = 1e-12
EPS = np.finfo(float).eps
WIDTH = 256  # columns per block in the tests that cross block boundaries


@pytest.fixture
def unfactored(monkeypatch):
    """Make densela.spd_factor, and homotopy's binding of it, raise: the
    walk's rank rule is carry_inverse's, which factors nothing, so the
    suites that use this still walk (the oracles hold their own binding)."""
    def factor(S):
        raise AssertionError("the walk factored a matrix")

    for module in (densela, homotopy):
        monkeypatch.setattr(module, "spd_factor", factor)


def blocks_of_width(monkeypatch, r):
    """Size the walk's blocks over r atoms at WIDTH columns."""
    monkeypatch.setattr(homotopy, "BUDGET", WIDTH * 6 * r)
    assert homotopy.block_width(r) == WIDTH


def walk_all(A, B, cap=None):
    """Every column's path from one lockstep walk; given ``cap``, a path
    longer than that many breakpoints ends at its NNLS solution."""
    walk = PathWalk(A, B)
    if cap is not None:
        walk.max_breakpoints = cap  # read when a block is walked, on its first path
    return [walk.unscaled_path(j) for j in range(B.shape[1])]


def reference(A, b, **kwargs):
    try:
        return reference_path(A, b, **kwargs)
    except IterationLimit as exc:
        return exc


def supports(path):
    """The path's supports as index tuples, in path order."""
    return [tuple(np.flatnonzero(mask).tolist()) for mask in path.entries["support"]]


def assert_same_path(got, want, lam_slack=0.0):
    """Paths match; ``lam_slack`` widens the lam check breakpoint by breakpoint."""
    assert supports(got) == supports(want)
    assert got.truncated == want.truncated
    for field in ("lam", "error_sq", "solution"):
        w, g = want.entries[field], got.entries[field]
        atol = RTOL * max(np.abs(w).max(), 1e-300)
        if field == "lam":
            atol = np.maximum(atol, lam_slack)
        off = ~(np.abs(g - w) <= atol)  # NaN is off
        assert not off.any(), (field, np.argwhere(off), g[off], w[off])
    assert np.array_equal(*(np.count_nonzero(p.entries["solution"], axis=1)
                            for p in (got, want)))


def assert_nnls_entry(entry, A, b):
    """``entry`` is the path entry at lambda = 0 of the NNLS solution."""
    sol = nnls_active_set(A, b)
    assert entry["lam"] == 0.0 and np.count_nonzero(entry["solution"]) == sol.support.size
    assert np.array_equal(np.flatnonzero(entry["support"]), sol.support)
    np.testing.assert_allclose(entry["solution"], sol.x, rtol=0, atol=1e-12)
    assert entry["error_sq"] == pytest.approx(sol.residual_sq, rel=1e-12, abs=1e-300)


def assert_ended_early(got, free, A, b, pooled_rtol=0.0):
    """``got`` ended early: its entries before the last are the first ones
    of ``free``, the uncapped walk's path, byte for byte, and its last is
    the NNLS entry.  Given ``pooled_rtol``, the refits and errors of the
    entries refit in a pool (refit_entries) may instead differ by that
    much relative to their largest value along ``free``: the last refits of
    a capped walk share their nnls_gram call with other rows."""
    head = got.entries[:-1]
    want = free.entries[:len(head)]
    pooled = refit_entries(want) if pooled_rtol else np.zeros(len(want), dtype=bool)
    assert head[~pooled].tobytes() == want[~pooled].tobytes()
    for field in ("lam", "support"):
        assert head[field].tobytes() == want[field].tobytes()
    for field in ("error_sq", "solution"):
        atol = pooled_rtol * np.abs(free.entries[field]).max()
        off = ~(np.abs(head[field] - want[field]) <= atol)  # NaN is off
        assert not off.any(), (field, np.argwhere(off))
    assert_nnls_entry(got.entries[-1], A, b)


def assert_matches_reference(A, B, cap=None, pooled_rtol=0.0):
    """Each column's path matches the reference walk.  Where that walk passes
    the breakpoint limit ``cap``, the path walked ``cap`` breakpoints, the
    uncapped walk's (assert_ended_early, with ``pooled_rtol``) and the
    uncapped reference walk's first ones, and ended early: it falls back,
    or it truncates on an entering pivot that turned unsound in the last
    round."""
    free = None if cap is None else walk_all(A, B)
    r = A.shape[1]
    for j, got in enumerate(walk_all(A, B, cap)):
        want = reference(A, B[:, j], max_breakpoints=cap)
        if isinstance(want, IterationLimit):
            assert got.fallback != got.truncated and len(got.entries) == cap + 2
            assert_ended_early(got, free[j], A, B[:, j], pooled_rtol)
            want = reference_path(A, B[:, j])
            kappa = breakpoint_condition(A, B[:, j], want.entries)[:cap + 1]
            got, want = (RegularizationPath(p.entries[:cap + 1]) for p in (got, want))
        else:
            assert not got.fallback
            kappa = breakpoint_condition(A, B[:, j], want.entries)
        assert_same_path(got, want, r * EPS * kappa * np.abs(want.entries["lam"]))


def test_random_instances():
    # 100 dictionaries x 12 right-hand sides = 1200 instances.
    rng = np.random.default_rng(61)
    for _ in range(100):
        m, r = int(rng.integers(3, 13)), int(rng.integers(1, 8))
        A = np.abs(rng.standard_normal((m, r)))
        B = np.abs(rng.standard_normal((m, 12)))
        assert_matches_reference(A, B)


def test_same_path_rejects_nan():
    rng = np.random.default_rng(68)
    A = rng.random((8, 3)) + 0.1
    want = reference_path(A, A @ np.array([1.0, 0.5, 0.2]))
    for field in ("lam", "error_sq", "solution"):
        got = RegularizationPath(want.entries.copy())
        got.entries[field][-1] = np.nan
        with pytest.raises(AssertionError):
            assert_same_path(got, want, lam_slack=np.full(len(want.entries), 1.0))


def test_columns_across_block_boundaries(monkeypatch):
    blocks_of_width(monkeypatch, 6)
    rng = np.random.default_rng(62)
    A = rng.random((20, 6)) + 0.05
    H = np.where(rng.random((6, WIDTH + 44)) < 0.4, rng.random((6, WIDTH + 44)), 0.0)
    B = np.clip(A @ H + 0.01 * rng.standard_normal((20, WIDTH + 44)), 0.0, None)
    assert_matches_reference(A, B)


def test_exact_ties():
    rng = np.random.default_rng(63)
    for _ in range(50):
        A = rng.random((6, 4))
        A[:, 3] = A[:, 1]  # duplicated atom: equal correlations, singular pair
        B = rng.random((6, 5))
        assert_matches_reference(A, B)
    # Orthonormal atoms and equal weights: every correlation ties.
    A = np.eye(4)[:, :3]
    B = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 0.0], [0.5, 0.0]])
    assert_matches_reference(A, B)
    paths = walk_all(A, B)
    assert supports(paths[0]) == [(), (0,), (0, 1), (0, 1, 2)]


def test_zero_and_uncorrelated_columns():
    rng = np.random.default_rng(64)
    A = rng.random((7, 3)) + 0.1
    B = rng.random((7, 6))
    B[:, [0, 3]] = 0.0
    B[:, 5] = -B[:, 5]  # every correlation negative: zero is optimal throughout
    paths = walk_all(A, B)
    assert_matches_reference(A, B)
    for j in (0, 3, 5):
        assert len(paths[j].entries) == 1 and not paths[j].truncated


def test_near_dependent_dictionaries(unfactored):
    # Atom 4 is within 1e-9 of (W0 + W1)/2, so the support that completes
    # {0, 1, 4} is singular, and its entering pivot, with no factorization
    # (unfactored), stops the walk: the path goes from its last
    # sound entry to the NNLS entry at lambda = 0, which reaches the
    # brute-force error.  The breakpoint where that last atom would enter
    # is a ratio of two quantities near zero, which roundoff moves by up to
    # about 1e-5; it is compared at 1e-4.
    rng = np.random.default_rng(65)
    truncated = 0
    for _ in range(100):
        A = rng.random((8, 5))
        A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(8)
        B = rng.random((8, 10))
        for j, got in enumerate(walk_all(A, B)):
            want = reference(A, B[:, j])
            truncated += want.truncated
            if want.truncated:
                end, got.entries = got.entries[-1], got.entries[:-1]
                assert_nnls_entry(end, A, B[:, j])
                best = nnls_bruteforce(A, B[:, j])[1]
                assert end["error_sq"] == pytest.approx(best, rel=1e-8, abs=0)
                last_want, last_got = want.entries[-1], got.entries[-1]
                want.entries, got.entries = want.entries[:-1], got.entries[:-1]
                assert last_got["lam"] == pytest.approx(last_want["lam"], rel=1e-4)
                assert np.array_equal(last_got["support"], last_want["support"])
            assert_same_path(got, want)
    assert truncated > 0


def test_exact_dependency():
    # Atom 4 is exactly (W0 + W1)/2.  With one of atoms 0 and 1 on the
    # support, the other one and atom 4 reach the same entering ratio in
    # exact arithmetic, and roundoff decides which of them enters.  The two
    # walks may part only at such a tie; up to it they match, and both end
    # at the NNLS optimum error.
    rng = np.random.default_rng(67)
    for _ in range(100):
        A = rng.random((8, 5))
        A[:, 4] = 0.5 * (A[:, 0] + A[:, 1])
        B = rng.random((8, 10))
        for j, got in enumerate(walk_all(A, B)):
            want = reference(A, B[:, j])
            scale = float(B[:, j] @ B[:, j])
            assert got.entries["error_sq"][-1] == pytest.approx(
                want.entries["error_sq"][-1], abs=RTOL * scale)
            sg = [set(s) for s in supports(got)]
            sw = [set(s) for s in supports(want)]
            i = next((i for i, (g, w) in enumerate(zip(sg, sw)) if g != w), None)
            if i is not None:
                assert sg[i] ^ sw[i] <= {0, 1, 4}
                got.entries, want.entries = got.entries[:i], want.entries[:i]
            assert_same_path(got, want)


def test_breakpoint_limit_of_one():
    rng = np.random.default_rng(66)
    A = rng.random((8, 4)) + 0.05
    A[:, 0] *= 4.0
    B = rng.random((8, 40))
    B[:, :3] = 0.0
    B[:, 3:6] = A[:, [0]]  # the dominant atom alone: one breakpoint
    results = walk_all(A, B, cap=1)
    assert_matches_reference(A, B, cap=1)
    assert any(p.fallback for p in results)
    assert not any(p.fallback for p in results[:6])


def test_breakpoint_limit_across_block_boundaries(monkeypatch, tiny_pivots):
    # Atom 4 is within 1e-9 of (W0 + W1)/2, so the NNLS of some columns
    # meets a passive set that atom 4 would make rank deficient, and bars
    # it; every seventh column is a multiple of atom 2 and finishes in one
    # breakpoint.  Past the limit of two, a path keeps the uncapped walk's
    # first three entries and ends at the NNLS entry, which reaches the
    # brute-force error, barred atom or not; every other path is the
    # uncapped walk's.
    blocks_of_width(monkeypatch, 5)
    rng = np.random.default_rng(0)
    A = rng.random((8, 5))
    A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(8)
    B = rng.random((8, WIDTH + 44))
    B[:, ::7] = A[:, [2]] * rng.random(B[:, ::7].shape[1])
    capped, free = walk_all(A, B, cap=2), walk_all(A, B)
    kinds = {"finished": set(), "fallback": set(), "barred": set()}
    for j, (got, want) in enumerate(zip(capped, free)):
        if not got.fallback:
            assert got.entries.tobytes() == want.entries.tobytes()
            assert got.truncated == want.truncated
            kinds["finished"].add(j >= WIDTH)
            continue
        assert not got.truncated and len(got.entries) == 4
        tiny_pivots.clear()
        assert_ended_early(got, want, A, B[:, j])
        best = nnls_bruteforce(A, B[:, j])[1]
        assert got.entries[-1]["error_sq"] == pytest.approx(best, rel=1e-8, abs=0)
        kinds["barred" if any(tiny_pivots) else "fallback"].add(j >= WIDTH)
    # Every kind of column occurs in both blocks.
    assert all(blocks == {False, True} for blocks in kinds.values())


def test_block_widths():
    # A round's three (columns, 2, r) arrays fill the budget, 1,024 columns at
    # r = 24, and r = 0 is sized as r = 1; one round's records, 16 + 9 r bytes
    # per column, stay within it.
    assert homotopy.BUDGET == 256 * 24 * 24
    assert [homotopy.block_width(r) for r in (0, 1, 4, 6, 24)] == [
        24_576, 24_576, 6_144, 4_096, 1_024]
    for r in range(30):
        dtype = homotopy.path_dtype(r)
        assert dtype.names == ("lam", "error_sq", "support", "solution")
        assert dtype.itemsize == 16 + 9 * r
        width = homotopy.block_width(r)
        assert width * max(6 * r, dtype.itemsize / 8) <= homotopy.BUDGET


def counted_refits(monkeypatch):
    """Record the rows of every refit call of the walk."""
    rows = []
    nnls_gram = homotopy.nnls_gram

    def counting(P, ell, mask=None, **kwargs):
        if mask is not None:  # a refit, not the breakpoint-limit solve
            rows.append(ell.shape[0])
        return nnls_gram(P, ell, mask, **kwargs)

    monkeypatch.setattr(homotopy, "nnls_gram", counting)
    return rows


def test_pooled_refits_span_flushes(monkeypatch):
    # Data uncorrelated with a 12-atom dictionary: 300 columns in one block
    # (block_width(12) is 2,048) whose refits fill half the block more than
    # twice.  The records match those of a walk whose blocks hold one column
    # each, which refits every round.
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.random((40, 12)))
    B = np.asfortranarray(rng.random((40, 300)))
    calls = counted_refits(monkeypatch)
    pooled = walk_all(A, B)
    assert len(calls) >= 3 and min(calls[:-1]) >= 150
    calls.clear()
    monkeypatch.setattr(homotopy, "BUDGET", 6 * 12)
    assert homotopy.block_width(12) == 1
    each_round = walk_all(A, B)
    assert sum(calls) == sum(int(refit_entries(p.entries).sum()) for p in each_round) > 300
    for got, want in zip(pooled, each_round):
        assert_same_path(got, want)


def test_refit_pool_stays_within_a_block(monkeypatch):
    # A round pools its negative rows whole, and the pool is refit once it
    # holds half the block's width, so no call holds 1.5 widths.  Column 13
    # of this data pools refits at entries 4 and 5, under half a block of
    # five columns, and column 5, here in four copies, first at entry 8:
    # one call refits all six rows, more than the block's width.  All 20
    # columns in one block take two calls.
    rng = np.random.default_rng(0)
    A = rng.random((40, 12))
    B = rng.random((40, 20))
    calls = counted_refits(monkeypatch)
    for columns, want in (([13, 5, 5, 5, 5], [6]), (range(20), [10, 10])):
        calls.clear()
        walk_all(A, B[:, columns])
        width = len(columns)
        assert calls == want
        assert all(2 * rows >= width for rows in calls[:-1])
        assert all(rows < 1.5 * width for rows in calls)


def test_one_refit_call_pads_the_pooled_stacks(monkeypatch):
    # Nearly disjoint atoms (entries of rand ** 6) over 40 columns: the walk
    # pools 15 refits from rounds whose stacks held from 4 to 11 slots, and
    # refits them all in one nnls_gram call at the end of the block.  Each
    # row enters that call in its own slot order, padded with empty slots
    # to the widest stack, and with the least-squares solution its round
    # recorded, and the paths match the reference.
    rng = np.random.default_rng(6)
    r, m, n = 12, 40, 40
    A = rng.random((m, r)) ** 6
    H = np.where(rng.random((r, n)) < 0.3, rng.uniform(0.2, 1.0, (r, n)), 0.0)
    B = np.clip(A @ H + 0.001 * rng.standard_normal((m, n)), 0.0, None)
    calls, widths = [], []
    nnls_gram, carry_inverse = homotopy.nnls_gram, homotopy.carry_inverse

    def capturing(P, ell, mask=None, **kwargs):
        calls.append((mask, *map(np.copy, kwargs["start"])))  # before they are carried
        return nnls_gram(P, ell, mask, **kwargs)

    def carrying(P, G, atoms, enter, index):
        out = carry_inverse(P, G, atoms, enter, index)
        widths.append(out[1].shape[1])  # the stack's slots in the next round
        return out

    monkeypatch.setattr(homotopy, "nnls_gram", capturing)
    monkeypatch.setattr(homotopy, "carry_inverse", carrying)
    paths = walk_all(A, B)
    assert len(calls) == 1
    mask, G, atoms, Z = calls[0]
    # Pool order: by round, then by column.  Entry e comes from round e - 1.
    pooled = sorted((e - 1, j) for j, p in enumerate(paths)
                    for e in np.flatnonzero(refit_entries(p.entries)))
    assert len(pooled) == atoms.shape[0] == 15
    held = [widths[t] for t, _ in pooled]
    assert atoms.shape[1] == max(held) == 11 and min(held) == 4
    # The refit's stacks are in the walk's units, A 2^-a and B 2^-b (PathWalk).
    An, Bn = (np.ldexp(X, -exponent(X)) for X in (A, B))
    for i, ((t, j), k) in enumerate(zip(pooled, held)):
        assert np.array_equal(mask[i], paths[j].entries[t + 1]["support"])
        assert (atoms[i, k:] == r).all() and not G[i, k:].any() and not G[i, :, k:].any()
        on = atoms[i] < r
        assert np.array_equal(np.sort(atoms[i, on]), np.flatnonzero(mask[i]))
        want = np.linalg.inv((An.T @ An)[np.ix_(atoms[i, on], atoms[i, on])])
        np.testing.assert_allclose(G[i][np.ix_(on, on)], want, rtol=0,
                                   atol=1e-10 * np.abs(want).max())
        # The start is the least-squares solution the round recorded.
        z = np.zeros(r)
        z[atoms[i, on]] = want @ (An.T @ Bn[:, j])[atoms[i, on]]
        np.testing.assert_allclose(Z[i], z, rtol=0, atol=1e-10 * np.abs(z).max())
        assert (Z[i] < 0.0).any()
    assert_matches_reference(A, B)


def test_data_read_within_budget(monkeypatch):
    # Tall data, m = 60 rows over r = 4 atoms: a block of 50 columns fills a
    # budget of 1,200 entries with one round's (columns, 2, r) arrays, and
    # each (m, columns) block of the data and range_split's residual of the
    # same shape keep to it together by reading the data 10 columns at a
    # time.
    rng = np.random.default_rng(5)
    A = rng.random((60, 4)) + 0.05
    B = np.clip(A @ rng.random((4, 50)) + 0.01 * rng.standard_normal((60, 50)), 0.0, None)
    whole = walk_all(A, B)
    widths = []
    range_split = homotopy.range_split

    def recording(Q, B):
        widths.append(B.shape[1])
        return range_split(Q, B)

    monkeypatch.setattr(homotopy, "range_split", recording)
    monkeypatch.setattr(homotopy, "BUDGET", 24 * 50)
    assert homotopy.block_width(4) == 50
    chunked = walk_all(A, B)
    assert widths == [10] * 5
    for got, want in zip(chunked, whole):
        assert_same_path(got, want)


@pytest.mark.parametrize("m, r, budget, widths", [
    (60, 4, 480, [4] * 5 + [4, 4, 2]),  # blocks of 20 columns, read 4 at a time
    (5, 8, 576, [12, 12, 6]),  # fewer rows than atoms: Z has m columns
])
def test_split_blocks_are_row_major(monkeypatch, m, r, budget, widths):
    # Every block _walk hands range_split is a C-order (m, columns) copy of
    # the scaled data, at most BUDGET // 2m columns wide and within one
    # walked block, and the blocks tile the data in column order.
    rng = np.random.default_rng(6)
    A = rng.random((m, r)) + 0.05
    B = rng.random((m, 30))
    blocks = []

    def recording(Q, B):
        blocks.append(B)
        Z, perp_sq = densela.range_split(Q, B)
        assert Z.shape == (B.shape[1], min(m, r)) == (B.shape[1], Q.shape[1])
        return Z, perp_sq

    monkeypatch.setattr(homotopy, "range_split", recording)
    monkeypatch.setattr(homotopy, "BUDGET", budget)
    walk = PathWalk(A, B)
    for j in range(B.shape[1]):
        walk.path(j)
    assert [x.shape[1] for x in blocks] == widths
    for x in blocks:
        assert x.flags.c_contiguous and x.shape[0] == m and x.shape[1] <= budget // (2 * m)
    assert np.hstack(blocks).tobytes() == np.ldexp(B, -walk.exponents[1]).tobytes()


def test_memory_layout_changes_no_result(monkeypatch):
    # A.T B rounds differently by layout, so the walk reads A and B in one
    # layout: the one-column call walks what a PathWalk over that column
    # does, and C-order and Fortran-order copies give the same bytes, both
    # in P, R and L, which the walk holds, and in each block's Z and perp_sq,
    # which _walk takes as it starts, and its zero entries' error_sq, which
    # residual_sq measures from them.
    W, b = dd.DEMO_W, dd.DEMO_M[:, 0]
    path, walked = regularization_path(W, b), PathWalk(W, b[:, None]).unscaled_path(0)
    assert path.entries.tobytes() == walked.entries.tobytes()
    assert (path.truncated, path.fallback) == (walked.truncated, walked.fallback)
    splits = []

    def recorded(Q, B):
        splits.append(densela.range_split(Q, B))
        return splits[-1]

    monkeypatch.setattr(homotopy, "range_split", recorded)
    for B in (dd.DEMO_M, b[:, None]):
        got = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            walk = PathWalk(order(W), order(B))
            splits.clear()
            zero = np.array([walk.path(j).entries["error_sq"][0] for j in range(B.shape[1])])
            (Z, perp_sq), = splits  # one block of columns, split once
            got.append({"P": walk.P, "R": walk.R, "L": walk.L, "Z": Z, "perp_sq": perp_sq,
                        "error_sq": zero})
        for name, c in got[0].items():
            assert c.tobytes() == got[1][name].tobytes(), name


def test_workload_shaped_dictionary():
    # m = 200 and r = 24 with atoms rand + 0.05, close to collinear, and 300
    # columns that each mix 2 to 6 atoms: long paths, crossing ratios whose
    # sums cancel, and refits that drop atoms, pooled across rounds.
    rng = np.random.default_rng(1)
    A = rng.random((200, 24)) + 0.05
    count = rng.integers(2, 7, 300)
    rank = np.argsort(np.argsort(rng.random((24, 300)), axis=0), axis=0)
    H = np.where(rank < count, rng.uniform(0.2, 1.0, (24, 300)), 0.0)
    B = np.clip(A @ H + 0.005 * rng.standard_normal((200, 300)), 0.0, None)
    entries = np.concatenate([p.entries for p in walk_all(A, B)])
    assert refit_entries(entries).sum() > 100
    assert_matches_reference(A, B)


def test_breakpoint_limit_keeps_pooled_refits():
    # Data uncorrelated with a 12-atom dictionary, capped at 6 breakpoints:
    # refits are still pooled when the rounds stop, for paths that finish
    # and for paths past the limit, and every path keeps its own, a capped
    # one up to its NNLS entry; walk.refits counts them all.
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.random((40, 12)))
    B = np.asfortranarray(rng.random((40, 100)))
    walk = PathWalk(A, B)
    walk.max_breakpoints = 6
    capped, free = [walk.unscaled_path(j) for j in range(100)], walk_all(A, B)
    for j, (got, want) in enumerate(zip(capped, free)):
        if got.fallback:
            assert not got.truncated and len(got.entries) == 8
            assert_ended_early(got, want, A, B[:, j])
        else:
            assert_same_path(got, want)
    dropped = [int(refit_entries(p.entries).sum()) for p in capped]
    assert walk.refits == sum(dropped)
    for fell in (True, False):
        assert sum(d for d, p in zip(dropped, capped) if p.fallback == fell) > 0


def test_carried_inverse_matches_fresh_solves(monkeypatch):
    # r = 24 and long paths with LEAVE steps: the walk that carries each
    # support's inverse across breakpoints against the reference walk,
    # which factors every support afresh, and against the walk that
    # inverts every support afresh each round.
    rng = np.random.default_rng(71)
    A = np.asfortranarray(rng.random((60, 24)) + 0.05)
    H = np.where(rng.random((24, 300)) < 0.25, rng.uniform(0.2, 1.0, (24, 300)), 0.0)
    B = np.asfortranarray(np.clip(A @ H + 0.005 * rng.standard_normal((60, 300)), 0.0, None))
    carried = walk_all(A, B)
    assert_matches_reference(A, B)
    carry_inverse = homotopy.carry_inverse

    def inverting(P, G, atoms, enter, index):
        """carry_inverse's slots, and P inverted afresh on each new support."""
        G, atoms, sound = carry_inverse(P, G, atoms, enter, index)
        for g, slots in zip(G, atoms):
            on = slots < P.shape[0] - 1
            g[...] = 0.0
            g[np.ix_(on, on)] = np.linalg.inv(P[np.ix_(slots[on], slots[on])])
        return G, atoms, sound

    monkeypatch.setattr(homotopy, "carry_inverse", inverting)
    fresh = walk_all(A, B)

    assert max(len(p.entries) for p in carried) > 24
    assert sum((np.diff(p.entries["support"].sum(axis=1)) < 0).any() for p in carried) > 100
    for got, want in zip(carried, fresh):
        assert supports(got) == supports(want)
        for field in ("solution", "lam", "error_sq"):
            w, g = want.entries[field], got.entries[field]
            np.testing.assert_allclose(g, w, rtol=0, atol=RTOL * np.abs(w).max())
    got = build_cost_tables(carried, 24, 300).cost
    want = build_cost_tables(fresh, 24, 300).cost
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_entering_pivot_decides_truncation_like_the_reference(unfactored):
    # Atom 4 is within 1e-9 of (W0 + W1)/2 and atom 5 duplicates atom 2:
    # the Schur pivot of atom 4 entering a support that holds 0 and 1, or
    # of atom 2 or 5 entering one that holds the other, falls below the
    # floor, and the path ends, with no factorization (unfactored), where
    # the reference walk's factorization check ends it.
    rng = np.random.default_rng(72)
    truncated = 0
    for _ in range(40):
        A = rng.random((8, 6))
        A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(8)
        A[:, 5] = A[:, 2]
        B = rng.random((8, 10))
        for j, got in enumerate(walk_all(A, B)):
            want = reference(A, B[:, j])
            assert got.truncated == want.truncated
            truncated += want.truncated
    assert truncated > 0


def test_pivot_floor_ends_paths_at_their_nnls_entry(monkeypatch):
    # 8 atoms in 10 rows, and data that mix all of them: the last atoms to
    # enter have Schur pivots near 1e-2 of the largest diagonal entry of P.
    # Under the floor of 1e-12 no path truncates; under one raised to 1e-2
    # in the walk's own updates a path truncates at each entering pivot
    # below it, and its NNLS entry, from nnls_gram under the real floor,
    # reaches the brute-force error.
    rng = np.random.default_rng(1)
    A = rng.random((10, 8)) + 0.05
    B = A @ rng.uniform(0.2, 1.0, (8, 40)) + 0.05 * rng.standard_normal((10, 40))
    unsound, floor = [], [densela.PIVOT_FLOOR]
    carry_inverse = homotopy.carry_inverse

    def spy(P, G, atoms, enter, index):
        real, densela.PIVOT_FLOOR = densela.PIVOT_FLOOR, floor[0]
        try:
            G, atoms, sound = carry_inverse(P, G, atoms, enter, index)
        finally:
            densela.PIVOT_FLOOR = real
        unsound.append(int((~sound).sum()))
        return G, atoms, sound

    monkeypatch.setattr(homotopy, "carry_inverse", spy)
    assert not any(p.truncated for p in walk_all(A, B)) and sum(unsound) == 0
    floor[0] = 1e-2
    paths = walk_all(A, B)
    truncated = [j for j, p in enumerate(paths) if p.truncated]
    assert len(truncated) > 10 and sum(unsound) == len(truncated)
    for j in truncated:
        best = nnls_bruteforce(A, B[:, j])[1]
        assert paths[j].entries[-1]["error_sq"] == pytest.approx(best, rel=1e-8, abs=0)


def test_unsound_pivot_at_the_cap_truncates():
    # Atom 4 is within 1e-9 of (W0 + W1)/2.  A path whose entering pivot
    # turns unsound by the round that reaches the cap ends truncated, as it
    # does uncapped, and one still live after that round falls back; the
    # reference walk, which stops at the cap before it factors the next
    # support, gives up on both.  Every path keeps the uncapped walk's
    # entries, bit for bit, up to its NNLS entry.  Under a cap of 3, nine of
    # the eleven columns that truncate uncapped do so, seven of them in the
    # cap round, and columns 3 and 25 fall back.
    rng = np.random.default_rng(5)
    A = rng.random((12, 5)) + 0.05
    B = rng.random((12, 40))
    A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(12)
    free = walk_all(A, B)
    cut = [j for j, p in enumerate(free) if p.truncated]
    assert cut == [3, 8, 16, 17, 20, 21, 22, 24, 25, 32, 36]
    for cap in (2, 3, 5, 6):
        capped = walk_all(A, B, cap)
        for j, (got, want) in enumerate(zip(capped, free)):
            assert got.truncated == (want.truncated and len(want.entries) <= cap + 2), (cap, j)
            ref = reference(A, B[:, j], max_breakpoints=cap)
            if isinstance(ref, IterationLimit):
                assert got.fallback != got.truncated and len(got.entries) == cap + 2
                assert_ended_early(got, want, A, B[:, j])
            else:
                assert not got.fallback and got.truncated == ref.truncated
                assert got.entries.tobytes() == want.entries.tobytes()
        if cap == 3:
            assert [(j, len(p.entries)) for j, p in enumerate(capped) if p.truncated] == [
                (8, 5), (16, 4), (17, 5), (20, 5), (21, 5), (22, 5), (24, 5), (32, 4), (36, 5)]
            assert capped[3].fallback and capped[25].fallback


def test_split_groups_keep_the_inverses_within_budget(monkeypatch):
    # r = 24 and 64 columns, one block under a budget of 64 x 144: three in
    # four columns mix all 24 atoms, the rest 16.  The live columns times
    # their slots squared pass the budget near the 13th atom, and the
    # whole block walks on: no path is truncated, and the block bounds the
    # carried stack at width x r^2 entries.  Under a cap of 22 breakpoints
    # some paths finish and the rest fall back.  Paths match the reference,
    # and the capped ones the uncapped walk's first entries, whose last
    # refits share a pool with other rows there.
    rng = np.random.default_rng(4)
    r, m, n = 24, 60, 64
    A = rng.random((m, r)) + 0.05
    count = np.where(np.arange(n) % 4 == 3, 16, 24)
    rank = np.argsort(np.argsort(rng.random((r, n)), axis=0), axis=0)
    H = np.where(rank < count, rng.uniform(0.2, 1.0, (r, n)), 0.0)
    B = np.clip(A @ H + 0.005 * rng.standard_normal((m, n)), 0.0, None)
    sizes = []
    carry_inverse = homotopy.carry_inverse

    def carrying(P, G, atoms, enter, index):
        sizes.append(G.size)
        out = carry_inverse(P, G, atoms, enter, index)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(homotopy, "carry_inverse", carrying)
    monkeypatch.setattr(homotopy, "BUDGET", n * 144)
    assert homotopy.block_width(r) == n
    for cap in (None, 22):
        sizes.clear()
        assert_matches_reference(A, B, cap, pooled_rtol=RTOL)
        assert homotopy.BUDGET < max(sizes) <= n * r**2
    paths = walk_all(A, B, cap=22)
    fell = np.array([p.fallback for p in paths])
    assert fell.any() and not fell.all()
    assert not any(p.truncated for p in paths + walk_all(A, B))


def test_record_invariants(monkeypatch):
    # Data uncorrelated with a 12-atom dictionary: many least-squares
    # solutions on a support go negative, and their refits drop atoms.
    blocks_of_width(monkeypatch, 12)
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.random((40, 12)))
    B = np.asfortranarray(rng.random((40, WIDTH + 40)))
    walk = PathWalk(A, B)
    paths = [walk.path(j) for j in range(B.shape[1])]
    assert walk.refits > 300
    for j, path in enumerate(paths):
        e = path.entries
        assert e.dtype == path_dtype(12) and not path.truncated
        zero = e[0]
        assert zero["lam"] == walk.L[:, j].max()
        assert zero["error_sq"] == pytest.approx(B[:, j] @ B[:, j], rel=1e-14)
        want = extended_residual_sq(A, B[:, [j] * len(e)], e["solution"])
        assert (np.abs(e["error_sq"] - want) <= 1e-12 * want).all(), j
        assert not zero["solution"].any() and not zero["support"].any()
        assert (np.diff(e["lam"]) <= 0.0).all() and e["lam"][-1] == 0.0
        assert not e["solution"][~e["support"]].any(), j
    # Refits with fewer nonzeros than their support, in both blocks.
    dropped = [int(refit_entries(p.entries).sum()) for p in paths]
    assert sum(dropped[:WIDTH]) > 0 and sum(dropped[WIDTH:]) > 0
