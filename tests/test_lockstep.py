"""The lockstep path engine against the one-column reference walk.

Columns of one dictionary are walked together through a PathWalk and
read back with regularization_path; each must match reference_path on
its own: identical support sequences and ``truncated`` flags, and lam,
error and solution within 1e-12 relative to their largest value along
the reference path.  The walk that carries each support's inverse across
breakpoints is also checked against one that solves every support afresh.
"""

import numpy as np
import pytest

from shamans import homotopy
from shamans.errors import IterationLimit
from shamans.homotopy import BLOCK, PathWalk, path_dtype, regularization_path
from shamans.selector import build_cost_tables

from oracles import reference_path

RTOL = 1e-12


def walk_all(A, B, **kwargs):
    """Every column's path from one lockstep walk (IterationLimit kept)."""
    walk = PathWalk(np.asfortranarray(A), np.asfortranarray(B), **kwargs)
    out = []
    for j in range(B.shape[1]):
        try:
            out.append(regularization_path(A, B[:, j], walk=walk, column=j))
        except IterationLimit as exc:
            out.append(exc)
    return out


def reference(A, b, **kwargs):
    try:
        return reference_path(A, b, **kwargs)
    except IterationLimit as exc:
        return exc


def supports(path):
    """The path's supports as index tuples, in path order."""
    return [tuple(np.flatnonzero(mask).tolist()) for mask in path.entries["support"]]


def assert_same_path(got, want):
    if isinstance(want, IterationLimit):
        assert isinstance(got, IterationLimit)
        return
    assert supports(got) == supports(want)
    assert got.truncated == want.truncated
    for field in ("lam", "error_sq", "solution"):
        w, g = want.entries[field], got.entries[field]
        np.testing.assert_allclose(g, w, rtol=0, atol=RTOL * max(np.abs(w).max(), 1e-300))
    assert np.array_equal(got.entries["cardinality"], want.entries["cardinality"])


def assert_matches_reference(A, B, **kwargs):
    for j, got in enumerate(walk_all(A, B, **kwargs)):
        assert_same_path(got, reference(A, B[:, j], **kwargs))


def test_random_instances():
    # 100 dictionaries x 12 right-hand sides = 1200 instances.
    rng = np.random.default_rng(61)
    for _ in range(100):
        m, r = int(rng.integers(3, 13)), int(rng.integers(1, 8))
        A = np.abs(rng.standard_normal((m, r)))
        B = np.abs(rng.standard_normal((m, 12)))
        assert_matches_reference(A, B)


def test_columns_across_block_boundaries():
    rng = np.random.default_rng(62)
    A = rng.random((20, 6)) + 0.05
    H = np.where(rng.random((6, BLOCK + 44)) < 0.4, rng.random((6, BLOCK + 44)), 0.0)
    B = np.clip(A @ H + 0.01 * rng.standard_normal((20, BLOCK + 44)), 0.0, None)
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


def test_near_dependent_dictionaries():
    # Atom 4 is within 1e-9 of (W0 + W1)/2, so the support that completes
    # {0, 1, 4} is singular and ends the path.  The breakpoint where that
    # last atom would enter is a ratio of two quantities near zero, which
    # roundoff moves by up to about 1e-5; it is compared at 1e-4.
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
    results = walk_all(A, B, max_breakpoints=1)
    assert_matches_reference(A, B, max_breakpoints=1)
    assert any(isinstance(p, IterationLimit) for p in results)
    assert not any(isinstance(p, IterationLimit) for p in results[:6])


def counted_fresh_solves(monkeypatch):
    """Count the rows whose carried inverse the walk re-seeds from a fresh
    factorization and inverse."""
    rows = []
    support_inverse = homotopy._support_inverse

    def counting(P, K):
        rows.append(K.shape[0])
        return support_inverse(P, K)

    monkeypatch.setattr(homotopy, "_support_inverse", counting)
    return rows


def test_carried_inverse_matches_fresh_solves(monkeypatch):
    # r = 24 and long paths with LEAVE steps: the walk that carries each
    # support's inverse across breakpoints against the one that solves
    # every support afresh each round (a guard no pivot passes).
    rng = np.random.default_rng(71)
    A = np.asfortranarray(rng.random((60, 24)) + 0.05)
    H = np.where(rng.random((24, 300)) < 0.25, rng.uniform(0.2, 1.0, (24, 300)), 0.0)
    B = np.asfortranarray(np.clip(A @ H + 0.005 * rng.standard_normal((60, 300)), 0.0, None))
    fresh_rows = counted_fresh_solves(monkeypatch)
    carried = walk_all(A, B)
    assert fresh_rows == []
    monkeypatch.setattr(homotopy, "SCHUR_GUARD", np.inf)
    fresh = walk_all(A, B)
    assert sum(fresh_rows) == sum(len(p.entries) - 1 for p in fresh)

    assert max(len(p.entries) for p in carried) > 24
    assert sum((np.diff(p.entries["support"].sum(axis=1)) < 0).any() for p in carried) > 100
    for got, want in zip(carried, fresh):
        assert supports(got) == supports(want)
        for field in ("coeff_a", "coeff_b", "lam", "error_sq"):
            w, g = want.entries[field], got.entries[field]
            np.testing.assert_allclose(g, w, rtol=0, atol=RTOL * np.abs(w).max())
    got = build_cost_tables(carried, 24, 300).cost
    want = build_cost_tables(fresh, 24, 300).cost
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_schur_guard_decides_truncation_like_the_reference(monkeypatch):
    # Atom 4 is within 1e-9 of (W0 + W1)/2 and atom 5 duplicates atom 2:
    # the Schur pivot of a support holding 0, 1 and 4 falls below the
    # guard, and the fresh solve's factorization check ends those paths.
    rng = np.random.default_rng(72)
    fresh_rows = counted_fresh_solves(monkeypatch)
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
    assert sum(fresh_rows) >= truncated


def test_record_invariants():
    # Data uncorrelated with a 12-atom dictionary: many least-squares
    # solutions on a support go negative, and their refits drop atoms.
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.random((40, 12)))
    B = np.asfortranarray(rng.random((40, BLOCK + 40)))
    walk = PathWalk(A, B)
    paths = [walk.path(j) for j in range(B.shape[1])]
    assert walk.refits > 300
    for j, path in enumerate(paths):
        e = path.entries
        assert e.dtype == path_dtype(12) and not path.truncated
        zero = e[0]
        assert zero["lam"] == walk.L[:, j].max()
        assert zero["error_sq"] == B[:, j] @ B[:, j]
        assert zero["cardinality"] == 0 and not zero["support"].any()
        assert (np.diff(e["lam"]) <= 0.0).all() and e["lam"][-1] == 0.0
        for field in ("solution", "coeff_a", "coeff_b"):
            assert not e[field][~e["support"]].any(), (j, field)
        assert np.array_equal(e["cardinality"], np.count_nonzero(e["solution"], axis=1))
    # Refits with fewer nonzeros than their support, in both blocks.
    dropped = [int((p.entries["cardinality"] < p.entries["support"].sum(axis=1)).sum())
               for p in paths]
    assert sum(dropped[:BLOCK]) > 0 and sum(dropped[BLOCK:]) > 0
