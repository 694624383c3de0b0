"""Scale equivariance: rescaling W or M changes only units.

Power-of-two scales are exact in floating point, and every solver
threshold is relative to a scale of the data in the units of what it
tests.  So under W -> 2^k W and M -> 2^j M every decision repeats: the
supports, the breakpoints (which scale by 2^(j+k)), the selection
cursors and the inexact columns are identical, and H scales by exactly
2^(j-k), bit for bit.
"""

import numpy as np
import pytest

from shamans import SolveConfig, solve
from shamans.homotopy import PathWalk
from shamans.nnls import nnls_active_set
from shamans.selector import build_cost_tables, init_gain, select

import demo_data as dd
from oracles import nnls_bruteforce

SCALES = range(-120, 121, 8)


def _random_problem():
    rng = np.random.default_rng(0)
    return rng.random((20, 30)), rng.random((20, 5)) + 0.05


PROBLEMS = {"random": (_random_problem(), 60, 3), "demo": ((dd.DEMO_M, dd.DEMO_W), 18, 3)}


def outcome(M, W, q, k):
    """Everything the solve decides, in each mode, and its walk's paths."""
    walk = PathWalk(W, M)
    paths = [walk.path(j) for j in range(M.shape[1])]
    tables = build_cost_tables(paths, W.shape[1], M.shape[1])
    out = {"cursors": select(init_gain(tables), tables, q),
           "support": np.concatenate([p.entries["support"] for p in paths]),
           "lam": np.concatenate([p.entries["lam"] for p in paths])}
    for cfg in (SolveConfig(mode="shamans", q=q), SolveConfig(mode="ksparse", k=k),
                SolveConfig(mode="unconstrained")):
        H, report = solve(M, W, cfg)
        out[cfg.mode] = H
        out[cfg.mode + " inexact"] = report.inexact_columns
    return out


@pytest.mark.parametrize("name", PROBLEMS)
def test_power_of_two_scales_repeat_every_decision(name):
    (M, W), q, k = PROBLEMS[name]
    base = outcome(M, W, q, k)
    for sw in SCALES:
        for sm in SCALES:
            got = outcome(np.ldexp(M, sm), np.ldexp(W, sw), q, k)
            where = f"W * 2^{sw}, M * 2^{sm}"
            for key in ("cursors", "support"):
                assert np.array_equal(got[key], base[key]), (key, where)
            assert np.array_equal(got["lam"], np.ldexp(base["lam"], sm + sw)), where
            for mode in ("shamans", "ksparse", "unconstrained"):
                assert np.array_equal(got[mode], np.ldexp(base[mode], sm - sw)), (mode, where)
                assert got[mode + " inexact"] == base[mode + " inexact"] == [], (mode, where)


def test_power_of_two_scales_repeat_nnls_active_set():
    W, M = dd.DEMO_W, dd.DEMO_M
    base = [nnls_active_set(W, M[:, j]) for j in range(dd.DEMO_N)]
    for sw in SCALES:
        for sm in SCALES:
            for j, want in enumerate(base):
                got = nnls_active_set(np.ldexp(W, sw), np.ldexp(M[:, j], sm))
                assert np.array_equal(got.x, np.ldexp(want.x, sm - sw)), (sw, sm, j)
                assert np.array_equal(got.support, want.support), (sw, sm, j)


@pytest.mark.parametrize("cfg", [SolveConfig(mode="unconstrained"),
                                 SolveConfig(mode="ksparse", k=4)])
def test_dictionary_scaled_up_keeps_its_paths(cfg):
    # W scaled by 1e5 (not a power of two) used to stop every path after its
    # first atom (7 breakpoints, rel_error 0.533) and to snap every NNLS
    # coefficient to 0 (rel_error 1.0): both units-bound thresholds.
    rng = np.random.default_rng(0)
    W = rng.random((10, 4)) + 0.05
    M = rng.random((10, 7))
    for scale in (1.0, 1e5):
        H, report = solve(M, scale * W, cfg)
        assert report.rel_error == pytest.approx(0.4597, abs=1e-4)
        assert report.inexact_columns == []
        if cfg.mode == "ksparse":
            assert report.breakpoints == 22
        best = np.column_stack([nnls_bruteforce(scale * W, M[:, j])[0] for j in range(7)])
        np.testing.assert_allclose(scale * H, scale * best, rtol=0, atol=1e-12)
