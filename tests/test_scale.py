"""Scale equivariance: rescaling W or M changes only units.

Power-of-two scales are exact in floating point, and the walk runs on W
and M divided by the powers of two that put their largest entries in
[0.5, 1) (PathWalk).  So under W -> 2^k W and M -> 2^j M every decision
repeats: the walk's exponents move by (k, j), its paths in its own units
are identical, and so are the selection cursors, the inexact columns
and rel_error, while H scales by exactly 2^(j-k), bit for bit, or raises
NonFiniteEntry where that passes the float range.  This holds far past
the range of the squares, to 2^+-1000.
"""

import numpy as np
import pytest

from shamans import SolveConfig, solve
from shamans.errors import NonFiniteEntry
from shamans.homotopy import PathWalk
from shamans.nnls import nnls_active_set
from shamans.selector import build_cost_tables, init_gain, select

import demo_data as dd
from oracles import nnls_bruteforce

SCALES = range(-1000, 1001, 64)  # squares of 2^+-1000 leave the float range
MODES = (SolveConfig(mode="unconstrained"), SolveConfig(mode="shamans", q=10),
         SolveConfig(mode="ksparse", k=2))


def _random_problem():
    rng = np.random.default_rng(0)
    return rng.random((20, 30)), rng.random((20, 5)) + 0.05


PROBLEMS = {"random": (_random_problem(), 60, 3), "demo": ((dd.DEMO_M, dd.DEMO_W), 18, 3)}


def outcome(M, W, q, k):
    """Everything the solve decides, in each mode, with its rel_error, and
    its walk's paths in the walk's units with the walk's exponents.  A mode
    whose H passes the float range holds the NonFiniteEntry it raised."""
    walk = PathWalk(W, M)
    paths = [walk.path(j) for j in range(M.shape[1])]
    tables = build_cost_tables(paths, W.shape[1], M.shape[1])
    out = {"cursors": select(init_gain(tables), tables, q),
           "support": np.concatenate([p.entries["support"] for p in paths]),
           "lam": np.concatenate([p.entries["lam"] for p in paths]),
           "exponents": np.array(walk.exponents)}
    for cfg in (SolveConfig(mode="shamans", q=q), SolveConfig(mode="ksparse", k=k),
                SolveConfig(mode="unconstrained")):
        try:
            H, report = solve(M, W, cfg)
        except NonFiniteEntry as exc:
            out[cfg.mode] = exc
        else:
            out[cfg.mode] = H
            out[cfg.mode + " inexact"] = report.inexact_columns
            out[cfg.mode + " rel_error"] = report.rel_error
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
            # lam in the data's units is lam 2^(a+b): it scales by 2^(sm+sw).
            assert np.array_equal(got["lam"], base["lam"]), where
            assert np.array_equal(got["exponents"], base["exponents"] + [sw, sm]), where
            for mode in ("shamans", "ksparse", "unconstrained"):
                top = np.frexp(base[mode].max())[1] + sm - sw  # H's exponent
                if top > 1024:
                    assert isinstance(got[mode], NonFiniteEntry), (mode, where)
                    continue
                assert np.array_equal(got[mode], np.ldexp(base[mode], sm - sw)), (mode, where)
                assert got[mode + " inexact"] == base[mode + " inexact"] == [], (mode, where)
                # The error is measured in the walk's units, so it repeats too.
                assert got[mode + " rel_error"] == base[mode + " rel_error"], (mode, where)


# The probes of scales that overflowed or underflowed a square: each is
# f 2^e with f in [0.5, 1), so its H is exactly that of the inputs scaled
# by f, times 2^(e_M - e_W), and within 1e-14 of the unit-scale H.
PROBES = [(1e-155, 1.0), (1e-160, 1.0), (1e-170, 1.0), (1e160, 1.0), (1.0, 1e-170),
          (1.0, 1e160), (1e-200, 1e-250), (1e140, 1e-140)]


@pytest.mark.parametrize("cfg", MODES, ids=lambda cfg: cfg.mode)
@pytest.mark.parametrize("scale_W, scale_M", PROBES)
def test_scales_past_the_squares_range(cfg, scale_W, scale_M):
    rng = np.random.default_rng(0)
    W, M = rng.random((10, 4)) + 0.05, rng.random((10, 7))
    (fw, ew), (fm, em) = np.frexp(scale_W), np.frexp(scale_M)
    unit, _ = solve(M, W, cfg)
    mantissas, _ = solve(fm * M, fw * W, cfg)
    H, report = solve(scale_M * M, scale_W * W, cfg)
    assert np.array_equal(H, np.ldexp(mantissas, int(em - ew)))
    want = scale_M / scale_W * unit
    np.testing.assert_allclose(H, want, rtol=0, atol=1e-14 * want.max())
    assert report.inexact_columns == []


# One column 1e165 or more times larger than the rest sets the walk's one
# exponent: every other column's squared errors underflow to 0 in the walk's
# units, so their costs tie at every level and the tables pick their zero
# entries.  The path modes list those columns; at 1e160 and below every
# column is measured and gets its 2 nonzeros.  The NNLS solve reads no error.
@pytest.mark.parametrize("scale, blind", [(1e150, []), (1e160, []), (1e165, list(range(6))),
                                          (1e170, list(range(6)))])
def test_columns_blinded_by_one_large_column_are_inexact(scale, blind):
    rng = np.random.default_rng(0)
    W, M = rng.random((10, 4)) + 0.05, rng.random((10, 7))
    M[:, -1] *= scale
    for cfg in (SolveConfig(mode="ksparse", k=2), SolveConfig(mode="shamans", q=14)):
        H, report = solve(M, W, cfg)
        assert report.inexact_columns == blind, cfg.mode
        counts = np.count_nonzero(H, axis=0)
        if blind:
            assert not counts[:6].any()
        else:
            assert counts.sum() == 14 and (cfg.mode == "shamans" or (counts == 2).all())
        assert report.stopped_short == (bool(blind) if cfg.mode == "shamans" else None)
    _, report = solve(M, W, SolveConfig(mode="unconstrained"))
    assert report.inexact_columns == []


def test_power_of_two_scales_repeat_nnls_active_set():
    # nnls_active_set solves on A and b scaled to unit size, so every
    # decision repeats and x and residual_sq scale exactly, or raise
    # NonFiniteEntry where that passes the float range.
    W, M = dd.DEMO_W, dd.DEMO_M
    base = [nnls_active_set(W, M[:, j]) for j in range(dd.DEMO_N)]
    for sw in SCALES:
        for sm in SCALES:
            for j, want in enumerate(base):
                top = max(np.frexp(want.x.max())[1] + sm - sw,
                          np.frexp(want.residual_sq)[1] + 2 * sm)
                if top > 1024:
                    with pytest.raises(NonFiniteEntry):
                        nnls_active_set(np.ldexp(W, sw), np.ldexp(M[:, j], sm))
                    continue
                got = nnls_active_set(np.ldexp(W, sw), np.ldexp(M[:, j], sm))
                assert np.array_equal(got.x, np.ldexp(want.x, sm - sw)), (sw, sm, j)
                assert np.array_equal(got.support, want.support), (sw, sm, j)
                assert got.residual_sq == np.ldexp(want.residual_sq, 2 * sm), (sw, sm, j)


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
