import numpy as np
import pytest

from shamans.densela import gram, range_split, residual_sq
from shamans.errors import IterationLimit
from shamans.homotopy import (ENTER, LEAVE, TERMINATE, PathWalk, RegularizationPath,
                              next_breakpoint, regularization_path)
from shamans.nnls import nnls_active_set, nnls_gram

import demo_data as dd
from oracles import (kkt_midpoint_violation, nnls_bruteforce, random_nonneg_instance,
                     reference_nnls_gram, reference_path, refit_entries, warm_start)

DEMO_P = gram(dd.DEMO_W)
DEMO_ELL0 = dd.DEMO_W.T @ dd.DEMO_M[:, 0]


def support_mask(r, K):
    """(1, r) support mask of the index set K."""
    mask = np.zeros((1, r), dtype=bool)
    mask[0, K] = True
    return mask


def full_slots(mask):
    """carry_inverse's slot index of a (B, r) support mask in full space:
    atom j in slot j, r in the slots off the mask."""
    r = mask.shape[1]
    return np.where(mask, np.arange(r), r)


def slot_inverse(P, atoms):
    """P(K_i, K_i)^-1 for every row of carry_inverse's (B, k) slot index
    ``atoms`` (P.shape[0] in an empty slot), a (B, k, k) stack in the rows'
    slot order, zero in the rows and columns of empty slots."""
    G = np.zeros(atoms.shape + atoms.shape[1:])
    for g, slots in zip(G, atoms):
        on = slots < P.shape[0]
        g[np.ix_(on, on)] = np.linalg.inv(P[np.ix_(slots[on], slots[on])])
    return G


def coefficients(P, ell, K):
    """Full-space one-row (a, b, c, d) of the support K (an index set),
    from a direct solve on P(K, K)."""
    r = ell.size
    a, b = np.zeros((1, r)), np.zeros((1, r))
    ab = np.linalg.solve(P[np.ix_(K, K)], np.column_stack([ell[K], np.ones(len(K))]))
    a[0, K], b[0, K] = ab[:, 0], ab[:, 1]
    off = ~support_mask(r, K)
    return a, b, np.where(off, a @ P - ell, 0.0), np.where(off, b @ P - 1.0, 0.0)


def block(a_K, b_K, c_K, d_K):
    """Full-space one-row arguments of next_breakpoint from support and
    complement coefficients, the support taking the first indices."""
    k, r = len(a_K), len(a_K) + len(c_K)
    a, b, c, d = (np.zeros((1, r)) for _ in range(4))
    a[0, :k], b[0, :k], c[0, k:], d[0, k:] = a_K, b_K, c_K, d_K
    return a, b, c, d, support_mask(r, np.arange(k))


class TestPathCoefficients:
    """The walk's path entries against closed forms solved from their supports."""

    def test_full_support_has_empty_complement(self):
        last = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0]).entries[-1]
        assert last["support"].all()
        np.testing.assert_allclose(last["solution"], np.linalg.solve(DEMO_P, DEMO_ELL0),
                                   atol=1e-10)

    def test_singleton_closed_form(self):
        # On the support {j}, a = ell_j / P_jj and b = 1 / P_jj; the interval
        # ends where the first complement gradient c - lambda d reaches zero.
        rng = np.random.default_rng(21)
        A = np.abs(rng.standard_normal((6, 3)))
        b = np.abs(rng.standard_normal(6))
        P = gram(A)
        ell = A.T @ b
        first = regularization_path(A, b).entries[1]
        j = int(np.argmax(ell))
        assert np.flatnonzero(first["support"]).tolist() == [j]
        assert first["solution"][j] == pytest.approx(ell[j] / P[j, j], rel=1e-12)
        assert not first["solution"][~first["support"]].any()
        c, d = P[j] * ell[j] / P[j, j] - ell, P[j] / P[j, j] - 1.0
        enter = (np.arange(3) != j) & (d < 0.0)
        want = max((c[enter] / d[enter]).max(initial=0.0), 0.0)
        assert want > 0.0 and first["lam"] == pytest.approx(want, rel=1e-12)

    def test_demo_first_support_boundary(self):
        # On [2.7502, 3.16) the support is {1}; the biased solution stays
        # nonnegative at the lower breakpoint and the entering component's
        # complement condition is tight there.
        entry = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0]).entries[1]
        K = entry["support"]
        assert np.flatnonzero(K).tolist() == [1]
        a, b, c, d = (v[0] for v in coefficients(DEMO_P, DEMO_ELL0, [1]))
        lam = entry["lam"]
        assert lam == pytest.approx(dd.COL0_LAMBDAS[1], abs=1e-9)
        assert np.all((a - lam * b)[K] >= -1e-12)
        slack = (c - lam * d)[~K]
        assert slack.min() == pytest.approx(0.0, abs=1e-10)


def on_empty_support(ell, at_r=0.0):
    """next_breakpoint on the empty supports of the rows of ``ell``, as the
    walk calls it: (r + 1)-wide a = b = 0, c = -ell and d = -1, with -0 in
    d's index r, where an empty slot reads, and ``at_r`` in c's."""
    ell = np.asarray(ell, dtype=np.float64)
    empty = np.zeros((ell.shape[0], ell.shape[1] + 1))
    c, d = -np.pad(ell, ((0, 0), (0, 1))), -np.pad(np.ones_like(ell), ((0, 0), (0, 1)))
    c[:, -1] = at_r
    return next_breakpoint(empty, empty, c, d, empty.astype(bool), np.inf, 1e-12, 1e-12)


class TestNextBreakpoint:
    # On the empty support the first breakpoint is each row's largest
    # correlation, and the atom that enters there is the row's first maximum.

    def test_empty_support_demo_column(self):
        lam, kind, idx = on_empty_support(DEMO_ELL0[None])
        assert lam[0] == pytest.approx(3.16, abs=1e-12)
        assert kind.tolist() == [ENTER] and idx.tolist() == [1]

    def test_empty_support_all_nonpositive(self):
        lam, kind, idx = on_empty_support([[-1.0, -2.0]])
        assert lam.tolist() == [0.0] and kind.tolist() == [TERMINATE] and idx.tolist() == [-1]

    def test_empty_support_tie_takes_smallest_index(self):
        lam, _, idx = on_empty_support([[5.0, 5.0, 1.0]])
        assert lam.tolist() == [5.0] and idx.tolist() == [0]

    def test_empty_support_mixed_block(self):
        ell = np.array([[1.0, 3.0, 2.0],
                        [-1.0, -2.0, 0.0],
                        [5.0, 5.0, 1.0],
                        [0.0, 0.0, 0.0],
                        [-4.0, 0.5, 0.5]])
        lam, _, idx = on_empty_support(ell)
        assert lam.tolist() == [3.0, 0.0, 5.0, 0.0, 0.5]
        assert idx.tolist() == [1, -1, 0, -1, 1]

    def test_empty_support_never_enters_index_r(self):
        # d is 0 at index r, so that cell is no candidate, whatever c holds
        # there: the (r + 1)-wide call gives the r-wide call's bytes, and with
        # r = 0 every row terminates.
        rng = np.random.default_rng(3)
        ell = rng.standard_normal((200, 5))
        ell[:20] = -np.abs(ell[:20])
        zeros = np.zeros_like(ell)
        want = next_breakpoint(zeros, zeros, -ell, -np.ones_like(ell), zeros.astype(bool),
                               np.inf, 1e-12, 1e-12)
        assert set(want[1].tolist()) == {ENTER, TERMINATE}
        for at_r in (0.0, 1e300, -1e300, np.inf, -np.inf, np.nan):
            got = on_empty_support(ell, at_r)
            assert (got[2] < 5).all()
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        lam, kind, idx = on_empty_support(np.zeros((3, 0)), np.inf)
        assert lam.tolist() == [0.0] * 3 and kind.tolist() == [TERMINATE] * 3
        assert idx.tolist() == [-1] * 3

    def test_all_positive_coefficients_terminate(self):
        a, b, c, d, K = block([1.0], [2.0], [0.5], [0.3])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, 1.0, 1e-12, 1e-12)
        assert lam[0] == 0.0 and kind[0] == TERMINATE and pos[0] == -1

    def test_demo_two_element_support(self):
        a, b, c, d = coefficients(DEMO_P, DEMO_ELL0, [1, 3])
        K = support_mask(4, [1, 3])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, dd.COL0_LAMBDAS[1], 1e-12, 1e-12)
        assert lam[0] == pytest.approx(dd.COL0_LAMBDAS[2], abs=1e-9)
        assert kind[0] == ENTER
        assert pos[0] == 2  # complement of {1,3} is (0, 2); index 2 enters

    def test_tie_prefers_leave(self):
        a, b, c, d, K = block([-2.0], [-1.0], [-4.0], [-2.0])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, 10.0, 1e-12, 1e-12)
        assert lam[0] == 2.0 and kind[0] == LEAVE and pos[0] == 0

    def test_clamped_to_current(self):
        a, b, c, d, K = block([-10.0], [-1.0], [], [])
        lam, kind, _ = next_breakpoint(a, b, c, d, K, 5.0, 1e-12, 1e-12)
        assert lam[0] == 5.0 and kind[0] == LEAVE

    def test_ignored_cells_are_not_read(self):
        # Only a and b on the support and c and d off it are read.  The
        # other cells hold zeros, then arbitrary values, NaN and infinities
        # among them, and (lam, kind, index) stay identical; under the
        # suite's error::RuntimeWarning filter an unguarded divide by those
        # cells fails the test.
        rng = np.random.default_rng(5)
        n, r = 300, 12
        K = rng.random((n, r)) < 0.4
        a, b, c, d = (rng.standard_normal((n, r)) for _ in range(4))
        current = rng.uniform(0.5, 4.0, n)

        def filled(fill):
            return (np.where(K, a, fill), np.where(K, b, fill), np.where(K, fill, c),
                    np.where(K, fill, d), K, current, 1e-12, 1e-12)

        want = next_breakpoint(*filled(0.0))
        assert set(want[1].tolist()) == {LEAVE, ENTER, TERMINATE}
        assert (want[0] == current).any()  # some rows clamped to the current lambda
        for fill in (np.nan, np.inf, -np.inf, 1e300, -1e-300, rng.standard_normal((n, r)),
                     rng.standard_normal((n, r)) * 1e3):
            got = next_breakpoint(*filled(fill))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_negative_maxima_terminate(self):
        # crossing at lambda = -3, not reachable
        a, b, c, d, K = block([3.0], [-1.0], [], [])
        lam, kind, _ = next_breakpoint(a, b, c, d, K, 1.0, 1e-12, 1e-12)
        assert lam[0] == 0.0 and kind[0] == TERMINATE

    def test_each_threshold_gates_its_own_side(self):
        # b and d both at -2e-12: the leave threshold gates b alone, the
        # enter threshold d alone.
        a, b, c, d, K = block([-4e-12], [-2e-12], [-2e-12], [-2e-12])
        for leave_tol, enter_tol, want in ((1e-12, 1e-12, (2.0, LEAVE, 0)),
                                           (1e-11, 1e-12, (1.0, ENTER, 1)),
                                           (1e-12, 1e-11, (2.0, LEAVE, 0)),
                                           (1e-11, 1e-11, (0.0, TERMINATE, -1))):
            got = next_breakpoint(a, b, c, d, K, 5.0, leave_tol, enter_tol)
            assert tuple(x[0] for x in got) == want


def kernel_errors(A, B, X):
    """The walk's errors ||A x - b||^2 of the rows of X against the columns of B."""
    Q, R = np.linalg.qr(A)
    return residual_sq(R, *range_split(Q, B), X)


class TestUnbias:
    """The walk's unbiased refit: nnls_gram confined to a support and
    started from the inverse of P on it."""

    def test_empty_support(self):
        b = dd.DEMO_M[:, 0]
        K = support_mask(4, [])
        empty = np.zeros((1, 0, 0)), np.zeros((1, 0))  # no slots
        x = nnls_gram(DEMO_P, DEMO_ELL0[None], K, start=warm_start(*empty, DEMO_ELL0))
        err = kernel_errors(dd.DEMO_W, b[:, None], x)
        np.testing.assert_array_equal(x[0], np.zeros(4))
        assert err[0] == pytest.approx(float(b @ b), rel=1e-12)
        assert err[0] == pytest.approx(4.3187, abs=1e-12)

    def test_demo_three_element_support(self):
        b = dd.DEMO_M[:, 0]
        K = np.array([1, 2, 3])
        mask = support_mask(4, K)
        atoms = K[None].copy()  # carry_inverse's layout, one slot per atom
        G = slot_inverse(DEMO_P, atoms)
        x = nnls_gram(DEMO_P, DEMO_ELL0[None], mask, start=warm_start(G, atoms, DEMO_ELL0))
        err = kernel_errors(dd.DEMO_W, b[:, None], x)
        x, err = x[0], err[0]
        ls, *_ = np.linalg.lstsq(dd.DEMO_W[:, K], b, rcond=None)
        np.testing.assert_allclose(x[K], ls, atol=1e-10)
        np.testing.assert_allclose(x, dd.COL0_SOLUTIONS[3], atol=1e-9)
        assert err == pytest.approx(dd.COL0_ERRORS[3], abs=1e-9)

    def test_negative_refit_falls_back_to_nnls(self):
        # Least squares on {0, 1} goes negative; the unbiased solution must
        # match the sign-constrained enumeration oracle on those columns.
        A = np.array([[1.0, 0.9, 0.0],
                      [0.0, 0.4, 1.0],
                      [0.2, 0.3, 0.5],
                      [0.1, 0.2, 0.3]])
        b = A[:, 0] - 0.4 * A[:, 1] + 0.05
        P = gram(A)
        ell = A.T @ b
        K = np.array([0, 1])
        ls, *_ = np.linalg.lstsq(A[:, K], b, rcond=None)
        assert ls.min() < 0  # the construction really exercises the branch
        mask = support_mask(3, K)
        atoms = K[None].copy()
        x = nnls_gram(P, ell[None], mask, start=warm_start(slot_inverse(P, atoms), atoms, ell))
        err = kernel_errors(A, b[:, None], x)
        x, err = x[0], err[0]
        x_star, err_star = nnls_bruteforce(A[:, K], b)
        np.testing.assert_allclose(x[K], x_star, atol=1e-8)
        assert err == pytest.approx(err_star, abs=1e-10)
        assert np.all(x >= 0)

    def test_workload_scale_block(self):
        # Supports of the walk over a 24-atom dictionary whose least-squares
        # solution goes negative in several entries at once, so the refit's
        # warm start drops two or more indices in one round.  Every row must
        # match the per-column solver on its support.
        rng = np.random.default_rng(29)
        A = np.asfortranarray(rng.random((200, 24)) + 0.05)
        H = np.where(rng.random((24, 200)) < 0.2, rng.uniform(0.2, 1.0, (24, 200)), 0.0)
        B = np.clip(A @ H + 0.005 * rng.standard_normal((200, 200)), 0.0, None)
        P, L = gram(A), A.T @ B
        walk = PathWalk(A, B)
        entries, columns = [], []
        for j in range(B.shape[1]):
            e = walk.unscaled_path(j).entries
            keep = refit_entries(e)
            entries.append(e[keep])
            columns += [j] * int(keep.sum())
        e = np.concatenate(entries)
        K = e["support"]
        a = np.concatenate([coefficients(P, L[:, j], np.flatnonzero(k))[0]
                            for j, k in zip(columns, K)])
        assert ((a < 0.0).sum(axis=1) >= 2).sum() > 10
        slots = full_slots(K)
        x = nnls_gram(P, L.T[columns], K,
                       start=warm_start(slot_inverse(P, slots), slots, L.T[columns]))
        err = kernel_errors(A, B[:, columns], x)
        np.testing.assert_allclose(x, e["solution"], rtol=0, atol=1e-12)
        for i, j in enumerate(columns):
            k = np.flatnonzero(K[i])
            want = reference_nnls_gram(P[np.ix_(k, k)], L[k, j])
            scale = 1.0 + np.abs(L[k, j]).max()
            np.testing.assert_allclose(x[i, k], want, rtol=0, atol=1e-12 * scale)
            resid = A @ x[i] - B[:, j]
            assert err[i] == pytest.approx(float(resid @ resid), rel=1e-12)


class TestRegularizationPath:
    def test_zero_rhs(self):
        path = regularization_path(dd.DEMO_W, np.zeros(5))
        assert len(path.entries) == 1
        e = path.entries[0]
        assert e["lam"] == 0.0 and not e["solution"].any() and e["error_sq"] == 0.0

    def test_empty_dictionary(self):
        path = regularization_path(np.zeros((5, 0)), np.ones(5))
        assert len(path.entries) == 1 and path.entries[0]["error_sq"] == 5.0

    def test_demo_column0(self):
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0])
        assert np.count_nonzero(path.entries["solution"], axis=1).tolist() == \
            dd.COL0_CARDINALITIES
        np.testing.assert_allclose(path.entries["lam"], dd.COL0_LAMBDAS, atol=1e-9)
        np.testing.assert_allclose(path.entries["error_sq"], dd.COL0_ERRORS, atol=1e-9)
        np.testing.assert_allclose(path.entries["solution"], dd.COL0_SOLUTIONS, atol=1e-9)

    def test_demo_column5(self):
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 5])
        assert np.count_nonzero(path.entries["solution"], axis=1).tolist() == \
            dd.COL5_CARDINALITIES
        np.testing.assert_allclose(path.entries["lam"], dd.COL5_LAMBDAS, atol=1e-9)
        np.testing.assert_allclose(path.entries["error_sq"], dd.COL5_ERRORS, atol=1e-9)
        np.testing.assert_allclose(path.entries["solution"], dd.COL5_SOLUTIONS, atol=1e-9)

    def test_first_entry_is_zero_solution(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            A, b = random_nonneg_instance(rng, 7, 4)
            path = regularization_path(A, b)
            e = path.entries[0]
            assert not e["solution"].any()
            assert e["error_sq"] == pytest.approx(float(b @ b), rel=1e-12)
            assert e["lam"] == pytest.approx(max(float((A.T @ b).max()), 0.0))

    def test_supports_change_one_index_at_a_time(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            A, b = random_nonneg_instance(rng, 10, 5)
            path = regularization_path(A, b)
            S = path.entries["support"]
            assert (np.count_nonzero(S[1:] != S[:-1], axis=1) == 1).all()

    def test_lambda_nonincreasing(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            A, b = random_nonneg_instance(rng, 10, 5)
            path = regularization_path(A, b)
            lams = path.entries["lam"].tolist()
            assert all(x >= y for x, y in zip(lams, lams[1:]))
            assert lams[-1] == 0.0

    def test_terminal_matches_active_set(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            A, b = random_nonneg_instance(rng, 10, 5)
            path = regularization_path(A, b)
            sol = nnls_active_set(A, b)
            np.testing.assert_allclose(path.entries["solution"][-1], sol.x,
                                       atol=1e-8)

    def test_kkt_certificate_midpoints(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            A, b = random_nonneg_instance(rng, 10, 5)
            P = gram(A)
            path = regularization_path(A, b)
            assert kkt_midpoint_violation(P, A.T @ b, path) <= 1e-8

    def test_enter_dominates_leave_soft(self):
        # Soft expectation: support growth far outnumbers shrinkage and
        # paths stay short.  Logged, not failed, when violated.
        rng = np.random.default_rng(27)
        enters = leaves = 0
        long_paths = 0
        for _ in range(300):
            A, b = random_nonneg_instance(rng, 10, 5)
            path = regularization_path(A, b)
            if len(path.entries) > 4 * 5:
                long_paths += 1
            steps = np.diff(path.entries["support"].sum(axis=1))
            enters += int((steps > 0).sum())
            leaves += int((steps <= 0).sum())
        print(f"\npath steps: {enters} enters, {leaves} leaves, "
              f"{long_paths} paths longer than 4r")
        if leaves * 10 > enters or long_paths:
            print("FLAG: leave-heavy or unusually long paths observed")

    def test_breakpoint_limit_falls_back(self):
        # The one-column reference walk gives up at the limit; the path
        # keeps its walked entries, the zero entry and one breakpoint, the
        # uncapped walk's, and ends at the NNLS solution.  The walk reads
        # its cap when it walks the block, so it is set before the first
        # path is read.
        W, b = dd.DEMO_W, dd.DEMO_M[:, 0]
        with pytest.raises(IterationLimit):
            reference_path(W, b, max_breakpoints=1)
        walk = PathWalk(W, b[:, None])
        walk.max_breakpoints = 1
        path = walk.unscaled_path(0)
        assert path.fallback and not path.truncated and len(path.entries) == 3
        walked, last = path.entries[:2], path.entries[2]
        assert walked.tobytes() == PathWalk(W, b[:, None]).unscaled_path(0).entries[:2].tobytes()
        want = reference_path(W, b).entries[:2]
        for field in want.dtype.names:
            np.testing.assert_allclose(np.asarray(walked[field], float),
                                       np.asarray(want[field], float), rtol=1e-12, atol=0)
        sol = nnls_active_set(W, b)
        assert last["lam"] == 0.0 and np.count_nonzero(last["solution"]) == sol.support.size
        assert np.array_equal(np.flatnonzero(last["support"]), sol.support)
        np.testing.assert_allclose(last["solution"], sol.x, rtol=0, atol=1e-12)
        assert last["error_sq"] == pytest.approx(sol.residual_sq, rel=1e-12)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_tol_rejected(self, tol):
        # No tolerance is taken, good or bad: every threshold is relative
        # to the data's scale.
        with pytest.raises(TypeError, match="tol"):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0], tol=tol)
        with pytest.raises(TypeError, match="tol"):
            PathWalk(dd.DEMO_W, dd.DEMO_M, tol=tol)

    def test_zero_dictionary_keeps_only_the_zero_entry(self):
        # max|P| = 0: nothing correlates, and the leave threshold TOL / max|P|
        # is never used.
        b = dd.DEMO_M[:, 0]
        path = regularization_path(np.zeros((5, 3)), b)
        assert len(path.entries) == 1 and path.entries["lam"][0] == 0.0
        assert path.entries["error_sq"][0] == pytest.approx(b @ b, rel=1e-15)

    def test_row_count_mismatch_rejected(self):
        # PathWalk names both row counts, where numpy's matmul named neither.
        with pytest.raises(ValueError, match="the dictionary has 5 rows but the data has 4"):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:4, 0])
        with pytest.raises(ValueError, match="the dictionary has 5 rows but the data has 6"):
            PathWalk(dd.DEMO_W, np.ones((6, 3)))

    def test_breakpoint_cap_is_fifty_r(self):
        # The cap guards against cycling; no argument sets it.
        assert PathWalk(dd.DEMO_W, dd.DEMO_M).max_breakpoints == 50 * dd.DEMO_R
        with pytest.raises(TypeError):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0], max_breakpoints=1)
        with pytest.raises(TypeError):
            PathWalk(dd.DEMO_W, dd.DEMO_M, max_breakpoints=1)

    @pytest.mark.parametrize("column", [5, -1])
    def test_column_out_of_range(self, column):
        # A column outside 0..n-1 is refused before any block is walked, and
        # the walk reads its columns afterwards as a fresh one does.
        M = np.asfortranarray(dd.DEMO_M[:, :5])
        walk, fresh = PathWalk(dd.DEMO_W, M), PathWalk(dd.DEMO_W, M)
        with pytest.raises(IndexError, match=f"column {column} is out of range .* 5 columns"):
            regularization_path(dd.DEMO_W, M[:, 0], walk=walk, column=column)
        for j in range(5):
            got = regularization_path(dd.DEMO_W, M[:, j], walk=walk, column=j)
            assert got.entries.tobytes() == fresh.path(j).entries.tobytes()
        assert walk.refits == fresh.refits

    def test_biased_coefficients_reconstruct_interval(self):
        # Inside each interval a direct penalized solve on the entry's
        # support is nonnegative.
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0])
        for above, entry in zip(path.entries, path.entries[1:]):
            lam = 0.5 * (above["lam"] + entry["lam"])
            K = np.flatnonzero(entry["support"])
            direct = np.linalg.solve(DEMO_P[np.ix_(K, K)], DEMO_ELL0[K] - lam)
            assert np.all(direct >= -1e-10)

    def test_kkt_certificate_flags_corrupted_paths(self):
        # The certificate solves each interval's solution from its support,
        # so a wrong support or a moved breakpoint shows in it.
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0])
        assert kkt_midpoint_violation(DEMO_P, DEMO_ELL0, path) <= 1e-8
        flipped = RegularizationPath(path.entries.copy())
        flipped.entries["support"][2, 0] ^= True
        assert kkt_midpoint_violation(DEMO_P, DEMO_ELL0, flipped) > 1e-8
        for factor in (0.99, 1.01):
            moved = RegularizationPath(path.entries.copy())
            moved.entries["lam"][2] *= factor
            assert kkt_midpoint_violation(DEMO_P, DEMO_ELL0, moved) > 1e-8
