import numpy as np
import pytest

from shamans.densela import gram
from shamans.errors import IterationLimit, SingularSystem
from shamans.homotopy import (ENTER, LEAVE, TERMINATE, PathWalk, _support_inverse, lambda_max,
                              next_breakpoint, regularization_path, unbias)
from shamans.nnls import nnls_active_set

import demo_data as dd
from oracles import (kkt_midpoint_violation, nnls_bruteforce, random_nonneg_instance,
                     reference_nnls_gram)

DEMO_P = gram(np.asfortranarray(dd.DEMO_W))
DEMO_ELL0 = dd.DEMO_W.T @ dd.DEMO_M[:, 0]


class TestLambdaMax:
    def test_demo_column(self):
        lam, idx = lambda_max(DEMO_ELL0[None])
        assert lam[0] == pytest.approx(3.16, abs=1e-12)
        assert idx.tolist() == [1]

    def test_all_nonpositive(self):
        lam, idx = lambda_max(np.array([[-1.0, -2.0]]))
        assert lam.tolist() == [0.0] and idx.tolist() == [-1]

    def test_tie_takes_smallest_index(self):
        lam, idx = lambda_max(np.array([[5.0, 5.0, 1.0]]))
        assert lam.tolist() == [5.0] and idx.tolist() == [0]

    def test_mixed_block(self):
        ell = np.array([[1.0, 3.0, 2.0],
                        [-1.0, -2.0, 0.0],
                        [5.0, 5.0, 1.0],
                        [0.0, 0.0, 0.0],
                        [-4.0, 0.5, 0.5]])
        lam, idx = lambda_max(ell)
        assert lam.tolist() == [3.0, 0.0, 5.0, 0.0, 0.5]
        assert idx.tolist() == [1, -1, 0, -1, 1]


def support_mask(r, K):
    """(1, r) support mask of the index set K."""
    mask = np.zeros((1, r), dtype=bool)
    mask[0, K] = True
    return mask


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
    """The walk's coeff_a and coeff_b against their closed forms."""

    def test_full_support_has_empty_complement(self):
        last = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0]).entries[-1]
        assert last["support"].all()
        np.testing.assert_allclose(last["coeff_a"], np.linalg.solve(DEMO_P, DEMO_ELL0),
                                   atol=1e-10)

    def test_singleton_closed_form(self):
        rng = np.random.default_rng(21)
        A = np.abs(rng.standard_normal((6, 3)))
        b = np.abs(rng.standard_normal(6))
        P = gram(np.asfortranarray(A))
        ell = A.T @ b
        first = regularization_path(A, b).entries[1]
        j = int(np.argmax(ell))
        assert np.flatnonzero(first["support"]).tolist() == [j]
        assert first["coeff_a"][j] == pytest.approx(ell[j] / P[j, j], rel=1e-12)
        assert first["coeff_b"][j] == pytest.approx(1.0 / P[j, j], rel=1e-12)
        off = ~first["support"]
        assert not first["coeff_a"][off].any() and not first["coeff_b"][off].any()

    def test_demo_first_support_boundary(self):
        # On [2.7502, 3.16) the support is {1}; the biased solution stays
        # nonnegative at the lower breakpoint and the entering component's
        # complement condition is tight there.
        entry = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0]).entries[1]
        K = entry["support"]
        assert np.flatnonzero(K).tolist() == [1]
        a, b = entry["coeff_a"], entry["coeff_b"]
        c, d = a @ DEMO_P - DEMO_ELL0, b @ DEMO_P - 1.0
        lam = dd.COL0_LAMBDAS[1]
        assert entry["lam"] == pytest.approx(lam, abs=1e-9)
        assert np.all((a - lam * b)[K] >= -1e-12)
        slack = (c - lam * d)[~K]
        assert slack.min() == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_support_raises(self):
        A = np.column_stack([np.ones(4), np.ones(4), np.arange(4.0)])
        P = gram(np.asfortranarray(A))
        with pytest.raises(SingularSystem):
            _support_inverse(P, support_mask(3, [0, 1]))

    def test_mixed_stack_names_the_deficient_rows(self):
        # Atoms 0 and 1 are equal and atom 3 is their sum with atom 2.
        rng = np.random.default_rng(28)
        A = rng.random((6, 4))
        A[:, 1] = A[:, 0]
        A[:, 3] = A[:, 0] + A[:, 2]
        P = gram(np.asfortranarray(A))
        K = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0],
                      [1, 0, 1, 1], [0, 0, 0, 1], [0, 1, 1, 1]], dtype=bool)
        with pytest.raises(SingularSystem) as exc:
            _support_inverse(P, K)
        assert exc.value.matrices.tolist() == [1, 3, 5]
        sound = K[[0, 2, 4]]
        G = _support_inverse(P, sound)
        for g, k in zip(G, sound):
            on = np.ix_(k, k)
            np.testing.assert_allclose(g[on] @ P[on], np.eye(k.sum()), atol=1e-10)
            assert not g[~k].any() and not g[:, ~k].any()


class TestNextBreakpoint:
    def test_all_positive_coefficients_terminate(self):
        a, b, c, d, K = block([1.0], [2.0], [0.5], [0.3])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, 1.0, 1e-12)
        assert lam[0] == 0.0 and kind[0] == TERMINATE and pos[0] == -1

    def test_demo_two_element_support(self):
        a, b, c, d = coefficients(DEMO_P, DEMO_ELL0, [1, 3])
        K = support_mask(4, [1, 3])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, dd.COL0_LAMBDAS[1], 1e-12)
        assert lam[0] == pytest.approx(dd.COL0_LAMBDAS[2], abs=1e-9)
        assert kind[0] == ENTER
        assert pos[0] == 2  # complement of {1,3} is (0, 2); index 2 enters

    def test_tie_prefers_leave(self):
        a, b, c, d, K = block([-2.0], [-1.0], [-4.0], [-2.0])
        lam, kind, pos = next_breakpoint(a, b, c, d, K, 10.0, 1e-12)
        assert lam[0] == 2.0 and kind[0] == LEAVE and pos[0] == 0

    def test_clamped_to_current(self):
        a, b, c, d, K = block([-10.0], [-1.0], [], [])
        lam, kind, _ = next_breakpoint(a, b, c, d, K, 5.0, 1e-12)
        assert lam[0] == 5.0 and kind[0] == LEAVE

    def test_negative_maxima_terminate(self):
        # crossing at lambda = -3, not reachable
        a, b, c, d, K = block([3.0], [-1.0], [], [])
        lam, kind, _ = next_breakpoint(a, b, c, d, K, 1.0, 1e-12)
        assert lam[0] == 0.0 and kind[0] == TERMINATE


class TestUnbias:
    def test_empty_support(self):
        b = dd.DEMO_M[:, 0]
        K = support_mask(4, [])
        x, err, refits = unbias(DEMO_P, DEMO_ELL0[None], K, np.zeros((1, 4)),
                                np.zeros((1, 4, 4)), dd.DEMO_W, b[:, None])
        assert refits == 0
        np.testing.assert_array_equal(x[0], np.zeros(4))
        assert err[0] == pytest.approx(float(b @ b), rel=1e-12)
        assert err[0] == pytest.approx(4.3187, abs=1e-12)

    def test_demo_three_element_support(self):
        b = dd.DEMO_M[:, 0]
        K = np.array([1, 2, 3])
        a = coefficients(DEMO_P, DEMO_ELL0, K)[0]
        mask = support_mask(4, K)
        x, err, refits = unbias(DEMO_P, DEMO_ELL0[None], mask, a,
                                _support_inverse(DEMO_P, mask), dd.DEMO_W, b[:, None])
        assert refits == 0
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
        P = gram(np.asfortranarray(A))
        ell = A.T @ b
        K = np.array([0, 1])
        ls, *_ = np.linalg.lstsq(A[:, K], b, rcond=None)
        assert ls.min() < 0  # the construction really exercises the branch
        a = coefficients(P, ell, K)[0]
        mask = support_mask(3, K)
        x, err, refits = unbias(P, ell[None], mask, a, _support_inverse(P, mask), A, b[:, None])
        assert refits == 1
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
            e = walk.path(j).entries
            keep = (e["coeff_a"] < 0.0).any(axis=1)
            entries.append(e[keep])
            columns += [j] * int(keep.sum())
        e = np.concatenate(entries)
        K, a = e["support"], e["coeff_a"]
        assert ((a < 0.0).sum(axis=1) >= 2).sum() > 10
        x, err, refits = unbias(P, L.T[columns], K, a, _support_inverse(P, K), A,
                                B[:, columns])
        assert refits == len(columns)
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
        assert e["lam"] == 0.0 and e["cardinality"] == 0 and e["error_sq"] == 0.0

    def test_empty_dictionary(self):
        path = regularization_path(np.zeros((5, 0)), np.ones(5))
        assert len(path.entries) == 1 and path.entries[0]["error_sq"] == 5.0

    def test_demo_column0(self):
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0])
        assert path.entries["cardinality"].tolist() == dd.COL0_CARDINALITIES
        np.testing.assert_allclose(path.entries["lam"], dd.COL0_LAMBDAS, atol=1e-9)
        np.testing.assert_allclose(path.entries["error_sq"], dd.COL0_ERRORS, atol=1e-9)
        np.testing.assert_allclose(path.entries["solution"], dd.COL0_SOLUTIONS, atol=1e-9)

    def test_demo_column5(self):
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 5])
        assert path.entries["cardinality"].tolist() == dd.COL5_CARDINALITIES
        np.testing.assert_allclose(path.entries["lam"], dd.COL5_LAMBDAS, atol=1e-9)
        np.testing.assert_allclose(path.entries["error_sq"], dd.COL5_ERRORS, atol=1e-9)
        np.testing.assert_allclose(path.entries["solution"], dd.COL5_SOLUTIONS, atol=1e-9)

    def test_first_entry_is_zero_solution(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            A, b = random_nonneg_instance(rng, 7, 4)
            path = regularization_path(A, b)
            e = path.entries[0]
            assert e["cardinality"] == 0
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
            P = gram(np.asfortranarray(A))
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

    def test_breakpoint_limit_raises(self):
        with pytest.raises(IterationLimit):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0], max_breakpoints=1)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0], tol=tol)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, np.nan, "3"])
    def test_bad_max_breakpoints_rejected(self, cap):
        with pytest.raises(ValueError, match="max_breakpoints must be a positive integer"):
            regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0], max_breakpoints=cap)
        with pytest.raises(ValueError, match="max_breakpoints must be a positive integer"):
            PathWalk(dd.DEMO_W, dd.DEMO_M, max_breakpoints=cap)

    def test_biased_coefficients_reconstruct_interval(self):
        # Inside each interval the biased solution a - lambda*b matches a
        # direct penalized solve on the support.
        path = regularization_path(dd.DEMO_W, dd.DEMO_M[:, 0])
        for above, entry in zip(path.entries, path.entries[1:]):
            lam = 0.5 * (above["lam"] + entry["lam"])
            K = np.flatnonzero(entry["support"])
            biased = (entry["coeff_a"] - lam * entry["coeff_b"])[K]
            S = DEMO_P[np.ix_(K, K)]
            direct = np.linalg.solve(S, DEMO_ELL0[K] - lam)
            np.testing.assert_allclose(biased, direct, atol=1e-10)
            assert np.all(biased >= -1e-10)
