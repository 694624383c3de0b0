import numpy as np
import pytest

from shamans.densela import gram
from shamans.errors import IterationLimit, SingularSystem
from shamans.homotopy import unbias
from shamans.nnls import nnls_active_set, nnls_gram

from demo_data import DEMO_M, DEMO_W
from oracles import nnls_bruteforce, random_nonneg_instance, reference_nnls_gram


def test_zero_rhs():
    sol = nnls_active_set(DEMO_W, np.zeros(5))
    np.testing.assert_array_equal(sol.x, np.zeros(4))
    assert sol.residual_sq == 0.0
    assert sol.support.size == 0


def test_demo_column_full_support_matches_lstsq():
    # The first demo column has an all-positive least-squares solution,
    # so the constrained and unconstrained solutions coincide.
    b = DEMO_M[:, 0]
    sol = nnls_active_set(DEMO_W, b)
    ls, *_ = np.linalg.lstsq(DEMO_W, b, rcond=None)
    np.testing.assert_allclose(sol.x, ls, atol=1e-10)
    np.testing.assert_array_equal(sol.support, np.arange(4))
    resid = DEMO_W @ sol.x - b
    assert sol.residual_sq == pytest.approx(float(resid @ resid), rel=1e-12)


def test_matches_bruteforce_single():
    rng = np.random.default_rng(11)
    A, b = random_nonneg_instance(rng, 6, 4)
    b = b - A @ rng.uniform(size=4) * 0.3  # make some gradients negative
    sol = nnls_active_set(A, b)
    x_star, err_star = nnls_bruteforce(A, b)
    assert sol.residual_sq == pytest.approx(err_star, abs=1e-8)
    np.testing.assert_allclose(sol.x, x_star, atol=1e-8)


def test_bruteforce_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        A, b = random_nonneg_instance(rng, 8, 4)
        if rng.random() < 0.5:
            b = b - A @ np.abs(rng.standard_normal(4)) * 0.5
        sol = nnls_active_set(A, b)
        _, err_star = nnls_bruteforce(A, b)
        assert abs(sol.residual_sq - err_star) <= 1e-8


def test_objective_nonincreasing():
    rng = np.random.default_rng(13)
    for _ in range(100):
        A, b = random_nonneg_instance(rng, 8, 5)
        objectives = []

        def track(x, A=A, b=b, acc=objectives):
            resid = A @ x - b
            acc.append(float(resid @ resid))

        nnls_active_set(A, b, on_iterate=track)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-10 * (1 + objectives[0]))


def test_support_size_bound():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        r = int(rng.integers(1, 7))
        A, b = random_nonneg_instance(rng, m, r)
        sol = nnls_active_set(A, b)
        assert sol.support.size <= min(m, r)


def test_kkt_certificate():
    rng = np.random.default_rng(15)
    for _ in range(100):
        A, b = random_nonneg_instance(rng, 8, 5)
        sol = nnls_active_set(A, b)
        grad = A.T @ (A @ sol.x - b)
        scale = 1.0 + np.abs(A.T @ b).max()
        off = np.setdiff1d(np.arange(5), sol.support)
        assert np.all(grad[off] >= -1e-8 * scale)
        if sol.support.size:
            assert np.abs(grad[sol.support]).max() <= 1e-8 * scale
        # entries are exactly zero off the support
        assert np.all(sol.x[off] == 0.0)


def test_precomputed_gram_matches():
    rng = np.random.default_rng(16)
    A, b = random_nonneg_instance(rng, 7, 4)
    P = gram(np.asfortranarray(A))
    ell = A.T @ b
    direct = nnls_active_set(A, b)
    shared = nnls_active_set(A, b, gram_matrix=P, corr=ell)
    np.testing.assert_allclose(shared.x, direct.x, atol=1e-12)


def test_gram_entry_point():
    rng = np.random.default_rng(17)
    A, b = random_nonneg_instance(rng, 9, 4)
    P = gram(np.asfortranarray(A))
    x = nnls_gram(P, A.T @ b)
    np.testing.assert_allclose(x, nnls_active_set(A, b).x, atol=1e-12)


def test_bad_inputs():
    with pytest.raises(ValueError):
        nnls_active_set(DEMO_W, np.zeros(4))  # length mismatch
    for tol in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            nnls_active_set(DEMO_W, np.ones(5), tol=tol)


def test_iteration_limit_carries_column():
    exc = IterationLimit("pivot cap", column=3)
    assert exc.column == 3
    assert IterationLimit("pivot cap").column is None


def test_snapped_coefficient_leaves_a_stationary_refit():
    # b is A @ (1, 1, eps) with eps under the snapping threshold
    # tol * (1 + max|ell|).  Atom 2 carries the largest correlation, so it
    # enters and ends at eps; once it is set to zero, the other two must be
    # solved again or their gradient keeps a residue of order eps.
    A = np.array([[1.0, 0.0, 1.1], [0.0, 1.0, 0.9], [0.2, 0.4, 0.7], [0.5, 0.1, 0.5]])
    base = A[:, 0] + A[:, 1]
    eps = 0.3 * 1e-10 * (1.0 + float((A.T @ base).max()))
    b = base + eps * A[:, 2]
    P, ell = gram(A), A.T @ b
    assert int(np.argmax(ell)) == 2
    x = nnls_gram(P, ell)
    assert x[2] == 0.0 and x[0] > 0.0 and x[1] > 0.0
    assert np.abs(x * (P @ x - ell)).max() <= 1e-14 * float(np.abs(P).max())


def test_block_matches_per_column_reference():
    # One block mixes mask sizes 1..r, rows feasible at the warm start,
    # rows with ell <= 0 on their mask (x = 0), and rows whose warm start
    # keeps a coefficient the optimum drops.  Each row must equal the
    # per-column solver on P(mask, mask) and the enumeration oracle.
    rng = np.random.default_rng(18)
    m, r, n = 8, 6, 400
    A = np.abs(rng.standard_normal((m, r)))
    P = gram(A)
    mask = np.zeros((n, r), dtype=bool)
    B = np.empty((m, n))
    for i in range(n):
        k = np.sort(rng.choice(r, size=1 + i % r, replace=False))
        mask[i, k] = True
        kind = i % 4
        if kind == 0:  # exactly representable with positive coefficients
            B[:, i] = A[:, k] @ rng.uniform(0.5, 1.5, size=k.size)
        elif kind == 1:  # nonpositive correlations with every atom
            B[:, i] = -np.abs(rng.standard_normal(m))
        else:
            B[:, i] = np.abs(rng.standard_normal(m)) - A @ np.abs(rng.standard_normal(r)) * 0.1
    ell = (A.T @ B).T
    X = nnls_gram(P, ell, mask)
    assert X.shape == (n, r) and np.all(X[~mask] == 0.0)

    wrong_start = 0
    for i in range(n):
        k = np.flatnonzero(mask[i])
        scale = 1.0 + np.abs(ell[i, k]).max()
        want = reference_nnls_gram(P[np.ix_(k, k)], ell[i, k])
        np.testing.assert_allclose(X[i, k], want, rtol=0, atol=1e-12 * scale)
        x_star, _ = nnls_bruteforce(A[:, k], B[:, i])
        np.testing.assert_allclose(X[i, k], x_star, rtol=0, atol=1e-8)
        if i % 4 == 1:
            assert np.all(X[i] == 0.0)
        if k.size > 1:
            ls = np.linalg.solve(P[np.ix_(k, k)], ell[i, k])
            wrong_start += bool(np.any((ls > 0.0) & (x_star == 0.0)) and x_star.any())
    assert wrong_start > 20

    # Masks larger than m have no least-squares start; errors still match.
    A = np.abs(rng.standard_normal((3, 5)))
    B = np.abs(rng.standard_normal((3, 50))) - 0.3
    X = nnls_gram(gram(A), (A.T @ B).T)
    for i in range(50):
        resid = A @ X[i] - B[:, i]
        assert float(resid @ resid) == pytest.approx(nnls_bruteforce(A, B[:, i])[1], abs=1e-8)


def test_refits_factor_nothing(monkeypatch):
    # Block refits on supports of a 12-atom dictionary, with and without
    # the inverses on the masks, and through unbias: with numpy's solve,
    # Cholesky and inverse disabled, every row still matches the
    # per-column solver on its mask.
    rng = np.random.default_rng(19)
    A = np.asfortranarray(rng.random((30, 12)) + 0.05)
    B = rng.random((30, 300))
    P, ell = gram(A), (A.T @ B).T
    mask = rng.random((300, 12)) < 0.6
    mask[np.arange(300), rng.integers(0, 12, 300)] = True
    a = np.zeros((300, 12))
    G = np.zeros((300, 12, 12))
    want = np.zeros((300, 12))
    for i, k in enumerate(mask):
        G[i][np.ix_(k, k)] = np.linalg.inv(P[np.ix_(k, k)])
        a[i] = G[i] @ ell[i]
        want[i, k] = reference_nnls_gram(P[np.ix_(k, k)], ell[i, k])
    scale = 1.0 + np.abs(np.where(mask, ell, 0.0)).max(axis=1, keepdims=True)
    assert (a < 0.0).any(axis=1).sum() > 100

    def disabled(*args, **kwargs):
        raise AssertionError("a refit factored a system")

    for name in ("solve", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, disabled)
    for X in (nnls_gram(P, ell, mask), nnls_gram(P, ell, mask, inverse=G),
              unbias(P, ell, mask, a, G, A, B)[0]):
        assert (np.abs(X - want) / scale).max() <= 1e-12


def test_rank_deficient_entering_atom_names_its_rows():
    # Atom 4 is within 1e-9 of (W0 + W1)/2: a passive set holding atoms 0
    # and 1 leaves it a Schur pivot far below the relative floor.  Rows
    # whose solve would enter it raise, alone and in a block, and the
    # block's exception names block rows; the other rows solve as before.
    rng = np.random.default_rng(0)
    A = rng.random((8, 5))
    A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(8)
    B = rng.random((8, 40))
    P, ell = gram(A), (A.T @ B).T
    bad = []
    for i in range(40):
        try:
            x = nnls_gram(P, ell[i])
        except SingularSystem as exc:
            assert exc.matrices.tolist() == [0]
            bad.append(i)
        else:
            resid = A @ x - B[:, i]
            assert float(resid @ resid) == pytest.approx(nnls_bruteforce(A, B[:, i])[1],
                                                         abs=1e-8)
    assert 0 < len(bad) < 40
    with pytest.raises(SingularSystem) as info:
        nnls_gram(P, ell)
    assert 0 < len(info.value.matrices) and set(info.value.matrices) <= set(bad)
