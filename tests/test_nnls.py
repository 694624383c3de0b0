import numpy as np
import pytest

from shamans import nnls
from shamans.densela import TOL, exponent, gram, support_solve
from shamans.errors import IterationLimit, NonFiniteEntry
from shamans.homotopy import PathWalk
from shamans.nnls import nnls_active_set, nnls_gram

from demo_data import DEMO_M, DEMO_W
from oracles import nnls_bruteforce, random_nonneg_instance, reference_nnls_gram, warm_start


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


def test_objective_nonincreasing(monkeypatch):
    # Every feasible least-squares solution on a passive set (all its slots
    # positive) is an iterate the solver moves to: from the zero start on,
    # none may raise the objective.  The iterates are in the solver's units,
    # A 2^-a and b 2^-b (densela.exponent).
    iterates = []

    def spy(P, G, atoms, rhs):
        full = support_solve(P, G, atoms, rhs)
        on_slots = np.take_along_axis(full[:, 0], atoms, axis=1)
        feasible = np.where(atoms < rhs.shape[2] - 1, on_slots > 0.0, True).all(axis=1)
        iterates.extend(full[feasible, 0, :-1])
        return full

    monkeypatch.setattr(nnls, "support_solve", spy)
    rng = np.random.default_rng(13)
    for _ in range(100):
        A, b = random_nonneg_instance(rng, 8, 5)
        iterates.clear()
        nnls_active_set(A, b)
        A, b = np.ldexp(A, -exponent(A)), np.ldexp(b, -exponent(b))
        objectives = [float(b @ b)] + [float((A @ x - b) @ (A @ x - b)) for x in iterates]
        diffs = np.diff(objectives)
        assert len(objectives) > 1
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


def test_gram_entry_point():
    rng = np.random.default_rng(17)
    A, b = random_nonneg_instance(rng, 9, 4)
    P = gram(A)
    x = nnls_gram(P, A.T @ b)
    np.testing.assert_allclose(x, nnls_active_set(A, b).x, atol=1e-12)


def test_bad_inputs():
    with pytest.raises(ValueError):
        nnls_active_set(DEMO_W, np.zeros(4))  # length mismatch
    with pytest.raises(NonFiniteEntry, match="b contains NaN"):
        nnls_active_set(DEMO_W, np.array([1.0, np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(NonFiniteEntry, match="A contains NaN"):
        nnls_active_set(np.where(DEMO_W > 0.5, np.inf, DEMO_W), np.ones(5))
    with pytest.raises(TypeError):  # every threshold is relative to the data
        nnls_active_set(DEMO_W, np.ones(5), tol=1e-10)
    with pytest.raises(TypeError):
        nnls_gram(gram(DEMO_W), DEMO_W.T @ np.ones(5), tol=1e-10)


def test_iteration_limit_carries_column():
    exc = IterationLimit("pivot cap", row=1, column=3)
    assert (exc.row, exc.column) == (1, 3)
    assert IterationLimit("pivot cap").column is None


def test_pivot_limit_names_the_row_and_its_column(monkeypatch):
    # Every solve made nonpositive: each atom that enters is dropped at once
    # and enters again, so every row cycles past its 10 r (r + 1) pivots in
    # lockstep.  The block solver names the first row over, and PathWalk.nnls
    # the data column that row holds.
    rng = np.random.default_rng(3)
    walk = PathWalk(rng.random((10, 4)) + 0.05, rng.random((10, 3)))
    solve = nnls.support_solve
    monkeypatch.setattr(nnls, "support_solve", lambda *args: -np.abs(solve(*args)))
    with pytest.raises(IterationLimit) as info:
        nnls_gram(walk.P, walk.L.T)
    assert info.value.row == 0
    with pytest.raises(IterationLimit) as info:
        walk.nnls(np.array([2, 0, 1]))
    assert (info.value.row, info.value.column) == (0, 2)


def test_snapped_coefficient_leaves_a_stationary_refit():
    # b is A @ (1, 1, eps) with eps under the coefficient floor
    # TOL max|ell| / max|P|.  Atom 2 carries the largest correlation, so it
    # enters and ends at eps; once it is set to zero, the other two must be
    # solved again or their gradient keeps a residue of order eps.
    A = np.array([[1.0, 0.0, 1.1], [0.0, 1.0, 0.9], [0.2, 0.4, 0.7], [0.5, 0.1, 0.5]])
    base = A[:, 0] + A[:, 1]
    P = gram(A)
    eps = 0.3 * TOL * float((A.T @ base).max()) / float(np.abs(P).max())
    b = base + eps * A[:, 2]
    ell = A.T @ b
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
    # the inverses on the masks (the walk's refit): with numpy's solve,
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
    slots = np.where(mask, np.arange(12), 12)  # atom j in slot j
    for X in (nnls_gram(P, ell, mask), nnls_gram(P, ell, mask, start=(G, slots, a))):
        assert (np.abs(X - want) / scale).max() <= 1e-12


def test_no_support_solve_on_no_rows(monkeypatch):
    # The warm start's drop loop ends when no row is left infeasible, and a
    # snap refits only the rows with a passive set left: neither then calls
    # support_solve on an empty block, and the refits are those of the
    # per-column solver.
    rng = np.random.default_rng(19)
    A = np.asfortranarray(rng.random((30, 12)) + 0.05)
    B = rng.random((30, 300))
    P, ell = gram(A), (A.T @ B).T
    mask = rng.random((300, 12)) < 0.6
    mask[:5] = False  # rows with nothing to solve
    G = np.zeros((300, 12, 12))
    for i, k in enumerate(mask):
        G[i][np.ix_(k, k)] = np.linalg.inv(P[np.ix_(k, k)])
    a = np.einsum("bij,bj->bi", G, np.where(mask, ell, 0.0))
    assert (a < 0.0).any(axis=1).sum() > 100
    rows = []

    def counting(P, G, atoms, rhs):
        rows.append(atoms.shape[0])
        return support_solve(P, G, atoms, rhs)

    monkeypatch.setattr(nnls, "support_solve", counting)
    slots = np.where(mask, np.arange(12), 12)
    for X in (nnls_gram(P, ell, mask), nnls_gram(P, ell, mask, start=(G, slots, a))):
        assert not X[~mask].any()
        for i in np.flatnonzero(mask.any(axis=1)):
            k = mask[i]
            want = reference_nnls_gram(P[np.ix_(k, k)], ell[i, k])
            assert np.abs(X[i, k] - want).max() <= 1e-12 * (1.0 + np.abs(ell[i]).max())
    assert rows and min(rows) > 0


def test_inverse_in_any_slot_order():
    # One masked block started from its inverses in three slot layouts:
    # carry_inverse's first-free order, each row's slots reversed (empty
    # slots first), and padded with two empty slots at either end.  Every
    # layout gives X within 1e-12 of the per-column solver on the mask, and
    # leaves in its stacks the inverse of P on each row's solution support.
    rng = np.random.default_rng(23)
    A = np.asfortranarray(rng.random((30, 12)) + 0.05)
    B = rng.random((30, 200))
    P, ell = gram(A), (A.T @ B).T
    mask = rng.random((200, 12)) < rng.uniform(0.2, 0.8, (200, 1))
    mask[np.arange(200), rng.integers(0, 12, 200)] = True
    k = mask.sum(axis=1).max()
    first = np.sort(np.where(mask, np.arange(12), 12), axis=1)[:, :k]
    want = np.zeros((200, 12))
    negative = 0  # rows whose warm start drops atoms
    for i, m in enumerate(mask):
        want[i, m] = reference_nnls_gram(P[np.ix_(m, m)], ell[i, m])
        negative += np.linalg.solve(P[np.ix_(m, m)], ell[i, m]).min() < 0.0
    assert negative > 50
    scale = 1.0 + np.abs(np.where(mask, ell, 0.0)).max(axis=1, keepdims=True)
    assert mask.sum(axis=1).min() < k  # rows with empty slots in every layout
    for layout in (first, first[:, ::-1], np.pad(first, ((0, 0), (2, 2)), constant_values=12)):
        atoms = layout.copy()
        G = np.zeros(atoms.shape + atoms.shape[1:])
        for i, a in enumerate(atoms):
            on = a < 12
            G[i][np.ix_(on, on)] = np.linalg.inv(P[np.ix_(a[on], a[on])])
        X = nnls_gram(P, ell, mask, start=warm_start(G, atoms, ell))
        assert (np.abs(X - want) / scale).max() <= 1e-12
        # Carried in place: each row's slots now hold P^-1 on its solution's support.
        for i, (a, g) in enumerate(zip(atoms, G)):
            on = a < 12
            assert np.array_equal(np.sort(a[on]), np.flatnonzero(X[i] > 0.0))
            np.testing.assert_allclose(g[np.ix_(on, on)], np.linalg.inv(P[np.ix_(a[on], a[on])]),
                                       rtol=0, atol=1e-9 * np.abs(g).max())
            assert not g[~on].any() and not g[:, ~on].any()


def test_rank_deficient_entering_atom_is_barred(tiny_pivots):
    # Atom 4 is within 1e-9 of (W0 + W1)/2: a passive set holding atoms 0
    # and 1 leaves it an entering Schur pivot far below the relative floor.
    # Such rows bar it and go on, alone and in a block, and every row
    # reaches the brute-force optimum; the block solves each row as alone.
    rng = np.random.default_rng(0)
    A = rng.random((8, 5))
    A[:, 4] = 0.5 * (A[:, 0] + A[:, 1]) + 1e-9 * rng.random(8)
    B = rng.random((8, 40))
    P, ell = gram(A), (A.T @ B).T
    barred, alone = 0, []
    for i in range(40):
        tiny_pivots.clear()
        alone.append(nnls_gram(P, ell[i]))
        barred += any(tiny_pivots)
        resid = A @ alone[-1] - B[:, i]
        best = nnls_bruteforce(A, B[:, i])[1]
        assert float(resid @ resid) == pytest.approx(best, rel=1e-8, abs=0), i
    assert 0 < barred < 40
    X = nnls_gram(P, ell)
    np.testing.assert_allclose(X, alone, rtol=0, atol=1e-12 * np.abs(X).max())
