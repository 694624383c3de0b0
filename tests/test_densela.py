import numpy as np
import pytest

from shamans import densela
from shamans.errors import NonFiniteEntry, SingularSystem

from demo_data import DEMO_W
from oracles import random_spd, solve_spd


class TestGram:
    def test_identity(self):
        A = np.eye(2)
        np.testing.assert_array_equal(densela.gram(A), np.eye(2))

    def test_demo_diagonal_entry(self):
        # Direct dot-product oracle for the second dictionary column.
        P = densela.gram(np.asfortranarray(DEMO_W))
        oracle = sum(DEMO_W[i, 1] ** 2 for i in range(DEMO_W.shape[0]))
        assert oracle == pytest.approx(2.7314, abs=1e-12)
        assert P[1, 1] == pytest.approx(oracle, abs=1e-12)

    def test_single_column(self):
        c = np.array([[1.0], [2.0], [3.0]])
        P = densela.gram(c)
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(14.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            A = rng.standard_normal((8, 5))
            P = densela.gram(A)
            assert np.array_equal(P, P.T)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-14)

    def test_diagonal(self):
        S = np.diag([4.0, 9.0])
        x = solve_spd(S, np.array([8.0, 27.0]))
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-12)

    def test_residual_property(self):
        # 1000 random SPD systems up to 20x20, 1e-10 relative residual.
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(1, 21))
            S = random_spd(rng, k)
            rhs = rng.standard_normal(k)
            x = solve_spd(S, rhs)
            res = np.linalg.norm(S @ x - rhs)
            assert res <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

    def test_singular_raises(self):
        A = np.column_stack([np.ones(4), np.ones(4)])  # rank one
        S = densela.gram(A)
        with pytest.raises(SingularSystem):
            solve_spd(S, np.ones(2))

    def test_pivot_floor(self):
        # Positive definite but with a pivot far below 1e-12 * max diagonal.
        S = np.diag([1.0, 1e-16])
        with pytest.raises(SingularSystem):
            solve_spd(S, np.ones(2))

    def test_stack_names_every_singular_matrix(self):
        # A breakdown (indefinite) and a pivot under the floor, among
        # sound matrices whose factors match the one-at-a-time ones.
        rng = np.random.default_rng(2)
        good = [random_spd(rng, 3) for _ in range(3)]
        bad = [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1e-16, 1.0])]
        stack = np.stack([good[0], bad[0], good[1], bad[1], good[2]])
        with pytest.raises(SingularSystem) as info:
            densela.spd_factor(stack)
        assert list(info.value.matrices) == [1, 3]
        L = densela.spd_factor(stack[[0, 2, 4]])
        for Li, S in zip(L, good):
            np.testing.assert_allclose(Li, densela.spd_factor(S), rtol=1e-14)


def embedded_inverse(P, k):
    """P(k, k)^-1 embedded in an r x r matrix that is zero off the mask k."""
    G = np.zeros_like(P)
    if k.any():
        G[np.ix_(k, k)] = np.linalg.inv(P[np.ix_(k, k)])
    return G


class TestCarryInverse:
    def test_random_enter_leave_sequence(self):
        # Eight rows at r = 24 each toggle a random atom 300 times, with no
        # fresh inverse in between.
        rng = np.random.default_rng(6)
        P = densela.gram(rng.random((60, 24)) + 0.05)
        rows = np.arange(8)
        K = np.zeros((8, 24), dtype=bool)
        G = np.zeros((8, 24, 24))
        for _ in range(300):
            index = rng.integers(0, 24, size=8)
            enter = ~K[rows, index]
            want_K = K.copy()
            want_K[rows, index] = enter
            old = [embedded_inverse(P, k) for k in K]
            pivot = densela.carry_inverse(P, G, K, enter, index)
            assert np.array_equal(K, want_K)
            for i in rows:
                want = embedded_inverse(P, K[i])
                np.testing.assert_allclose(G[i], want, rtol=0,
                                           atol=1e-10 * np.abs(want).max(initial=1.0))
                if enter[i]:
                    j = index[i]
                    p = np.where(K[i], P[j], 0.0)
                    p[j] = 0.0
                    schur = P[j, j] - p @ old[i] @ p
                    assert pivot[i] == pytest.approx(schur, rel=1e-10)
        assert K.sum(axis=1).max() >= 12

    def test_dependent_atom_pivot_falls_below_floor(self):
        # Integer atoms make atom 3 = atom 0 + atom 1 exact.
        rng = np.random.default_rng(7)
        A = rng.integers(1, 6, size=(10, 4)).astype(float)
        A[:, 3] = A[:, 0] + A[:, 1]
        P = densela.gram(A)
        K = np.array([[True, True, False, False], [False, True, True, False]])
        G = np.stack([embedded_inverse(P, k) for k in K])
        pivot = densela.carry_inverse(P, G, K, np.array([True, True]), np.array([3, 3]))
        floor = densela.PIVOT_FLOOR * np.where(K, np.diagonal(P), 0.0).max(axis=1)
        assert pivot[0] < floor[0]
        assert pivot[1] > 1e-3 * floor[1] / densela.PIVOT_FLOOR  # independent


class TestFrobNorm:
    def test_zero(self):
        assert densela.frob_norm(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert densela.frob_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 7))
        assert densela.frob_norm(A) == pytest.approx(np.linalg.norm(A), rel=1e-14)


class TestValidation:
    def test_as_matrix_rejects_nan(self):
        with pytest.raises(NonFiniteEntry):
            densela.as_matrix(np.array([[1.0, np.nan]]))

    def test_as_matrix_fortran_order(self):
        A = densela.as_matrix(np.arange(6, dtype=float).reshape(2, 3))
        assert A.flags.f_contiguous

    def test_as_vector_rejects_2d(self):
        with pytest.raises(ValueError):
            densela.as_vector(np.eye(2))
