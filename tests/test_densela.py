import numpy as np
import pytest

from shamans import densela
from shamans.errors import NonFiniteEntry, SingularSystem
from shamans.homotopy import PathWalk

from demo_data import DEMO_W
from oracles import extended_residual_sq, random_spd, solve_spd

EPS = np.finfo(float).eps


class TestGram:
    def test_identity(self):
        A = np.eye(2)
        np.testing.assert_array_equal(densela.gram(A), np.eye(2))

    def test_demo_diagonal_entry(self):
        # Direct dot-product oracle for the second dictionary column.
        P = densela.gram(DEMO_W)
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


def slot_inverse(P, atoms):
    """P(K, K)^-1 in the slot order of the (k,) index ``atoms`` (r in an
    empty slot), zero in the rows and columns of empty slots."""
    on = atoms < P.shape[0]
    G = np.zeros((atoms.size, atoms.size))
    if on.any():
        G[np.ix_(on, on)] = np.linalg.inv(P[np.ix_(atoms[on], atoms[on])])
    return G


def first_free(atoms, index, enter, r):
    """carry_inverse's slot index after row i's index[i] enters the first
    free slot, or leaves its own, per enter[i]."""
    atoms = atoms.copy()
    for i, (j, entering) in enumerate(zip(index, enter)):
        slot = np.flatnonzero(atoms[i] == (r if entering else j))[0]
        atoms[i, slot] = j if entering else r
    return atoms


class TestCarryInverse:
    def test_random_enter_leave_sequence(self):
        # Eight rows at r = 24 each toggle a random atom 300 times, with no
        # fresh inverse in between, in a stack of 24 slots: an entering atom
        # takes the first free slot, and a leaving one frees its own.
        rng = np.random.default_rng(6)
        P = densela.gram(rng.random((60, 24)) + 0.05)
        Pz = np.pad(P, (0, 1))
        rows = np.arange(8)
        K = np.zeros((8, 24), dtype=bool)
        G = np.zeros((8, 24, 24))
        atoms = np.full((8, 24), 24)
        moved = 0  # entering atoms whose slot is not their own
        for _ in range(300):
            index = rng.integers(0, 24, size=8)
            enter = ~K[rows, index]
            want_K = K.copy()
            want_K[rows, index] = enter
            before = atoms.copy()
            old = [slot_inverse(P, a) for a in before]
            want_atoms = first_free(before, index, enter, 24)
            # Entering atoms kept out of their own slot although it is free.
            own_free = before[rows, index] == 24
            moved += (enter & own_free & (want_atoms[rows, index] != index)).sum()
            carried, atoms, sound = densela.carry_inverse(Pz, G, atoms, enter, index)
            assert carried is G
            assert np.array_equal(atoms, want_atoms)
            K = want_K
            for i in rows:
                assert np.array_equal(np.sort(atoms[i][atoms[i] < 24]), np.flatnonzero(K[i]))
                want = slot_inverse(P, atoms[i])
                np.testing.assert_allclose(G[i], want, rtol=0,
                                           atol=1e-10 * np.abs(want).max(initial=1.0))
                if enter[i]:
                    j = index[i]
                    p = np.pad(P[j], (0, 1))[before[i]]  # j is not in before[i]
                    schur = P[j, j] - p @ old[i] @ p
                    top = np.diagonal(P)[K[i]].max()  # on the new support
                    assert sound[i] == (schur >= densela.PIVOT_FLOOR * top)
                else:
                    assert sound[i]
        assert K.sum(axis=1).max() >= 12
        assert moved > 100

    def test_slot_coordinates(self):
        # Twelve rows over r = 10 atoms start with no slots, and each walks its
        # own random history of 400 enters and leaves, some rows entering and
        # others leaving in one call.  A leave frees a slot that a later atom
        # takes, and the stacks grow by one slot when an entering row has none
        # free.  An entering atom takes the first free slot.
        rng = np.random.default_rng(8)
        r, n = 10, 12
        P = densela.gram(rng.random((30, r)) + 0.05)
        rows = np.arange(n)
        G, atoms = np.zeros((n, 0, 0)), np.zeros((n, 0), dtype=np.intp)
        used = np.zeros((n, 0), dtype=bool)  # slots that have held an atom
        reused = grown = mixed = 0
        for _ in range(400):
            K = np.zeros((n, r + 1), dtype=bool)
            K[rows[:, None], atoms] = True
            size = K[:, :r].sum(axis=1)
            enter = (size == 0) | (size < r) & (rng.random(n) < 0.6)
            index = np.array([rng.choice(np.flatnonzero(K[i, :r] != enter[i])) for i in rows])
            before = atoms.copy()
            G, atoms, sound = densela.carry_inverse(np.pad(P, (0, 1)), G, atoms, enter, index)
            grow = atoms.shape[1] - before.shape[1]
            assert grow == (enter & (before != r).all(axis=1)).any()
            assert G.shape == (n,) + 2 * atoms.shape[1:]
            grown += grow
            mixed += enter.any() and not enter.all()
            used = np.pad(used, ((0, 0), (0, grow)))
            for i in rows:
                j = index[i]
                was = np.pad(before[i], (0, grow), constant_values=r)
                free = was == r
                # The Schur pivot of j against the rest of the old support.
                rest = was[~free & (was != j)]
                schur = P[j, j] - P[j, rest] @ np.linalg.solve(P[np.ix_(rest, rest)], P[rest, j])
                if enter[i]:
                    slot = np.flatnonzero(free)[0]
                    reused += used[i, slot]
                    top = np.diagonal(P)[np.append(rest, j)].max()  # on the new support
                    assert sound[i] == (schur >= densela.PIVOT_FLOOR * top)
                else:
                    slot = np.flatnonzero(was == j)[0]
                    assert sound[i]
                used[i, slot] = True
                was[slot] = j if enter[i] else r
                assert np.array_equal(atoms[i], was)
                on = was < r
                want = np.linalg.inv(P[np.ix_(was[on], was[on])])
                atol = 1e-10 * np.abs(want).max(initial=0.0)
                np.testing.assert_allclose(G[i][np.ix_(on, on)], want, rtol=0, atol=atol)
                np.testing.assert_allclose(G[i], G[i].T, rtol=0, atol=atol)
                assert not G[i][~on].any() and not G[i][:, ~on].any()
        assert reused > 100 and grown == r and mixed > 300

    def test_dependent_atom_pivot_falls_below_floor(self):
        # Integer atoms make atom 3 = atom 0 + atom 1 exact.
        rng = np.random.default_rng(7)
        A = rng.integers(1, 6, size=(10, 4)).astype(float)
        A[:, 3] = A[:, 0] + A[:, 1]
        P = densela.gram(A)
        K = np.array([[True, True, False, False], [False, True, True, False]])
        atoms = np.where(K, np.arange(4), 4)
        G = np.stack([slot_inverse(P, a) for a in atoms])
        _, _, sound = densela.carry_inverse(np.pad(P, (0, 1)), G, atoms,
                                            np.array([True, True]), np.array([3, 3]))
        assert sound.tolist() == [False, True]  # dependent, then independent

    def test_floor_is_taken_on_the_new_support(self):
        # Atom 3 is within 1e-4 of atom 1 + atom 2, a Schur pivot near 1e-8
        # against either support below, and atom 0, scaled by 1e4, holds the
        # largest diagonal entry of P, 3.2e8.  The floor scales with the new
        # support's largest entry: 13 without atom 0, so the update holds,
        # and 3.2e8 with it, so it does not.
        rng = np.random.default_rng(7)
        A = rng.random((10, 4)) + 0.05
        A[:, 3] = A[:, 1] + A[:, 2] + 1e-4 * rng.random(10)
        A[:, 0] *= 1e4
        P = densela.gram(A)
        atoms = np.array([[4, 1, 2, 4], [0, 1, 2, 4]])
        G = np.stack([slot_inverse(P, a) for a in atoms])
        _, _, sound = densela.carry_inverse(np.pad(P, (0, 1)), G, atoms,
                                            np.array([True, True]), np.array([3, 3]))
        assert sound.tolist() == [True, False]


def assert_kernel_errors(A, B, X, exact=False):
    """residual_sq's errors of the rows of X against the matching columns
    of B lie within 1e-12 relative of the extended-precision residual.  An
    exact fit, whose residual is roundoff, gets an absolute floor of
    64 eps ||b|| ||A x - b||."""
    Q, R = np.linalg.qr(A)
    got = densela.residual_sq(R, *densela.range_split(Q, B), X)
    want = extended_residual_sq(A, B, X)
    floor = 64 * EPS * np.linalg.norm(B, axis=0) * np.sqrt(want) if exact else 0.0
    assert (np.abs(got - want) <= 1e-12 * want + floor).all(), np.abs(got - want) / want


def least_squares(A, B):
    """Row j: a least-squares solution for column j of B (may go negative)."""
    return np.linalg.lstsq(A, B, rcond=None)[0].T


def workload_like(rng, m, r, n):
    """A rand + 0.05 dictionary and columns mixing a few of its atoms with
    weights in [0.2, 1), plus 0.005 Gaussian noise clipped at 0."""
    A = np.asfortranarray(rng.random((m, r)) + 0.05)
    H = np.where(rng.random((r, n)) < 0.2, rng.uniform(0.2, 1.0, (r, n)), 0.0)
    return A, np.clip(A @ H + 0.005 * rng.standard_normal((m, n)), 0.0, None)


class TestResidualSq:
    """The walk's error kernel ||b - Q z||^2 + ||z - R x||^2 against residuals
    formed in extended precision.  Near fits (least squares, path ends) are
    where a form that cancels, like ||b||^2 - 2 x.ell + x.P x, fails."""

    def test_exact_dependency(self):
        rng = np.random.default_rng(41)
        A = rng.random((30, 6))
        A[:, 4] = 0.5 * (A[:, 0] + A[:, 1])
        B = A @ rng.random((6, 20)) + 1e-3 * rng.standard_normal((30, 20))
        assert np.linalg.matrix_rank(A) == 5
        assert_kernel_errors(A, B, least_squares(A, B))
        assert_kernel_errors(A, B, rng.random((20, 6)))

    def test_fewer_rows_than_atoms(self):
        # Q is 3 x 3 and every column lies in range(A): least squares fits exactly.
        rng = np.random.default_rng(42)
        A = rng.random((3, 5)) + 0.05
        B = rng.random((3, 20))
        Q, R = np.linalg.qr(A)
        assert Q.shape == (3, 3) and R.shape == (3, 5)
        assert_kernel_errors(A, B, least_squares(A, B), exact=True)
        assert_kernel_errors(A, B, rng.random((20, 5)))

    def test_zero_column_and_exact_fit(self):
        rng = np.random.default_rng(43)
        A = rng.random((40, 6)) + 0.05
        h = rng.random(6)
        B = np.column_stack([np.zeros(40), A @ h])
        Q, R = np.linalg.qr(A)
        Z, perp_sq = densela.range_split(Q, B)
        assert not Z[0].any() and perp_sq[0] == 0.0
        assert (densela.residual_sq(R, Z, perp_sq, np.zeros((2, 6)))[0]) == 0.0
        assert_kernel_errors(A, B, rng.random((2, 6)))
        assert_kernel_errors(A, B, np.stack([np.zeros(6), h]), exact=True)
        assert_kernel_errors(A, B, least_squares(A, B), exact=True)

    @pytest.mark.parametrize("k_a, k_b", [(64, 64), (-64, -64), (64, -64), (-64, 64),
                                          (0, 64), (-64, 0)])
    def test_power_of_two_scales(self, k_a, k_b):
        # A scaled by 2^k_a and B by 2^k_b, jointly and separately.
        rng = np.random.default_rng(44)
        A, B = workload_like(rng, 60, 6, 30)
        X = least_squares(A, B)
        scale_a, scale_b = 2.0**k_a, 2.0**k_b
        A, B = scale_a * A, scale_b * B
        assert_kernel_errors(A, B, scale_b / scale_a * X)
        assert_kernel_errors(A, B, scale_b / scale_a * rng.random((30, 6)))

    def test_workload_like_paths(self):
        # Every entry the walk records, the near fits at the paths' ends
        # among them, and least squares on the full dictionary.
        rng = np.random.default_rng(45)
        A, B = workload_like(rng, 200, 24, 60)
        walk = PathWalk(A, B)
        entries = [walk.unscaled_path(j).entries for j in range(60)]
        columns = np.repeat(np.arange(60), [len(e) for e in entries])
        e = np.concatenate(entries)
        assert len(e) > 300
        want = extended_residual_sq(A, B[:, columns], e["solution"])
        assert (np.abs(e["error_sq"] - want) <= 1e-12 * want).all()
        assert_kernel_errors(A, B[:, columns], e["solution"])
        assert_kernel_errors(A, B, least_squares(A, B))


class TestFrobNorm:
    def test_zero(self):
        assert densela.frob_norm(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert densela.frob_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 7))
        assert densela.frob_norm(A) == pytest.approx(np.linalg.norm(A), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 2.0**-1000, 2.0**1000])
    def test_scales_past_the_squares_range(self, scale):
        # Each square of A 1e-170 underflows and of A 1e160 overflows: the
        # sum runs over A 2^-e, scaled exactly.
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 7))
        assert densela.frob_norm(scale * A) == pytest.approx(scale * np.linalg.norm(A), rel=1e-14)
        assert densela.frob_norm(np.ldexp(A, 900)) == np.ldexp(densela.frob_norm(A), 900)


class TestExponent:
    @pytest.mark.parametrize("top, e", [(0.0, 0), (0.5, 0), (0.75, 0), (1.0, 1), (-3.0, 2),
                                        (2.0**-1074, -1073), (np.finfo(float).max, 1024)])
    def test_largest_entry_in_half_to_one(self, top, e):
        A = np.array([[top, 0.25 * top], [0.0, -0.5 * top]])
        assert densela.exponent(A) == e
        if top:
            assert 0.5 <= np.abs(np.ldexp(A, -e)).max() < 1.0

    def test_exponent_rejects_nan(self):
        with pytest.raises(NonFiniteEntry, match="W contains NaN or infinite entries"):
            densela.exponent(np.array([[1.0, np.nan]]), "W")

    def test_exponent_rejects_inf(self):
        for bad in (np.inf, -np.inf):
            with pytest.raises(NonFiniteEntry):
                densela.exponent(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [5, 13])  # a middle chunk, the last partial one
    def test_chunked_pass_rejects_non_finite(self, monkeypatch, bad, at):
        # A budget of 8 entries reads the 15 entries 4 at a time: a NaN or an
        # infinity in any chunk survives the reduction of the chunks.
        monkeypatch.setattr(densela, "BUDGET", 8)
        A = np.linspace(-1.0, 2.0, 15).reshape(3, 5)
        A.reshape(-1)[at] = bad
        with pytest.raises(NonFiniteEntry, match="M contains NaN or infinite entries"):
            densela.exponent(A, "M")
        with pytest.raises(NonFiniteEntry):
            densela.exponent(A.reshape(-1))

    def test_chunked_pass_matches_whole_max_and_min(self, monkeypatch):
        # Chunks of 4 entries over matrices and vectors of 0 to 19 entries,
        # whose largest magnitude sits in any chunk and is either sign, give
        # the exponent of the whole array's max and min; an empty one gives 0.
        rng = np.random.default_rng(8)
        monkeypatch.setattr(densela, "BUDGET", 8)
        assert densela.exponent(np.zeros((0, 3))) == densela.exponent(np.zeros(0)) == 0
        for size in range(1, 20):
            for at in range(size):
                A = rng.uniform(-1.0, 1.0, size)
                A[at] = rng.choice([-1.0, 1.0]) * np.ldexp(1.5, int(rng.integers(-50, 50)))
                want = int(np.frexp(max(A.max(), -A.min()))[1])
                assert densela.exponent(A) == want
                assert densela.exponent(A.reshape(1, -1)) == densela.exponent(A[:, None]) == want

    def test_unscale_raises_past_the_float_range(self):
        X = np.array([[0.75, 0.0], [np.nan, 0.5]])
        got = densela.unscale(X, 1024, "H")
        assert got[0, 0] == np.ldexp(0.75, 1024) and np.isnan(got[1, 0])
        with pytest.raises(NonFiniteEntry, match="H overflows"):
            densela.unscale(X, 1025, "H")


class TestValidation:
    def test_as_matrix_c_order(self):
        A = densela.as_matrix(np.asfortranarray(np.arange(6, dtype=float).reshape(2, 3)))
        assert A.flags.c_contiguous
        np.testing.assert_array_equal(A, np.arange(6).reshape(2, 3))

    def test_as_vector_rejects_2d(self):
        with pytest.raises(ValueError):
            densela.as_vector(np.eye(2))

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ValueError, match="must be 2-D, got ndim=1"):
            densela.as_matrix(np.ones(3))
