"""Active-set solver for nonnegative least squares, many right-hand sides at once.

Lawson-Hanson on the normal-equation data P = A.T A and ell = A.T b: an
outer loop moves the most negative gradient coordinate into the passive
(free) set, and an inner loop restores feasibility when the least-squares
solution on the passive set goes negative.  As in the fast combinatorial
NNLS of Van Benthem and Keenan (J. Chemometrics 2004), a block of
right-hand sides runs through one loop in lockstep.  A passive set gains
or loses one index at a time (Lawson and Hanson, Solving Least Squares
Problems, 1974, ch. 23), so each row carries the inverse of P on it by
densela.carry_inverse, in slot coordinates, and nothing is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (TOL, as_matrix, as_vector, carry_inverse, exponent, gram, reduce_rows,
                      support_solve, unscale)
from .errors import IterationLimit


@dataclass(frozen=True)
class NnlsSolution:
    """Solution of min ||Ax - b||^2 subject to x >= 0.

    ``x`` is zero exactly outside ``support`` (entries below the solver's
    coefficient floor are snapped to 0), and ``residual_sq`` is ||Ax - b||^2.
    """

    x: np.ndarray
    support: np.ndarray
    residual_sq: float


def nnls_gram(P: np.ndarray, ell: np.ndarray, mask: np.ndarray | None = None,
              start: tuple | None = None) -> np.ndarray:
    """Active-set NNLS given normal-equation data only.

    Solves min ||Ax - b||^2 s.t. x >= 0 where P = A.T A and ell = A.T b,
    for one right-hand side (``ell`` of shape (r,)) or a block of them
    (``ell`` of shape (B, r), one row each; the result has ell's shape).
    Row i of the optional (B, r) boolean ``mask`` confines row i to the
    unknowns mask[i], the rest staying 0: the problem on P(mask_i, mask_i).

    Each row starts from the empty passive set or, given ``start`` =
    (G, atoms, Z), from Z[i], the least-squares solution on its mask (zero
    off it), with P(mask_i, mask_i)^-1 in densela.carry_inverse's slot
    layout as G and atoms (any slot order, k at least each row's mask
    size): nonpositive entries are dropped and the rest solved again until
    the solution is feasible.  G (float64) and atoms are the solver's
    working stacks, carried in place: on return row i holds P^-1 on the
    support of its solution.  Ties on the entering variable break toward
    the smallest index.

    An entering atom whose update carry_inverse finds unsound (its rank
    rule) would make the passive set rank deficient, so it is barred for
    the row, which goes on without it, until the row's passive set next
    changes.
    Raises IterationLimit, whose ``row`` names the row, once a row makes
    more than 10 k (k+1) pivots, k the size of its mask (cycling or heavy
    degeneracy).  A gradient coordinate enters above TOL max|ell|, and a
    coefficient below TOL max|ell| / max|P| counts as zero, both over the
    row's mask (max|P| its largest diagonal entry of P), so rescaling P
    and ell by powers of two repeats every decision.  Coefficients that
    end below that floor are set to zero and the rest solved again, so the
    result stays a stationary refit.
    """
    L = np.atleast_2d(ell)
    n, r = L.shape
    mask = np.ones(L.shape, dtype=bool) if mask is None else np.atleast_2d(mask)
    grad_floor = TOL * reduce_rows(np.maximum, np.abs(np.where(mask, L, 0.0)), initial=0.0)
    p_max = reduce_rows(np.maximum, np.where(mask, np.diagonal(P), 0.0), initial=0.0)
    floor = np.divide(grad_floor, p_max, out=np.zeros(n), where=p_max > 0.0)
    size = reduce_rows(np.add, mask)
    max_pivots = 10 * size * (size + 1)
    pivots = np.zeros(n, dtype=np.int64)
    X = np.zeros(L.shape)
    passive = np.zeros(L.shape, dtype=bool) if start is None else mask.copy()
    barred = np.zeros(L.shape, dtype=bool)  # atoms each row bars until its passive set changes
    k = int(size.max(initial=0))
    G, atoms, Z = (np.zeros((n, k, k)), np.full((n, k), r), X) if start is None else start
    Z = np.reshape(Z, L.shape)
    atoms = np.asarray(atoms).reshape(n, -1)  # carried in place
    G = np.asarray(G, dtype=np.float64).reshape(atoms.shape + atoms.shape[1:])
    Pz, Lz = np.zeros((r + 1, r + 1)), np.zeros((n, r + 1))  # carry_inverse's layout
    Pz[:r, :r], Lz[:, :r] = P, L

    def feasible(rows, Z):
        """Z, the rows' nonpositive passive entries in it, and which rows
        have none."""
        neg = passive.take(rows, axis=0) & (Z <= 0.0)
        return Z, neg, ~reduce_rows(np.logical_or, neg)

    def solve_on(rows):
        """feasible() of the least squares on the rows' passive sets."""
        if not rows.size:  # the loops below end on no rows: solve nothing
            return feasible(rows, X.take(rows, axis=0))
        return feasible(rows, support_solve(Pz, G.take(rows, axis=0), atoms.take(rows, axis=0),
                                            Lz.take(rows, axis=0)[:, None])[:, 0, :r])

    def settle(rows, Z, neg, ok):
        """Write the feasible rows' solutions to X; returns the other rows,
        with their Z and neg."""
        done, rest = np.flatnonzero(ok), np.flatnonzero(~ok)
        X[rows.take(done)] = Z.take(done, axis=0)
        return rows.take(rest), Z.take(rest, axis=0), neg.take(rest, axis=0)

    def nonempty(rows):
        """The rows whose passive set is not empty."""
        return rows[reduce_rows(np.logical_or, passive.take(rows, axis=0))]

    def carry(rows, index, enter):
        """Move index[i] into or out of row rows[i]'s passive set, or bar an
        entering atom whose update is unsound; returns the rows that moved."""
        g, a, sound = carry_inverse(Pz, G.take(rows, axis=0), atoms.take(rows, axis=0),
                                    np.full(rows.size, enter), index)
        if not sound.all():
            barred[rows[~sound], index[~sound]] = True
            keep = np.flatnonzero(sound)
            rows, index, g, a = (x.take(keep, axis=0) for x in (rows, index, g, a))
        G[rows], atoms[rows] = g, a
        passive.reshape(-1)[rows * r + index] = enter
        barred[rows] = False
        return rows

    def drop(rows, out):
        """Drop the entries marked in ``out``, one index per downdate."""
        while rows.size:
            first = out.argmax(axis=1)
            carry(rows, first, False)
            out.reshape(-1)[np.arange(rows.size) * r + first] = False
            keep = np.flatnonzero(reduce_rows(np.logical_or, out))
            rows, out = rows.take(keep), out.take(keep, axis=0)

    def count_pivots(rows, added):
        pivots[rows] += added
        over = rows[pivots[rows] > max_pivots[rows]]
        if over.size:
            raise IterationLimit(f"row {over[0]} exceeded its pivot limit {max_pivots[over[0]]}",
                                 row=int(over[0]))

    # Warm start: drop nonpositive coefficients until the solve is feasible.
    rows = np.flatnonzero(reduce_rows(np.logical_or, passive))
    rows, _, neg = settle(rows, *feasible(rows, Z.take(rows, axis=0)))
    while rows.size:
        drop(rows, neg)
        rows = nonempty(rows)
        rows, _, neg = settle(rows, *solve_on(rows))

    live = np.arange(n)
    while True:
        free = mask.take(live, axis=0) & ~(passive | barred).take(live, axis=0)
        w = np.where(free, L.take(live, axis=0) - X.take(live, axis=0) @ P.T, -np.inf)
        entering = w.argmax(axis=1)  # first maximum, i.e. smallest index
        grow = w.take(np.arange(live.size) * r + entering) > grad_floor[live]
        live = live[grow]
        if not live.size:
            break
        rows = carry(live, entering[grow], True)
        count_pivots(rows, 1)
        while rows.size:
            rows, Z, neg = settle(rows, *solve_on(rows))
            if not rows.size:
                break
            # Walk toward Z until the first passive coordinate hits zero.
            x = X.take(rows, axis=0)
            denom = x - Z
            steps = np.where(denom > 0.0, x / np.where(denom > 0.0, denom, 1.0), 0.0)
            alpha = reduce_rows(np.minimum, np.where(neg, steps, np.inf))
            x += alpha[:, None] * (Z - x)
            out = passive.take(rows, axis=0) & (x <= floor.take(rows)[:, None])
            x[out] = 0.0
            X[rows] = x
            count_pivots(rows, reduce_rows(np.add, out))
            drop(rows, out)
            rows = nonempty(rows)

    snapped = (X != 0.0) & (X < floor[:, None])
    if snapped.any():
        # Zeroing a coefficient moves the others' optimum: refit on the rest.
        X[snapped] = 0.0
        rows = np.flatnonzero(reduce_rows(np.logical_or, snapped))
        drop(rows, snapped.take(rows, axis=0))
        rows = nonempty(rows)
        settle(rows, *solve_on(rows))
    return X.reshape(np.shape(ell))


def nnls_active_set(A, b) -> NnlsSolution:
    """Solve min ||Ax - b||^2 subject to x >= 0.

    It solves on A 2^-a and b 2^-b (densela.exponent, as PathWalk), so A
    and b may come in any units; x and residual_sq are scaled back
    (densela.unscale), and ``support`` is the solver's, underflow or not.
    """
    A, b = as_matrix(A, "A"), as_vector(b, "b")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]}")
    ea, eb = exponent(A, "A"), exponent(b, "b")
    A, b = np.ldexp(A, -ea), np.ldexp(b, -eb)
    x = nnls_gram(gram(A), A.T @ b)
    resid = A @ x - b
    return NnlsSolution(x=unscale(x, eb - ea, "x"), support=np.flatnonzero(x > 0.0),
                        residual_sq=float(unscale(resid @ resid, 2 * eb, "the residual")))
