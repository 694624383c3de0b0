"""Budgeted selection of one path solution per column.

From per-column regularization paths, build a cost table C whose entry
(k, j) is the best known error of a solution for column j with at most k
nonzeros, then spend a global nonzero budget greedily: at every step pick
the cursor advance with the largest error decrease per added nonzero.
Because columns do not interact in the objective, the greedy selection is
optimal at every total it reaches among the tabled solutions.

A column's greedy advances follow the lower convex hull of its cost
curve, so the global greedy is one merge of all columns' hull segments
by decreasing gain (marginal analysis: Fox, "Discrete optimization via
marginal analysis", Management Sci. 1966): init_gain sorts the segments
once, and the picks are a prefix of them.  select takes at once every
segment of that prefix that leaves part of the budget unspent, and
select_step, the one-step primitive, makes the rest: the pick that
reaches q and, in strict mode, the advances that still fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingZeroEntry
from .homotopy import RegularizationPath


@dataclass
class CostTables:
    """Per-column, per-sparsity-level costs and the solutions behind them.

    ``cost`` has r+1 rows for sparsity levels 0..r and is nonincreasing
    down each column.  ``solutions`` is the (E, r) matrix of every path
    entry's solution, one row per entry, the columns' paths concatenated
    in path order, and ``source[k, j]`` indexes the row behind cost[k, j]:
    the first entry of column j's path with at most k nonzeros that
    attains the cell's minimum.  ``delta[k-1, j] = cost[k-1, j] - cost[k, j]``.
    """

    cost: np.ndarray
    source: np.ndarray
    solutions: np.ndarray

    @property
    def levels(self) -> int:
        return self.cost.shape[0] - 1

    @property
    def columns(self) -> int:
        return self.cost.shape[1]

    @property
    def delta(self) -> np.ndarray:
        return self.cost[:-1] - self.cost[1:]


@dataclass
class SelectionState:
    """Mutable state of the greedy budget loop.

    ``cursors[j]`` is the sparsity level currently selected for column j
    and ``nnz_total`` their sum.  ``segments`` holds every column's hull
    segments, one (level, column) row each, in greedy order, and
    ``sizes`` the number of nonzeros each adds to its column; ``position``
    is the index of the next one to take.  ``picks`` counts the steps
    taken and ``last_pick`` is the last as (column, level before, level
    after).
    """

    cursors: np.ndarray
    nnz_total: int
    segments: np.ndarray
    sizes: np.ndarray
    position: int = 0
    picks: int = 0
    last_pick: tuple | None = None


def build_cost_tables(paths: list[RegularizationPath], r: int, n: int) -> CostTables:
    """Fold per-column paths into the (r+1) x n cost table.

    Cell (k, j) holds the best error among column j's path solutions with
    at most k nonzeros, so columns are nonincreasing by construction.  The
    paths' error and solution fields are concatenated once and each
    entry's level is its solution's number of nonzeros: one scatter takes
    every level's minimum, then one carry down the levels extends it to
    "at most k", keeping the entry earlier in path order on ties.
    """
    if len(paths) != n:
        raise ValueError(f"expected {n} paths, got {len(paths)}")
    column = np.repeat(np.arange(n), [len(path.entries) for path in paths])
    # Field by field: concatenating the records would resolve their dtype per path.
    err, solutions = (np.concatenate([path.entries[name] for path in paths])
                      for name in ("error_sq", "solution"))
    card = np.count_nonzero(solutions, axis=1)
    first = np.flatnonzero(np.diff(column, prepend=-1))  # of every nonempty path
    bad = np.ones(n, dtype=bool)
    bad[column[first]] = card[first] != 0
    if bad.any():
        raise MissingZeroEntry(f"path for column {bad.argmax()} lacks the zero-solution entry")
    cost = np.full((r + 1, n), np.inf)
    np.minimum.at(cost, (card, column), err)
    source = np.full((r + 1, n), card.size)
    attains = np.flatnonzero(err == cost[card, column])
    np.minimum.at(source, (card[attains], column[attains]), attains)
    for k in range(1, r + 1):
        carry = (cost[k - 1] < cost[k]) | ((cost[k - 1] == cost[k])
                                           & (source[k - 1] < source[k]))
        cost[k, carry] = cost[k - 1, carry]
        source[k, carry] = source[k - 1, carry]
    return CostTables(cost=cost, source=source, solutions=solutions)


def gain_table(delta: np.ndarray, cursors: np.ndarray) -> np.ndarray:
    """Mean error decrease per nonzero of every cursor advance.

    Entry (i, j) is sum(delta[cursor_j:i+1, j]) / (i+1 - cursor_j) for
    levels i+1 above column j's cursor and 0 at or below it.
    """
    rows = np.arange(delta.shape[0])[:, None]
    return (np.cumsum(np.where(rows >= cursors, delta, 0.0), axis=0)
            / np.maximum(rows + 1 - cursors, 1))


def init_gain(tables: CostTables) -> SelectionState:
    """Selection state with all cursors at zero and the segments sorted.

    Column j's greedy advances, each to the first level of largest gain
    while that gain is positive, trace the lower convex hull of its cost
    curve.  They depend on no other column, so all columns walk them at
    once, one advance per round.  Roundoff can give a segment a larger
    gain than an earlier one of its column; the greedy then takes it
    right after that earlier one, so a segment's sort key is the running
    minimum of its column's gains.  One stable sort by -key of the
    segments listed column by column, in order within each, interleaves
    the columns exactly as the greedy does.
    """
    delta = tables.delta
    r, n = delta.shape
    cursors = np.zeros(n, dtype=np.int64)
    levels = np.zeros((r, n), dtype=np.int64)  # 0: no k-th segment
    gains = np.zeros((r, n))
    active = np.arange(n)
    for k in range(r):
        G = gain_table(delta[:, active], cursors[active])
        rows = np.argmax(G, axis=0)
        best = G[rows, np.arange(active.size)]
        keep = best > 0.0
        active, rows = active[keep], rows[keep]
        gains[k, active] = best[keep]
        cursors[active] = levels[k, active] = rows + 1
    j, k = np.nonzero(levels.T)  # by column, then in order within it
    order = np.argsort(-np.minimum.accumulate(gains, axis=0)[k, j], kind="stable")
    j, k = j[order], k[order]
    # A column has a segment in every round up to its last: row k-1 holds
    # the level its k-th segment starts from.
    sizes = np.diff(levels, axis=0, prepend=0)[k, j]
    return SelectionState(cursors=np.zeros(n, dtype=np.int64), nnz_total=0,
                          segments=np.column_stack((levels[k, j], j)), sizes=sizes)


def _best_fitting(delta: np.ndarray, cursors: np.ndarray, remaining: int):
    """(level, column) of the best positive gain among advances of at
    most ``remaining`` nonzeros, or None."""
    r, n = delta.shape
    allowed = np.arange(1, r + 1)[:, None] <= cursors + remaining
    masked = np.where(allowed, gain_table(delta, cursors), -np.inf)
    rows = np.argmax(masked, axis=0)
    vals = masked[rows, np.arange(n)]
    j = int(np.argmax(vals))
    if vals[j] <= 0.0:
        return None
    return int(rows[j]) + 1, j


def select_step(state: SelectionState, tables: CostTables, q: int,
                strict: bool = False):
    """Perform one greedy pick; returns (level, column) or None when done.

    Takes the next hull segment: the advance of largest mean error
    decrease per added nonzero (ties: smaller column, then smaller level).
    In strict mode, once fewer than r nonzeros remain, it takes instead
    the best advance that still fits, and stops when no positive one
    does, so the budget is never exceeded.  Once strict picks have moved
    cursors off the segments, every pick is the best advance from the
    cursors, one that fits in strict mode.  In default mode the final
    pick may overshoot q by at most r - 1.
    """
    if state.nnz_total >= q:
        return None
    remaining = q - state.nnz_total
    off = state.nnz_total != state.sizes[:state.position].sum()  # strict picks moved cursors
    if off or (strict and remaining < tables.levels):
        found = _best_fitting(tables.delta, state.cursors,
                              remaining if strict else tables.levels)
        if found is None:
            return None
        level, j = found
    elif state.position < len(state.segments):
        level, j = state.segments[state.position].tolist()
        state.position += 1
    else:
        return None
    start = int(state.cursors[j])
    state.nnz_total += level - start
    state.cursors[j] = level
    state.picks += 1
    state.last_pick = (j, start, level)
    return level, j


def select(state: SelectionState, tables: CostTables, q: int,
           strict: bool = False) -> np.ndarray:
    """Spend the nonzero budget q greedily; returns the final cursors.

    Leaves ``state`` as repeated select_step calls would.  The segments
    that leave at least one nonzero of q unspent (r in strict mode, which
    below that takes the advances that fit) are taken at once, and
    select_step makes the rest, at most r picks.  Once strict picks have
    moved cursors off the segments, select_step makes every pick.
    """
    if q < 0:
        raise ValueError("budget must be nonnegative")
    start, sizes = state.position, state.sizes
    if state.nnz_total == sizes[:start].sum():  # no strict pick moved a cursor
        spent = state.nnz_total + np.cumsum(sizes[start:])
        count = int(np.searchsorted(spent, q - (tables.levels if strict else 1),
                                    side="right"))
        if count:
            taken = state.segments[start:start + count]
            np.maximum.at(state.cursors, taken[:, 1], taken[:, 0])
            level, j = taken[-1].tolist()
            state.nnz_total = int(spent[count - 1])
            state.position += count
            state.picks += count
            state.last_pick = (j, level - int(sizes[start + count - 1]), level)
    while select_step(state, tables, q, strict=strict) is not None:
        pass
    return state.cursors


def assemble(tables: CostTables, cursors: np.ndarray) -> np.ndarray:
    """Stack the selected per-column solutions into the r x n matrix."""
    return tables.solutions[tables.source[cursors, np.arange(tables.columns)]].T
