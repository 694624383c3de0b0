"""Sparse multiple right-hand-sides nonnegative least squares.

Per column, a homotopy walk over the L1 penalty produces the whole
regularization path of the NNLS subproblem; a greedy selection then
spends a global nonzero budget across columns to assemble the solution
matrix.
"""

from . import densela, errors
from .homotopy import PathWalk, RegularizationPath, regularization_path
from .mnnls import MODES, SolveConfig, UnmixReport, metrics, solve
from .nnls import NnlsSolution, nnls_active_set, nnls_gram
from .selector import (CostTables, SelectionState, assemble,
                       build_cost_tables, init_gain, select, select_step)

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "CostTables",
    "NnlsSolution",
    "PathWalk",
    "RegularizationPath",
    "SelectionState",
    "SolveConfig",
    "UnmixReport",
    "assemble",
    "build_cost_tables",
    "densela",
    "errors",
    "init_gain",
    "metrics",
    "nnls_active_set",
    "nnls_gram",
    "regularization_path",
    "select",
    "select_step",
    "solve",
]
