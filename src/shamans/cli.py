"""Command-line front end: CSV matrices in, CSV/JSON/PGM out.

Matrix files are headerless comma-separated reals, one matrix row per
line.  Input data must be nonnegative; negative entries are rejected
rather than clamped so corrupt inputs stay visible.  Exit codes: 0 on
success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from .errors import (NegativeEntry, NonFiniteEntry, ParseError, RaggedRows,
                     ShamansError, ShapeMismatch)
from .mnnls import SolveConfig, UnmixReport, solve


class UsageError(Exception):
    """Bad flags or flag combinations; mapped to exit code 1."""


def read_csv_matrix(path) -> np.ndarray:
    """Load a headerless CSV of nonnegative reals as a row-major matrix.

    One vectorized read parses the file.  Input it rejects, and input
    with no rows or with a non-finite or negative entry, is read again
    by ``_scan_csv_matrix``, which accepts what ``float`` accepts and
    raises the first error with its line and column.  ``comments=None``
    keeps a ``#`` from turning the rest of its line into a comment.
    """
    try:
        with open(path, "rt", encoding="ascii") as fh, warnings.catch_warnings():
            # An input without rows is rescanned below, which raises.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            A = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:  # also UnicodeDecodeError
        return _scan_csv_matrix(path)
    if A.size == 0 or not np.isfinite(A).all() or (A < 0.0).any():
        return _scan_csv_matrix(path)
    return A


def _scan_csv_matrix(path) -> np.ndarray:
    """Line-by-line read of a matrix file, token by token with ``float``."""
    rows = []
    width = None
    # A byte outside ASCII, a UTF-8 byte order mark's too, reaches float as
    # a lone surrogate, which it refuses: the error names the field.
    with open(path, "rt", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            vals = []
            for col_no, tok in enumerate(line.split(","), start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise ParseError(f"{path}:{line_no}:{col_no}: "
                                     f"cannot parse {tok.strip()!r} as a real",
                                     line=line_no, column=col_no) from None
                if not math.isfinite(v):
                    raise NonFiniteEntry(f"{path}:{line_no}:{col_no}: "
                                         "entry is not finite",
                                         line=line_no, column=col_no)
                if v < 0.0:
                    raise NegativeEntry(f"{path}:{line_no}:{col_no}: "
                                        "negative entry in nonnegative data",
                                        line=line_no, column=col_no)
                vals.append(v)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise RaggedRows(f"{path}:{line_no}: row has {len(vals)} "
                                 f"entries, expected {width}", line=line_no)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no matrix rows found", line=1, column=1)
    return np.array(rows, dtype=np.float64)


def write_csv_matrix(H: np.ndarray, path) -> None:
    """Write a matrix in the same CSV format, 17 significant digits."""
    with open(path, "wt", encoding="ascii") as fh:
        np.savetxt(fh, H, fmt="%.17g", delimiter=",")


def write_report_json(report: UnmixReport, path) -> None:
    """Write the solve report as a small strict JSON object: a field that is
    a float but not finite (``last_gain`` past the float range, the NaN
    ``kkt_violation`` of a column that is not finite) is written as null."""
    data = {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in dataclasses.asdict(report).items()}
    with open(path, "wt", encoding="ascii") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
        fh.write("\n")


def export_abundance_maps(H: np.ndarray, width: int, height: int, out_dir) -> None:
    """Write one grayscale PGM (P5) per row of H, reshaped row-major.

    Each image is scaled so the row maximum maps to 255, rounding half
    up; an all-zero row yields an all-black image.
    """
    H = np.asarray(H)
    r, n = H.shape
    _check_map_shape(width, height, n)
    os.makedirs(out_dir, exist_ok=True)
    for i in range(r):
        row = H[i, :]
        peak = float(row.max(initial=0.0))
        if peak > 0.0:
            pixels = np.floor(row / peak * 255.0 + 0.5).astype(np.uint8)
        else:
            pixels = np.zeros(n, dtype=np.uint8)
        img = pixels.reshape(height, width)
        with open(os.path.join(out_dir, f"abundance_{i:03d}.pgm"), "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(img.tobytes())


def _check_map_shape(width: int, height: int, n: int) -> None:
    if not (width > 0 and height > 0):  # a product alone lets (-2)(-3) = 6 pass
        raise ShapeMismatch(f"map sizes must be positive, got {width} x {height}")
    if width * height != n:
        raise ShapeMismatch(f"width*height = {width * height} but H has {n} columns")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="shamans",
                description="Sparse multiple right-hand-sides nonnegative "
                            "least squares.")
    p.add_argument("--dict", dest="dict_path", required=True,
                   help="CSV file with the m x r dictionary W")
    p.add_argument("--data", dest="data_path", required=True,
                   help="CSV file with the m x n data matrix M")
    p.add_argument("--out", dest="out_path", required=True,
                   help="output CSV file for the r x n solution H")
    p.add_argument("--mode", required=True,
                   choices=["shamans", "ksparse", "unconstrained"],
                   help="sparsity regime")
    p.add_argument("--budget", type=int, default=None,
                   help="total nonzero budget q (shamans mode)")
    p.add_argument("--k", type=int, default=None,
                   help="per-column sparsity k (ksparse mode)")
    p.add_argument("--strict-budget", action="store_true",
                   help="never exceed the budget q, even on the last step")
    p.add_argument("--report", dest="report_path", default=None,
                   help="optional JSON report output path")
    p.add_argument("--maps-dir", default=None,
                   help="optional directory for per-row PGM abundance maps")
    p.add_argument("--map-width", type=int, default=None,
                   help="image width for --maps-dir (width*height must equal n)")
    p.add_argument("--map-height", type=int, default=None,
                   help="image height for --maps-dir")
    return p


def _solve_config(args) -> SolveConfig:
    """The flags' SolveConfig; UsageError or SolveConfig's ValueError on bad flags."""
    needed = {"shamans": "budget", "ksparse": "k"}.get(args.mode)
    for flag in ("budget", "k"):
        given = getattr(args, flag) is not None
        if given != (flag == needed):
            raise UsageError(f"--{flag} does not apply to {args.mode} mode" if given
                             else f"--mode {args.mode} requires --{flag}")
    if args.strict_budget and args.mode != "shamans":
        raise UsageError(f"--strict-budget does not apply to {args.mode} mode")
    sizes = (args.map_width, args.map_height)
    if args.maps_dir is None:
        if any(size is not None for size in sizes):
            raise UsageError("--map-width and --map-height apply only with --maps-dir")
    elif not all(size is not None and size > 0 for size in sizes):
        raise UsageError("--maps-dir requires a positive --map-width and --map-height")
    return SolveConfig(mode=args.mode, q=args.budget, k=args.k, strict_budget=args.strict_budget)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _solve_config(args)
    except (UsageError, ValueError) as exc:  # ValueError: a value SolveConfig rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        clock = time.perf_counter()
        W = read_csv_matrix(args.dict_path)
        M = read_csv_matrix(args.data_path)
        read_ms = (time.perf_counter() - clock) * 1e3
        if args.maps_dir is not None:  # fail before any output is written
            _check_map_shape(args.map_width, args.map_height, M.shape[1])
        H, report = solve(M, W, cfg)
        report.timings_ms = {"read": read_ms, **report.timings_ms}
        write_csv_matrix(H, args.out_path)
        if args.report_path is not None:
            write_report_json(report, args.report_path)
        if args.maps_dir is not None:
            export_abundance_maps(H, args.map_width, args.map_height,
                                  args.maps_dir)
    except (ShamansError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    raise SystemExit(main())
