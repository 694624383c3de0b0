"""Output checks applied to every benchmark solve.

A check returns a list of failure messages; an empty list means the
output is correct.  The checks hold for any correct solver, not only the
current one: H has the right shape and sign, every column is a
stationary least-squares refit on its own support, the sparsity regime
is respected, and the reported error matches the written matrices.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The solver's tolerance (SolveConfig.tol and the CLI's --tol default).
SOLVER_TOL = 1e-10
REL_ERROR_TOL = 1e-9


def check_solution(M, W, H, mode, q=None, k=None, tol=SOLVER_TOL) -> list:
    """Check an r x n solution H of min ||M - WH|| under ``mode``.

    Stationarity is judged per column against what one coefficient below
    the solver's threshold tol * (1 + max|W^T m|) can do: the active-set
    refit sets such coefficients to zero without solving again, which
    moves the support's gradient by up to max|W^T W| times the threshold.
    Most columns sit at roundoff (about 1e-15 relative); a coefficient
    perturbed by one part in a million is caught.
    """
    r, n = W.shape[1], M.shape[1]
    H = np.asarray(H, dtype=np.float64)
    if H.shape != (r, n):
        return [f"H has shape {H.shape}, expected {(r, n)}"]
    if not np.all(np.isfinite(H)):
        return ["H has non-finite entries"]
    failures = []
    if H.min() < 0.0:
        failures.append(f"H has a negative entry {H.min():.3g}")
    grad = W.T @ (W @ H - M)
    grad_tol = float(np.abs(W.T @ W).max()) * tol \
        * (1.0 + np.abs(W.T @ M).max(axis=0))
    excess = np.abs(H * grad).max(axis=0) \
        / (np.maximum(np.abs(H).max(axis=0), np.finfo(float).tiny) * grad_tol)
    j = int(np.argmax(excess))
    if excess[j] > 1.0:
        failures.append(f"column {j} is not a stationary refit on its support "
                        f"(|H o grad| = {float(np.abs(H[:, j] * grad[:, j]).max()):.3g})")
    nnz_col = np.count_nonzero(H, axis=0)
    if mode == "shamans":
        nnz = int(nnz_col.sum())
        if not q <= nnz <= q + r - 1:
            failures.append(f"nnz {nnz} outside [q, q+r-1] = [{q}, {q + r - 1}]")
    elif mode == "ksparse":
        if int(nnz_col.max()) > k:
            failures.append(f"a column has {int(nnz_col.max())} nonzeros > k={k}")
    elif mode == "unconstrained":
        j = int(np.argmin((grad / grad_tol).min(axis=0)))
        if float(grad[:, j].min()) < -grad_tol[j]:
            failures.append(f"column {j} is not the NNLS optimum "
                            f"(gradient {grad[:, j].min():.3g})")
    return failures


def relative_error(M, W, H) -> float:
    return float(np.linalg.norm(M - W @ H) / np.linalg.norm(M))


def check_cli_outputs(out_dir, M, W, mode, q=None, k=None, map_shape=None):
    """Check H.csv, report.json and the PGM maps a CLI run wrote.

    Returns (failures, rel_error recomputed from the written H).
    """
    try:
        H = np.loadtxt(os.path.join(out_dir, "H.csv"), delimiter=",", ndmin=2)
        with open(os.path.join(out_dir, "report.json"), encoding="ascii") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    failures = check_solution(M, W, H, mode, q=q, k=k)
    if failures:
        return failures, None
    rel = relative_error(M, W, H)
    if abs(report.get("rel_error", np.inf) - rel) > REL_ERROR_TOL * max(rel, 1e-300):
        failures.append(f"report rel_error {report.get('rel_error')} != "
                        f"recomputed {rel!r}")
    if map_shape is not None:
        failures += _check_maps(os.path.join(out_dir, "maps"), H, map_shape)
    return failures, rel


def _check_maps(maps_dir, H, map_shape) -> list:
    width, height = map_shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    failures = []
    for i in range(H.shape[0]):
        path = os.path.join(maps_dir, f"abundance_{i:03d}.pgm")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            failures.append(f"missing map: {exc}")
            continue
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
        if not data.startswith(header) or pixels.size != width * height:
            failures.append(f"{path}: bad PGM header or size")
        elif H[i].max() > 0 and pixels.max() != 255:
            failures.append(f"{path}: row maximum does not map to 255")
    return failures
