"""Seeded synthetic unmixing problems for the benchmark.

Every workload is a dictionary W = rand(m, r) + 0.05 and data columns
that each mix a few dictionary atoms with weights in [0.2, 1), plus
Gaussian noise of standard deviation 0.005, clipped at zero.  The program
under test only ever sees the CSV files written here.

The dictionary depends on the workload only, like a fixed library of
materials; the seed draws the columns (which atoms, their weights and
the noise).  A random dictionary per seed would move the relative error
by a factor of three and path lengths with it, which would swamp the
run-to-run comparison the benchmark exists for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

NOISE = 0.005


@dataclass(frozen=True)
class Workload:
    """One benchmark problem: shape, materials per column and CLI flags."""

    name: str
    m: int
    n: int
    r: int
    materials: tuple  # (fewest, most) atoms mixed into one column
    mode: str
    budget_per_column: int | None = None  # shamans: q = budget_per_column * n
    k: int | None = None  # ksparse
    map_shape: tuple | None = None  # (width, height) for --maps-dir

    @property
    def q(self):
        return None if self.budget_per_column is None else self.budget_per_column * self.n

    def mode_args(self) -> list:
        args = ["--mode", self.mode]
        if self.mode == "shamans":
            args += ["--budget", str(self.q)]
        elif self.mode == "ksparse":
            args += ["--k", str(self.k)]
        return args


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        "pixels-r6", m=200, n=2_500, r=6, materials=(1, 3), mode="shamans",
        budget_per_column=2),
    Workload(
        "dict-r24", m=200, n=2_000, r=24, materials=(2, 6), mode="ksparse",
        k=6),
    Workload(
        "tall-io", m=1_000, n=2_000, r=4, materials=(1, 3), mode="unconstrained",
        map_shape=(50, 40)),
]}


def generate(w: Workload, seed: int):
    """Return (M, W) for workload ``w``; the same seed gives the same arrays."""
    W = np.random.default_rng([w.m, w.r]).random((w.m, w.r)) + 0.05
    rng = np.random.default_rng([seed, w.m, w.n, w.r])
    lo, hi = w.materials
    # Equal shares of each count, shuffled: the total number of atoms, and
    # so what a budget of q buys, does not depend on the seed.
    count = rng.permutation(np.resize(np.arange(lo, hi + 1), w.n))
    # Rank random keys per column; the `count` smallest pick the atoms.
    rank = np.argsort(np.argsort(rng.random((w.r, w.n)), axis=0), axis=0)
    H0 = np.where(rank < count[None, :], rng.uniform(0.2, 1.0, (w.r, w.n)), 0.0)
    M = np.clip(W @ H0 + NOISE * rng.standard_normal((w.m, w.n)), 0.0, None)
    return M, W


def write_csv(A: np.ndarray, path) -> int:
    """Write A as headerless CSV with round-trip exact reals; returns bytes.

    ``repr`` of a float is the shortest string that parses back to the
    same double, so the program reads exactly the arrays kept in memory.
    """
    text = "".join(",".join(map(repr, row)) + "\n" for row in A.tolist())
    with open(path, "wt", encoding="ascii") as fh:
        fh.write(text)
    return os.path.getsize(path)


def write_inputs(w: Workload, seed: int, out_dir):
    """Generate and write W.csv and M.csv; returns (M, W, bytes written)."""
    M, W = generate(w, seed)
    os.makedirs(out_dir, exist_ok=True)
    size = write_csv(W, os.path.join(out_dir, "W.csv"))
    size += write_csv(M, os.path.join(out_dir, "M.csv"))
    return M, W, size
