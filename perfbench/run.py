"""Benchmark of the shamans solver, driven from outside the package.

    python3 perfbench/run.py --workload pixels-r6|dict-r24|tall-io|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src``
and nothing is installed.  The inputs are generated from the seed and
written as CSV; the program sees only those files.  Every CLI run and
every solve is checked (see checks.py) and a failed check counts as a
failed operation.  The measurement loop is closed: one operation at a
time, from one process pinned to one CPU, each started when the
previous one ended.

``--trace 0`` reports the end-to-end metrics:
  run_s             median time of ``shamans.cli.main`` in a fresh
                    process: read CSVs, solve, write H, report and maps
  solve_cols_per_s  n / median time of ``shamans.solve`` in memory
  setup_s           median time for a fresh interpreter to import
                    shamans and solve the bundled demo problem
  peak_rss_mb       median peak resident memory of a CLI process
  rel_error         relative Frobenius error, recomputed from the output
  success_rate      operations that passed every check / attempted
``--trace 1`` alternates untraced and traced in-process CLI runs and
reports the per-layer metrics of tracer.py plus ``trace.overhead_s``,
the median of traced minus untraced run time over adjacent pairs.

Every time is a wall-clock median scaled to the reference speed (see
ReferenceClock and calibrate.py); the wall-clock medians and the factor
are printed and kept in the results file.  The last line of standard
output is one JSON object; a results file with the run's environment
goes to ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    # One CPU for the benchmark and every process it starts, chosen before
    # numpy loads so that BLAS starts a single thread.  On a shared virtual
    # machine the CPUs run at speeds that differ and swap within seconds;
    # a process the scheduler moves between them times a mix of both.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO = ROOT / "demo"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150

UNITS = {
    "run_s": "s",
    "solve_cols_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_error": "ratio",
    "success_rate": "ratio",
}


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"{what}: {msg}" for msg in failures[:3]]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args):
    """Run worker.py with ``args``; returns (result dict or None, error)."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(lines[-1]), None


def cli_argv(w, in_dir, out_dir):
    argv = ["--dict", os.path.join(in_dir, "W.csv"),
            "--data", os.path.join(in_dir, "M.csv"),
            "--out", os.path.join(out_dir, "H.csv"),
            "--report", os.path.join(out_dir, "report.json"), *w.mode_args()]
    if w.map_shape is not None:
        argv += ["--maps-dir", os.path.join(out_dir, "maps"),
                 "--map-width", str(w.map_shape[0]),
                 "--map-height", str(w.map_shape[1])]
    return argv


def fresh_dir(parent, name):
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def check_cli(w, M, W, out_dir, code, tally, what, extra=()):
    """Check one CLI run, record it in ``tally``; returns its rel_error."""
    failures, rel = [f"exit code {code}"], None
    if code == 0:
        failures, rel = checks.check_cli_outputs(out_dir, M, W, w.mode, q=w.q,
                                                 k=w.k, map_shape=w.map_shape)
    tally.record(what, failures + list(extra))
    return rel


def measure_end_to_end(w, M, W, tmp, seconds, tally):
    from shamans import SolveConfig, solve

    clock = ReferenceClock()
    setup_s, run_s, rss, solve_s, rel_errors = [], [], [], [], []
    cfg = SolveConfig(mode=w.mode, q=w.q, k=w.k)

    def setup_step():
        res, err = clock.run(
            lambda: run_child(["setup", str(DEMO), fresh_dir(tmp, "setup")]))
        if res is not None and res["exit_code"]:
            err = f"exit code {res['exit_code']}"
        tally.record("setup", [err] if err else [])
        if not err:
            setup_s.append(res["setup_s"])
        return True

    def cli_step():
        out_dir = fresh_dir(tmp, "out")
        res, err = clock.run(lambda: run_child(["cli", *cli_argv(w, tmp, out_dir)]))
        if err:
            tally.record("cli", [err])
            return False
        run_s.append(res["run_s"])
        rss.append(res["peak_rss_mb"])
        rel = check_cli(w, M, W, out_dir, res["exit_code"], tally, "cli")
        if rel is not None:
            rel_errors.append(rel)
        return True

    def timed_solve():
        t0 = time.perf_counter()
        try:
            H, _ = solve(M, W, cfg)
        except Exception as exc:  # any solver exception is a failed operation
            return None, repr(exc), 0.0
        return H, None, time.perf_counter() - t0

    def solve_step():
        H, err, elapsed = clock.run(timed_solve)
        if err:
            tally.record("solve", [err])
            return True
        solve_s.append(elapsed)
        tally.record("solve", checks.check_solution(M, W, H, w.mode, q=w.q, k=w.k))
        return True

    # Set-up runs are spread over the run like the rest, so the reference
    # timings taken throughout the run describe them too.
    steps = itertools.cycle([setup_step, cli_step, solve_step])
    repeat_for(seconds, lambda: next(steps)(), min_calls=3)
    speed = clock.speed()
    metrics = {
        "run_s": median(run_s) * speed,
        "solve_cols_per_s": w.n / (median(solve_s) * speed) if solve_s else 0.0,
        "setup_s": median(setup_s) * speed,
        "peak_rss_mb": median(rss),
        "rel_error": median(rel_errors),
        "success_rate": (tally.attempted - tally.failed) / max(tally.attempted, 1),
    }
    samples = {"run_s": run_s, "solve_s": solve_s, "setup_s": setup_s,
               "peak_rss_mb": rss, "reference_s": clock.samples}
    return metrics, UNITS, samples, speed


class ReferenceClock:
    """Times the reference task of calibrate.py after every measurement.

    ``speed`` is calibrate.NOMINAL_S over the mean of those timings, the
    factor that turns this run's wall times into seconds at the speed the
    benchmark was tuned at.  The machine's speed drifts by a fifth and
    more between runs a minute apart; the task samples it throughout the
    run, on the same CPU as the program, and never calls the program, so
    a change to the program shows in full.  The mean and not the median:
    the CPU switches between a fast and a slow state within seconds, and
    a measurement of a second or more averages over both.
    """

    def __init__(self):
        self.samples = []

    def run(self, measure):
        """Return ``measure()``, then time the reference task once."""
        result = measure()
        self.samples.append(calibrate.reference_s())
        return result

    def speed(self) -> float:
        return calibrate.NOMINAL_S / statistics.fmean(self.samples)


def repeat_for(seconds, step, min_calls=1):
    """Call ``step`` at least ``min_calls`` times, then until ``seconds``
    have passed; stop early when it returns False.

    A step that would end more than half past ``seconds`` (judged by the
    longest step so far) is not started, so a run ends close to
    ``seconds`` even when one step takes several seconds.
    """
    start = time.perf_counter()
    longest = 0.0
    for calls in itertools.count(1):
        t0 = time.perf_counter()
        more = step()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if not more or (calls >= min_calls and now - start + longest / 2 > seconds):
            return


def median(values):
    """Median, or 0.0 when every attempt failed (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


def measure_layers(w, M, W, tmp, seconds, tally, tracer):
    from shamans import cli

    argv_out = fresh_dir(tmp, "out")
    argv = cli_argv(w, tmp, argv_out)
    before = tracer_mod.shamans_attributes()
    clock = ReferenceClock()
    plain_s, traced_s, layers = [], [], []

    def pipeline(traced):
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer:
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            return None, repr(exc), 0.0
        return code, None, time.perf_counter() - t0

    def step():
        # Alternate which side runs first so warm-up favours neither.
        for traced in (False, True) if len(plain_s) % 2 == 0 else (True, False):
            fresh_dir(tmp, "out")
            mark = tracer.mark()
            code, err, elapsed = clock.run(lambda: pipeline(traced))
            if err:
                tally.record("cli", [err])
                return False
            (traced_s if traced else plain_s).append(elapsed)
            if traced:
                layers.append(tracer.layer_metrics(mark))
            restored = tracer_mod.shamans_attributes() == before
            check_cli(w, M, W, argv_out, code, tally, "traced cli" if traced else "cli",
                      extra=[] if restored else ["shamans attributes not restored"])
        return True

    repeat_for(seconds, step)
    speed = clock.speed()
    # Times scale with the speed factor, rates against it, counts not at all.
    power = {"s": 1, "us": 1, "MB/s": -1}
    metrics = {name: median([run[name] for run in layers]) * speed ** power.get(unit, 0)
               for name, unit in tracer_mod.UNITS.items()}
    # Each step runs one pipeline of each kind back to back; pairing them
    # keeps the machine's slow drift out of the difference.
    metrics["trace.overhead_s"] = median([t - p for t, p in zip(traced_s, plain_s)]) * speed
    units = dict(tracer_mod.UNITS, **{"trace.overhead_s": "s"})
    samples = {"run_s": plain_s, "traced_run_s": traced_s, "reference_s": clock.samples}
    return metrics, units, samples, speed


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """BLAS thread settings; unset means one thread per CPU the process may
    use when numpy loads, which is one CPU under run.py."""
    return {var: os.environ.get(var, "unset") for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def environment(input_bytes):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "input_bytes": input_bytes,
    }


def run_workload(w, seed, seconds, trace):
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK)
    try:
        M, W, input_bytes = workloads.write_inputs(w, seed, tmp)
        if trace:
            tracer = tracer_mod.Tracer()
            metrics, units, samples, speed = measure_layers(w, M, W, tmp, seconds, tally, tracer)
        else:
            metrics, units, samples, speed = measure_end_to_end(w, M, W, tmp, seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    results = WORK / "results"
    os.makedirs(results, exist_ok=True)
    stem = results / f"{w.name}-seed{seed}-trace{trace}"
    if trace:
        tracer.dump(f"{stem}-spans.tsv")
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(input_bytes), "metrics": metrics,
              "units": units, "speed": speed, "samples": samples, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.messages}
    with open(f"{stem}.json", "wt", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shamans" / "__init__.py").is_file() or not DEMO.is_dir():
        print(f"error: {SRC}/shamans or {DEMO} not found; run from the root "
              "of a shamans checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                            args.trace) for name in names]
    for rec in records:
        env = rec["environment"]
        print(f"# {rec['workload']} seed={rec['seed']} nproc={env['nproc']} "
              f"cpus_used={env['cpus_used']} "
              f"blas={env['blas']} python={env['python']} numpy={env['numpy']} "
              f"scipy={env['scipy']} git={env['git_sha']} "
              f"input_bytes={env['input_bytes']} samples="
              f"{ {k: len(v) for k, v in rec['samples'].items()} }")
        for name, value in rec["metrics"].items():
            print(f"{rec['workload']:10s} {name:34s} {value:.6g} {rec['units'][name]}")
        print(f"{rec['workload']:10s} times are wall times x speed {rec['speed']:.4g}; "
              "wall medians: " + ", ".join(f"{k} {median(v):.4g}" for k, v in
                                           rec["samples"].items() if k.endswith("_s")))
        print(f"{rec['workload']:10s} error_rate {rec['failed']}/{rec['attempted']}")
        for msg in rec["failures"]:
            print(f"{rec['workload']:10s} FAILED {msg}")
    prefix = len(records) > 1
    metrics = {(f"{rec['workload']}.{name}" if prefix else name):
               {"value": value, "unit": rec["units"][name]}
               for rec in records for name, value in rec["metrics"].items()}
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
