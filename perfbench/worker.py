"""Child process for the measurements that need a fresh interpreter.

    python3 worker.py setup <demo dir> <out dir>
        Import shamans and solve the bundled demo problem once; prints the
        seconds from before the import to the end of the solve.
    python3 worker.py cli <shamans CLI arguments...>
        Run one CLI pipeline through ``shamans.cli.main``; prints its wall
        time, exit code and the process's peak resident memory.

The last line of standard output is a JSON object.  ``shamans`` must be
importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

import json
import os
import resource
import sys
import time


def setup(demo_dir, out_dir) -> dict:
    start = time.perf_counter()
    from shamans import cli
    code = cli.main(["--dict", os.path.join(demo_dir, "W.csv"),
                     "--data", os.path.join(demo_dir, "M.csv"),
                     "--out", os.path.join(out_dir, "H_demo.csv"),
                     "--mode", "shamans", "--budget", "18"])
    return {"setup_s": time.perf_counter() - start, "exit_code": code}


def run_cli(argv) -> dict:
    from shamans import cli
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"run_s": elapsed, "exit_code": code, "peak_rss_mb": rss_mb}


if __name__ == "__main__":
    kinds = {"setup": lambda args: setup(*args), "cli": run_cli}
    if len(sys.argv) < 2 or sys.argv[1] not in kinds:
        sys.exit(f"usage: {sys.argv[0]} setup|cli ...")
    print(json.dumps(kinds[sys.argv[1]](sys.argv[2:])))
