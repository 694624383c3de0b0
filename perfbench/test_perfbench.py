"""Tests of the benchmark itself: inputs, output checks and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from shamans import SolveConfig, cli, solve  # noqa: E402


def small(name, n=60):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, m=min(w.m, 40), n=n,
                               map_shape=(10, n // 10) if w.map_shape else None)


def read_bytes(d):
    return {f: (d / f).read_bytes() for f in ("W.csv", "M.csv")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_csv(tmp_path, name):
    w = small(name)
    M, W, size = workloads.write_inputs(w, 7, tmp_path / "a")
    workloads.write_inputs(w, 7, tmp_path / "b")
    workloads.write_inputs(w, 8, tmp_path / "c")
    a, b, c = (read_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a["M.csv"] != c["M.csv"]
    assert size == sum(len(v) for v in a.values())
    # The program parses exactly the arrays the checks compare against.
    assert np.array_equal(cli.read_csv_matrix(tmp_path / "a" / "M.csv"), M)
    assert np.array_equal(cli.read_csv_matrix(tmp_path / "a" / "W.csv"), W)
    assert M.min() >= 0.0


@pytest.fixture(scope="module")
def budgeted():
    w = small("pixels-r6")
    M, W = workloads.generate(w, 3)
    H, _ = solve(M, W, SolveConfig(mode="shamans", q=w.q))
    return w, M, W, H


def test_check_accepts_correct_solutions(budgeted):
    w, M, W, H = budgeted
    assert checks.check_solution(M, W, H, "shamans", q=w.q) == []
    for mode, k in (("ksparse", 2), ("unconstrained", None)):
        Hm, _ = solve(M, W, SolveConfig(mode=mode, k=k))
        assert checks.check_solution(M, W, Hm, mode, k=k) == []


def test_check_rejects_negative_entry(budgeted):
    w, M, W, H = budgeted
    bad = H.copy()
    bad[np.unravel_index(np.argmin(bad), bad.shape)] = -1e-3
    assert any("negative" in f for f in checks.check_solution(M, W, bad, "shamans", q=w.q))


def test_check_rejects_overshoot(budgeted):
    w, M, W, H = budgeted
    r = W.shape[1]
    over, _ = solve(M, W, SolveConfig(mode="shamans", q=w.q + r))
    failures = checks.check_solution(M, W, over, "shamans", q=w.q)
    assert failures and all("q+r-1" in f for f in failures)


def test_check_rejects_perturbed_coefficient(budgeted):
    w, M, W, H = budgeted
    bad = H.copy()
    i, j = np.argwhere(bad > 0)[0]
    bad[i, j] *= 1 + 1e-6
    assert any("stationary" in f for f in checks.check_solution(M, W, bad, "shamans", q=w.q))


def test_check_rejects_mode_violations(budgeted):
    w, M, W, H = budgeted
    k = int(np.count_nonzero(H, axis=0).max())
    assert checks.check_solution(M, W, H, "ksparse", k=k - 1)
    # A budgeted solution is not the NNLS optimum of every column.
    assert any("NNLS" in f for f in checks.check_solution(M, W, H, "unconstrained"))


def run_cli(w, tmp_path):
    M, W, _ = workloads.write_inputs(w, 5, tmp_path)
    out = tmp_path / "out"
    os.makedirs(out)
    assert cli.main(run.cli_argv(w, str(tmp_path), str(out))) == 0
    return M, W, out


def test_cli_check_recomputes_rel_error(tmp_path):
    w = small("tall-io")
    M, W, out = run_cli(w, tmp_path)
    failures, rel = checks.check_cli_outputs(out, M, W, w.mode, map_shape=w.map_shape)
    assert failures == [] and rel > 0
    report = json.loads((out / "report.json").read_text())
    report["rel_error"] *= 1 + 1e-6
    (out / "report.json").write_text(json.dumps(report))
    failures, _ = checks.check_cli_outputs(out, M, W, w.mode, map_shape=w.map_shape)
    assert any("rel_error" in f for f in failures)


def test_traced_run_restores_module_attributes(tmp_path):
    import shamans.homotopy
    import shamans.mnnls

    w = small("pixels-r6")
    before = tracer.shamans_attributes()
    original = shamans.mnnls.regularization_path
    t = tracer.Tracer()
    with t:
        assert shamans.mnnls.regularization_path is not original
        assert shamans.homotopy.spd_factor is shamans.densela.spd_factor
        mark = t.mark()
        run_cli(w, tmp_path)
    assert tracer.shamans_attributes() == before
    assert shamans.mnnls.regularization_path is original

    layers = t.layer_metrics(mark)
    assert layers.keys() == tracer.UNITS.keys()
    assert layers["homotopy.breakpoints"] >= w.n
    assert layers["selector.select_steps"] > 0
    assert layers["cli.input_mb"] > 0
    assert 0 < layers["homotopy.path_s"] < layers["mnnls.solve_s"]
    dump = tmp_path / "spans.tsv"
    t.dump(dump)
    assert len(dump.read_text().splitlines()) == len(t.spans) + 1


def test_tracer_restores_after_exception():
    import shamans.mnnls

    original = shamans.mnnls.solve
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError
    assert shamans.mnnls.solve is original


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        dict(tracer.UNITS, **{"trace.overhead_s": "s"})


def test_reference_task_never_loads_shamans():
    # The speed factor must not move when the program changes.
    code = ("import sys, calibrate; t = calibrate.reference_s(); "
            "print(t > 0, any(m.split('.')[0] == 'shamans' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "False"]
