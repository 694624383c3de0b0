import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import shamans.cli as cli_mod
from shamans.cli import (_scan_csv_matrix, export_abundance_maps, main,
                         read_csv_matrix, write_csv_matrix, write_report_json)
from shamans.errors import (NegativeEntry, NonFiniteEntry, ParseError,
                            RaggedRows, ShapeMismatch)
from shamans.mnnls import SolveConfig, UnmixReport, solve

import demo_data as dd


def write(path, text):
    path.write_text(text)
    return str(path)


def read_pgm(path):
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
        width, height = map(int, fh.readline().split())
        assert fh.readline().strip() == b"255"
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    return data.reshape(height, width)


class TestReadCsv:
    def test_simple(self, tmp_path):
        M = read_csv_matrix(write(tmp_path / "m.csv", "1,2\n3,4\n"))
        np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])
        assert M.flags.c_contiguous

    def test_roundtrip_demo_dictionary(self, tmp_path):
        p = tmp_path / "w.csv"
        write_csv_matrix(dd.DEMO_W, p)
        again = read_csv_matrix(p)
        np.testing.assert_allclose(again, dd.DEMO_W, atol=1e-12)

    def test_roundtrip_random_lossless(self, tmp_path):
        rng = np.random.default_rng(51)
        H = rng.random((4, 7))
        p = tmp_path / "h.csv"
        write_csv_matrix(H, p)
        np.testing.assert_array_equal(read_csv_matrix(p), H)

    def test_ragged(self, tmp_path):
        with pytest.raises(RaggedRows) as info:
            read_csv_matrix(write(tmp_path / "m.csv", "1,2\n3\n"))
        assert info.value.line == 2

    def test_parse_error_position(self, tmp_path):
        with pytest.raises(ParseError) as info:
            read_csv_matrix(write(tmp_path / "m.csv", "1,2\n3,x\n"))
        assert (info.value.line, info.value.column) == (2, 2)

    @pytest.mark.parametrize("data, position", [
        (b"\xef\xbb\xbf1,2\n3,4\n", (1, 1)),  # a UTF-8 byte order mark
        (b"1,2\n3,4\xe9\n", (2, 2)),  # a latin-1 byte
    ], ids=["bom", "latin-1"])
    def test_non_ascii_byte_position(self, tmp_path, data, position):
        # Such a byte used to escape as a bare UnicodeDecodeError.
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"m\.csv:{position[0]}:{position[1]}: ") as info:
            read_csv_matrix(path)
        assert (info.value.line, info.value.column) == position

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(NegativeEntry):
            read_csv_matrix(write(tmp_path / "m.csv", "1,-2\n"))

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(NonFiniteEntry):
            read_csv_matrix(write(tmp_path / "m.csv", "1,nan\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_csv_matrix(write(tmp_path / "m.csv", ""))


def outcome(read, path):
    """What a reader makes of a file: the array's shape, order and bytes,
    or the exception's type, message and position."""
    try:
        A = read(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("ok", A.shape, A.flags.c_contiguous, A.tobytes())


class TestReadParity:
    """The vectorized read agrees with the line scanner on every input."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (9, 4), (40, 17)])
    @pytest.mark.parametrize("writer", ["savetxt", "repr"])
    def test_valid_files_bit_for_bit(self, tmp_path, shape, writer):
        rng = np.random.default_rng(sum(shape))
        A = rng.random(shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        p = tmp_path / "m.csv"
        if writer == "savetxt":
            write_csv_matrix(A, p)
        else:  # one repr per value, as the benchmark's generator writes
            p.write_text("".join(",".join(map(repr, row)) + "\n"
                                 for row in A.tolist()))
        fast = outcome(read_csv_matrix, p)
        assert fast == outcome(_scan_csv_matrix, p)
        assert fast[:3] == ("ok", shape, True)
        assert fast[3] == A.tobytes()

    @pytest.mark.parametrize("text", [
        "1,2\n3\n", "1,2\n3,x\n", "1,2,\n", "1,,2\n",
        "1,nan\n", "inf\n", "1,1e400\n", "2\n-1\n", "-0.0,1\n",
        "1_0,2\n", "0x10\n", '"1"\n', "1\n#1\n", "#1,2\n1,2\n",
        "1,2\n\n3,4\n\n", "1,2\n  \t\n3,4\n", "   \n", "\n\n",
        "1,2\r\n3,4\r\n", " 1 , 2 \n", "1,2\n3,4",
        "5\n", "1,2,3\n", "1\n2\n3\n", "", "1,2\n3,\xe94\n",
    ])
    def test_edge_files_agree(self, tmp_path, text):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("latin-1"))
        assert outcome(read_csv_matrix, p) == outcome(_scan_csv_matrix, p)

    def test_float_syntax_accepted(self, tmp_path):
        # float() accepts an underscore and keeps the sign of a zero.
        M = read_csv_matrix(write(tmp_path / "m.csv", "1_0,-0.0\n"))
        assert M.tolist() == [[10.0, 0.0]]
        assert np.signbit(M[0, 1])

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n"])
    def test_no_rows_raise_without_warning(self, tmp_path, text):
        p = write(tmp_path / "m.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no matrix rows found"):
                read_csv_matrix(p)

    def test_valid_file_skips_the_scanner(self, tmp_path, monkeypatch):
        def scan(path):
            raise AssertionError("rescanned a valid file")
        monkeypatch.setattr(cli_mod, "_scan_csv_matrix", scan)
        M = read_csv_matrix(write(tmp_path / "m.csv", "1,2\n3,4\n"))
        np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


class TestWriteCsv:
    def test_zero_scalar(self, tmp_path):
        p = tmp_path / "h.csv"
        write_csv_matrix(np.zeros((1, 1)), p)
        assert p.read_text() == "0\n"

    def test_seventeen_digits(self, tmp_path):
        p = tmp_path / "h.csv"
        write_csv_matrix(np.array([[1.0 / 3.0]]), p)
        assert float(p.read_text().strip()) == 1.0 / 3.0

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_csv_matrix(np.zeros((1, 1)), tmp_path / "nope" / "h.csv")

    def test_bytes_match_per_value_format(self, tmp_path):
        # Each value as f"{v:.17g}": shortest round-trip forms, a negative
        # zero, the smallest subnormal and magnitudes from 1e-300 to 1e300.
        H = np.concatenate([[1.0 / 3.0, -0.0, 5e-324, 1e300, 0.0, -2.5],
                            np.logspace(-300, 300, 58)]).reshape(8, 8)
        p = tmp_path / "h.csv"
        write_csv_matrix(H, p)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in H)
        assert p.read_bytes() == expected.encode("ascii")


class TestReportJson:
    def test_schema_and_roundtrip(self, tmp_path):
        rep = UnmixReport(rel_error=0.0073, avg_sparsity=3.0, nnz=18,
                          per_column_sparsity=[0, 0, 3, 0, 3],
                          timings_ms={"paths": 1.5, "select": 0.4},
                          mode="shamans", budget=18, fallback_columns=[4],
                          truncated_columns=[1, 3], breakpoints=17,
                          breakpoint_histogram=[0, 1, 2, 3, 0, 0, 1], refits=5,
                          walk={"rounds": 6, "refit_calls": 2, "refit_ms": 0.75,
                                "fallback_calls": 1},
                          inexact_columns=[1, 3, 4], picks=4, overshoot=-2,
                          stopped_short=True, last_gain=0.25)
        p = tmp_path / "report.json"
        write_report_json(rep, p)
        data = json.loads(p.read_text())
        assert set(data) == {"rel_error", "avg_sparsity", "nnz",
                             "per_column_sparsity", "timings_ms", "mode", "budget",
                             "breakpoints", "breakpoint_histogram", "refits", "walk",
                             "fallback_columns", "truncated_columns",
                             "inexact_columns", "kkt_violation", "picks", "overshoot",
                             "stopped_short", "last_gain"}
        assert data["timings_ms"] == {"paths": 1.5, "select": 0.4}
        assert data["inexact_columns"] == [1, 3, 4]
        assert data["rel_error"] == pytest.approx(0.0073)
        assert data["per_column_sparsity"] == [0, 0, 3, 0, 3]
        assert data["budget"] == 18
        assert data["fallback_columns"] == [4]
        assert data["truncated_columns"] == [1, 3]
        assert data["breakpoints"] == 17
        assert data["breakpoint_histogram"] == [0, 1, 2, 3, 0, 0, 1]
        assert data["refits"] == 5
        assert data["walk"] == {"rounds": 6, "refit_calls": 2, "refit_ms": 0.75,
                                "fallback_calls": 1}
        assert (data["picks"], data["overshoot"], data["stopped_short"],
                data["last_gain"]) == (4, -2, True, 0.25)

    @pytest.mark.parametrize("cfg", [SolveConfig(mode="shamans", q=np.int64(18)),
                                     SolveConfig(mode="ksparse", k=np.int64(2))],
                             ids=["shamans", "ksparse"])
    def test_numpy_counts_roundtrip(self, tmp_path, cfg):
        # NumPy counts used to reach the report as NumPy scalars, which the
        # JSON writer refuses.
        _, rep = solve(dd.DEMO_M, dd.DEMO_W, cfg)
        p = tmp_path / "report.json"
        write_report_json(rep, p)
        with open(p) as fh:
            data = json.load(fh)
        assert data["budget"] == rep.budget and type(rep.budget) is int
        assert (data["overshoot"], data["stopped_short"]) == (
            (0, False) if cfg.mode == "shamans" else (None, None))

    def test_non_finite_floats_are_null(self, tmp_path):
        # M 1e160 puts last_gain past the float range, where it used to be
        # written as Infinity, which strict parsers refuse; a NaN violation
        # is written as null too.
        rng = np.random.default_rng(0)
        W, M = rng.random((10, 4)) + 0.05, 1e160 * rng.random((10, 7))
        paths = [tmp_path / name for name in ("W.csv", "M.csv", "H.csv", "report.json")]
        write_csv_matrix(W, paths[0])
        write_csv_matrix(M, paths[1])
        code = main(["--dict", str(paths[0]), "--data", str(paths[1]), "--mode", "shamans",
                     "--budget", "10", "--out", str(paths[2]), "--report", str(paths[3])])
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads(paths[3].read_text(), parse_constant=refuse)
        assert data["last_gain"] is None and data["picks"] > 0
        rep = UnmixReport(rel_error=0.5, avg_sparsity=0.0, nnz=0, per_column_sparsity=[],
                          kkt_violation=np.nan, last_gain=-np.inf)
        write_report_json(rep, paths[3])
        data = json.loads(paths[3].read_text(), parse_constant=refuse)
        assert (data["rel_error"], data["kkt_violation"], data["last_gain"]) == (0.5, None, None)

    def test_readme_lists_every_key(self, tmp_path):
        # The README's "The JSON report carries ..." sentence names exactly
        # the keys the writer emits.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"The JSON report carries(.*?)\.\s", readme, re.S).group(1)
        p = tmp_path / "report.json"
        write_report_json(UnmixReport(rel_error=0.0, avg_sparsity=0.0, nnz=0,
                                      per_column_sparsity=[]), p)
        assert re.findall(r"`(\w+)`", sentence) == list(json.loads(p.read_text()))


class TestAbundanceMaps:
    def test_scaling_rounds_half_up(self, tmp_path):
        H = np.array([[0.0, 1.0, 0.5, 0.0]])
        export_abundance_maps(H, 2, 2, tmp_path)
        img = read_pgm(tmp_path / "abundance_000.pgm")
        np.testing.assert_array_equal(img, [[0, 255], [128, 0]])

    def test_zero_row_black(self, tmp_path):
        H = np.zeros((2, 4))
        H[1, :] = [1.0, 2.0, 3.0, 4.0]
        export_abundance_maps(H, 4, 1, tmp_path)
        np.testing.assert_array_equal(read_pgm(tmp_path / "abundance_000.pgm"),
                                      np.zeros((1, 4), dtype=np.uint8))

    def test_decode_back_within_one_level(self, tmp_path):
        rng = np.random.default_rng(52)
        H = rng.random((3, 12))
        export_abundance_maps(H, 4, 3, tmp_path)
        for i in range(3):
            img = read_pgm(tmp_path / f"abundance_{i:03d}.pgm")
            scaled = H[i, :].reshape(3, 4) / H[i, :].max() * 255.0
            assert np.abs(img.astype(float) - scaled).max() <= 0.5 + 1e-9

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            export_abundance_maps(np.zeros((2, 5)), 2, 2, tmp_path)
        # Nonpositive sizes whose product matches are refused before the
        # directory is made.
        for width, height in ((-2, -3), (0, 0)):
            out = tmp_path / f"maps_{width}_{height}"
            with pytest.raises(ShapeMismatch, match="map sizes must be positive"):
                export_abundance_maps(np.zeros((2, width * height)), width, height, out)
            assert not out.exists()


class TestMain:
    @pytest.fixture
    def demo_files(self, tmp_path):
        wpath = tmp_path / "W.csv"
        mpath = tmp_path / "M.csv"
        write_csv_matrix(dd.DEMO_W, wpath)
        write_csv_matrix(dd.DEMO_M, mpath)
        return str(wpath), str(mpath), tmp_path

    def test_end_to_end_shamans(self, demo_files, capsys):
        wpath, mpath, tmp = demo_files
        out = tmp / "H.csv"
        report = tmp / "report.json"
        code = main(["--dict", wpath, "--data", mpath, "--mode", "shamans",
                     "--budget", "18", "--out", str(out),
                     "--report", str(report)])
        assert code == 0
        H = read_csv_matrix(out)
        np.testing.assert_allclose(H, dd.DEMO_H_SHAMANS, atol=1e-9)
        data = json.loads(report.read_text())
        assert data["nnz"] == 18
        assert data["rel_error"] == pytest.approx(dd.DEMO_REL_SHAMANS)
        assert data["avg_sparsity"] == pytest.approx(3.0)
        assert data["mode"] == "shamans" and data["budget"] == 18
        assert data["refits"] == 0  # every demo support refits without the solver
        assert data["inexact_columns"] == []
        assert list(data["timings_ms"]) == ["read", "validate", "gram", "paths",
                                            "tables", "select", "assemble",
                                            "metrics"]
        assert data["timings_ms"]["read"] > 0.0
        assert (data["picks"], data["overshoot"], data["stopped_short"]) == (17, 0, False)

    def test_end_to_end_unconstrained(self, demo_files):
        # No paths are walked: the path keys are null, the certificate is
        # there, and the timings list the stages that ran.
        wpath, mpath, tmp = demo_files
        report = tmp / "report.json"
        assert main(["--dict", wpath, "--data", mpath, "--mode", "unconstrained",
                     "--out", str(tmp / "H.csv"), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["rel_error"] == pytest.approx(dd.DEMO_REL_UNCONSTRAINED, abs=1e-12)
        assert (data["breakpoints"], data["breakpoint_histogram"], data["refits"],
                data["fallback_columns"]) == (None, None, None, None)
        assert 0.0 <= data["kkt_violation"] < 1e-12 and data["inexact_columns"] == []
        assert list(data["timings_ms"]) == ["read", "validate", "gram", "nnls", "metrics"]

    def test_end_to_end_maps(self, demo_files):
        wpath, mpath, tmp = demo_files
        out = tmp / "H.csv"
        maps = tmp / "maps"
        code = main(["--dict", wpath, "--data", mpath, "--mode", "ksparse",
                     "--k", "3", "--out", str(out), "--maps-dir", str(maps),
                     "--map-width", "3", "--map-height", "2"])
        assert code == 0
        assert sorted(p.name for p in maps.iterdir()) == [
            f"abundance_{i:03d}.pgm" for i in range(4)]

    def test_missing_budget_is_usage_error(self, demo_files, capsys):
        wpath, mpath, tmp = demo_files
        code = main(["--dict", wpath, "--data", mpath, "--mode", "shamans",
                     "--out", str(tmp / "H.csv")])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_conflicting_flags_are_usage_errors(self, demo_files):
        wpath, mpath, tmp = demo_files
        out = str(tmp / "H.csv")
        assert main(["--dict", wpath, "--data", mpath, "--mode", "shamans",
                     "--budget", "18", "--k", "3", "--out", out]) == 1
        assert main(["--dict", wpath, "--data", mpath, "--mode",
                     "unconstrained", "--budget", "18", "--out", out]) == 1
        assert main(["--dict", wpath, "--data", mpath, "--mode", "ksparse",
                     "--k", "3", "--out", out, "--maps-dir", str(tmp / "m")]) == 1

    def test_unknown_flag_is_usage_error(self, demo_files):
        wpath, mpath, tmp = demo_files
        assert main(["--dict", wpath, "--data", mpath, "--mode", "shamans",
                     "--budget", "18", "--out", str(tmp / "H.csv"),
                     "--frobnicate"]) == 1

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        wpath = tmp_path / "W.csv"
        mpath = tmp_path / "M.csv"
        write_csv_matrix(dd.DEMO_W, wpath)
        write_csv_matrix(dd.DEMO_M[:4, :], mpath)
        code = main(["--dict", str(wpath), "--data", str(mpath), "--mode",
                     "shamans", "--budget", "18",
                     "--out", str(tmp_path / "H.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main(["--dict", str(tmp_path / "absent.csv"),
                     "--data", str(tmp_path / "absent2.csv"),
                     "--mode", "unconstrained",
                     "--out", str(tmp_path / "H.csv")])
        assert code == 2

    def test_malformed_data_is_data_error(self, tmp_path):
        wpath = write(tmp_path / "W.csv", "1,0\n0,1\n")
        mpath = write(tmp_path / "M.csv", "1,2\n3\n")
        code = main(["--dict", wpath, "--data", mpath, "--mode",
                     "unconstrained", "--out", str(tmp_path / "H.csv")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--mode", "shamans", "--budget", "-1"],
        ["--mode", "ksparse", "--k", "-2"],
        # No tolerance flag: every threshold is relative to the data.
        ["--mode", "unconstrained", "--tol", "1e-10"],
        # No sparsity threshold either: the report counts exact nonzeros, and
        # --zero-thresh is an unknown flag whatever its value.
        ["--mode", "unconstrained", "--zero-thresh", "nan"],
        ["--mode", "unconstrained", "--zero-thresh", "-1"],
        ["--mode", "ksparse", "--k", "3", "--maps-dir", "m", "--map-width", "0",
         "--map-height", "6"],
        ["--mode", "ksparse", "--k", "3", "--maps-dir", "m", "--map-width", "-2",
         "--map-height", "-3"],
        ["--mode", "ksparse", "--k", "3", "--maps-dir", "m"],
        ["--mode", "unconstrained", "--zero-thresh", "inf"],
        # Flags that do not apply are refused, not ignored.
        ["--mode", "unconstrained", "--strict-budget"],
        ["--mode", "ksparse", "--k", "3", "--strict-budget"],
        ["--mode", "ksparse", "--k", "3", "--map-width", "3", "--map-height", "2"],
        ["--mode", "ksparse", "--k", "3", "--map-width", "3"],
        ["--mode", "ksparse", "--k", "3", "--map-height", "2"],
    ])
    def test_bad_flag_values_are_usage_errors_before_any_read(self, demo_files, flags,
                                                               monkeypatch, capsys):
        wpath, mpath, tmp = demo_files
        monkeypatch.chdir(tmp)  # where --maps-dir m would go
        reads = []
        monkeypatch.setattr(cli_mod, "read_csv_matrix", reads.append)
        code = main(["--dict", wpath, "--data", mpath, "--out", "H.csv", *flags])
        assert code == 1 and reads == []
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "H.csv").exists() and not (tmp / "m").exists()

    def test_overflowing_h_is_data_error(self, tmp_path, capsys):
        # W 1e160 used to overflow W.T W, a data error; the solve runs in the
        # walk's units (PathWalk) and matches the unit-scale one.  W 1e-300
        # with M 1e100 gives an H near 1e400: that is a data error, and
        # nothing is written.
        rng = np.random.default_rng(0)
        W, M = rng.random((10, 4)) + 0.05, rng.random((10, 7))

        def run(scale_W, scale_M, name):
            paths = [tmp_path / f"{x}_{name}.csv" for x in "WMH"]
            write_csv_matrix(scale_W * W, paths[0])
            write_csv_matrix(scale_M * M, paths[1])
            code = main(["--dict", str(paths[0]), "--data", str(paths[1]),
                         "--mode", "unconstrained", "--out", str(paths[2])])
            return code, paths[2]

        (code, unit), (code_big, big) = run(1.0, 1.0, "unit"), run(1e160, 1.0, "big")
        assert code == code_big == 0
        want = read_csv_matrix(unit)
        np.testing.assert_allclose(1e160 * read_csv_matrix(big), want, rtol=0,
                                   atol=1e-14 * want.max())
        capsys.readouterr()
        code, out = run(1e-300, 1e100, "over")
        assert code == 2
        assert "H overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_above_rn_is_data_error(self, demo_files):
        wpath, mpath, tmp = demo_files
        assert main(["--dict", wpath, "--data", mpath, "--mode", "shamans",
                     "--budget", str(dd.DEMO_R * dd.DEMO_N + 1),
                     "--out", str(tmp / "H.csv")]) == 2

    def test_map_shape_mismatch_writes_nothing(self, demo_files, capsys):
        wpath, mpath, tmp = demo_files
        outputs = [tmp / "H.csv", tmp / "report.json", tmp / "maps"]
        code = main(["--dict", wpath, "--data", mpath, "--mode", "ksparse", "--k", "3",
                     "--out", str(outputs[0]), "--report", str(outputs[1]),
                     "--maps-dir", str(outputs[2]), "--map-width", "3", "--map-height", "3"])
        assert code == 2
        assert "width*height = 9 but H has 6 columns" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)
