"""CSV ingestion, the bundled fixture, artifacts, and the command line."""

import csv
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpms.cli import OPTIONS, REQUIRED, _resolve_argv, main, run_command
from dpms.errors import ConfigError, DataError, RepairFailureError
from dpms import io as dpms_io
from dpms.io import hsb2_path, ingest_csv, read_numeric_columns
from dpms.linmodel import UNUSABLE
from dpms.mechanisms import CALIBRATION


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,10.0\n-1.0,0.5,2.0\n9.0,1.5,4.0\n"
    )
    return path


class TestIngestCsv:
    def test_exact_matrix_recovery(self, tiny_csv):
        data = ingest_csv(tiny_csv, "y", ("x2",), ("x1",))
        np.testing.assert_array_equal(data.y, [1.0, 4.0, 7.0, -1.0, 9.0])
        np.testing.assert_array_equal(data.x0[:, 1], [3.0, 6.0, 10.0, 2.0, 4.0])
        np.testing.assert_array_equal(data.x[:, 0], [2.0, 5.0, 8.0, 0.5, 1.5])

    def test_string_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n3.0,oops\n4.0,5.0\n")
        with pytest.raises(DataError, match=r"row 2, column 'x1'"):
            ingest_csv(path, "y", (), ("x1",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(tmp_path / "nope.csv", "y", (), ("x",))

    def test_missing_column(self, tiny_csv):
        with pytest.raises(DataError, match="'z'"):
            ingest_csv(tiny_csv, "y", (), ("z",))

    def test_constant_tested_column(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("y,x\n1.0,2.0\n2.0,2.0\n3.0,2.0\n")
        with pytest.raises(DataError, match="constant"):
            ingest_csv(path, "y", (), ("x",))


def _float_reference(path):
    """Every column of a headered CSV parsed cell by cell with float()."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return {name: np.array([float(row[j]) for row in rows]) for j, name in enumerate(header)}


@pytest.fixture
def scans(monkeypatch):
    """Counts the files read again by the csv-module parser."""
    calls = []
    original = dpms_io._scan_rows

    def counted(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(dpms_io, "_scan_rows", counted)
    return calls


def _write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


class TestUnitBoxWarning:
    """A private run's stderr must not depend on how many cells lie outside
    the unit box."""

    def _stderr(self, tmp_path, n_outside):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-0.45, 0.45, size=(600, 3))
        rows.flat[:n_outside] = 3.0
        path = tmp_path / f"in{n_outside}.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="x1,x2,y", comments="")
        proc = subprocess.run(
            [sys.executable, "-m", "dpms.cli", "select", "--input", str(path), "--response", "y",
             "--x", "x1,x2", "--epsilon", "1", "--data-entry-bound", "0.5", "--prior", "bic",
             "--seed", "1", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_stderr_carries_no_count(self, tmp_path):
        one = self._stderr(tmp_path, 1)
        assert "outside (-0.5, 0.5)" in one
        assert one == self._stderr(tmp_path, 500)


class TestRankDeficientAbort:
    """A private run on a collinear design exits 3 with the table's text,
    which carries no number computed from the data."""

    @pytest.mark.parametrize("command, flags", [("select", ["--data-entry-bound", "0.5"]),
                                                ("test", ["--M", "5"])])
    def test_message_is_the_table_text(self, tmp_path, capsys, command, flags):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-0.2, 0.2, size=400)
        x2 = 2.0 * x1 + 1e-13 * rng.standard_normal(400)
        y = 0.5 * x1 + rng.uniform(-0.2, 0.2, size=400)
        path = tmp_path / "collinear.csv"
        np.savetxt(path, np.column_stack([x1, x2, y]), fmt="%.17g", delimiter=",",
                   header="x1,x2,y", comments="")
        code = main([command, "--input", str(path), "--response", "y", "--x", "x1,x2",
                     "--epsilon", "1", *flags, "--seed", "3", "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankError"
        assert err["message"] == UNUSABLE[0]
        assert re.search(r"\b\d", err["message"]) is None


class TestFastIngest:
    def test_generated_file_bitwise_equal_to_float_reference(self, tmp_path, scans):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((2_000, 4)) * 10.0 ** rng.integers(-300, 300, (2_000, 4))
        table[::7, 1] = -0.0
        table[::11, 2] = 5e-324
        path = tmp_path / "gen.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header="a,b,c,d", comments="")
        got = read_numeric_columns(path)
        want = _float_reference(path)
        assert scans == []
        assert list(got) == ["a", "b", "c", "d"]
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()
            assert got[name].flags.c_contiguous
        np.testing.assert_array_equal(got["a"], table[:, 0])

    def test_number_spellings_bitwise_equal_to_float_reference(self, tmp_path, scans):
        cells = ["1.", ".5", "+.5e-3", "1E5", "-0", "00012", "1e-400", " 7 ", "\t8",
                 "4.9406564584124654e-324", "1.7976931348623157e308",
                 "0.1000000000000000055511151231257827", "123456789012345678901234567890",
                 "%.20f" % 0.1, "%.3e" % -2.5e-300]
        path = _write(tmp_path, "a,b\n" + "".join(f"{c},{c}\n" for c in cells))
        got = read_numeric_columns(path)
        assert scans == []
        assert got["a"].tobytes() == np.array([float(c) for c in cells]).tobytes()

    def test_fixture_bitwise_equal_to_float_reference(self, scans):
        got = read_numeric_columns(hsb2_path())
        want = _float_reference(hsb2_path())
        assert scans == []
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    def test_ingest_takes_columns_by_name(self, tmp_path, scans):
        path = _write(tmp_path, "x,u,y\n1,9,-2.5e-3\n2,8,7\n4,7,1e10\n")
        data = ingest_csv(path, "y", (), ("x",))
        assert scans == []
        np.testing.assert_array_equal(data.y, [-2.5e-3, 7.0, 1e10])
        np.testing.assert_array_equal(data.x[:, 0], [1.0, 2.0, 4.0])

    @pytest.mark.parametrize("text, want", [
        ("y,x\r\n1.5,2\r\n3,4\r\n", {"y": [1.5, 3.0], "x": [2.0, 4.0]}),
        ("y,x\n1.5,2\n\n3,4\n\n", {"y": [1.5, 3.0], "x": [2.0, 4.0]}),
        ("y,x\n1.5,2\n", {"y": [1.5], "x": [2.0]}),
        ("y,x\n 1.5 ,2\n3,4", {"y": [1.5, 3.0], "x": [2.0, 4.0]}),
    ], ids=["crlf", "blank-lines", "single-row", "padded-no-final-newline"])
    def test_plain_layouts_take_the_fast_path(self, tmp_path, scans, text, want):
        got = read_numeric_columns(_write(tmp_path, text))
        assert scans == []
        assert {k: v.tolist() for k, v in got.items()} == want

    @pytest.mark.parametrize("text, want", [
        ("y,x\n1_000,2\n3,4\n", {"y": [1000.0, 3.0], "x": [2.0, 4.0]}),
        ('y,x\n"1.5",2\n3,"4"\n', {"y": [1.5, 3.0], "x": [2.0, 4.0]}),
        ('y,x\r\n"1.5",2\r\n\r\n3,4\r\n', {"y": [1.5, 3.0], "x": [2.0, 4.0]}),
        ("y,x\n1,abc\n3,4\n", {"y": [1.0, 3.0]}),
    ], ids=["underscore", "quoted", "quoted-crlf-blank", "text-in-unused-column"])
    def test_other_cells_fall_back_with_float_values(self, tmp_path, scans, text, want):
        path = _write(tmp_path, text)
        got = read_numeric_columns(path, tuple(want))
        assert len(scans) == 1
        assert {k: v.tolist() for k, v in got.items()} == want

    def test_comment_marker_is_a_non_numeric_cell(self, tmp_path, scans):
        path = _write(tmp_path, "y,x\n1,2\n#3,4\n5,6\n")
        with pytest.raises(DataError, match=r"row 2, column 'y' \(value '#3'\)"):
            ingest_csv(path, "y", (), ("x",))
        assert len(scans) == 1

    @pytest.mark.parametrize("text, row, fields", [
        ("y,x\n1,2\n3\n5,6\n", 2, 1),
        ("y,x\n1,2\n3,4\n5,6,7\n", 3, 3),
        ("y,x\n1,2,0\n3,4,0\n5,6,0\n", 1, 3),
        ("y,x\n1,2\n   \n5,6\n", 2, 1),
        ('y,x\n"1",2\n3,4,5\n', 2, 3),
    ], ids=["short", "long", "every-row-long", "whitespace-line", "long-after-quoted"])
    def test_ragged_row_names_row_and_field_counts(self, tmp_path, text, row, fields):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match=rf"row {row} .* has {fields} fields, the header has 2"):
            ingest_csv(path, "y", (), ("x",))

    @pytest.mark.parametrize("text, row, column, value", [
        ("y,x\n1,2\n3,nan\n5,6\n", 2, "x", "nan"),
        ("y,x\n1,2\n3,4\n-inf,6\n", 3, "y", "-inf"),
        ("y,x\n1,Infinity\n3,4\n", 1, "x", "inf"),
        ('y,x\n"1",2\n3,4\n5,NaN\n', 3, "x", "nan"),
        ("y,x\n1,2\n3,1e999\n", 2, "x", "inf"),
    ], ids=["nan", "minus-inf", "infinity", "nan-after-quoted", "overflow"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, text, row, column, value):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match=rf"non-finite cell .*: row {row}, "
                                            rf"column '{column}' \(value {value}\)"):
            ingest_csv(path, "y", (), ("x",))

    def test_non_finite_cell_in_unused_column_is_ignored(self, tmp_path):
        path = _write(tmp_path, "y,x,u\n1,2,nan\n3,5,inf\n4,4,0\n")
        data = ingest_csv(path, "y", (), ("x",))
        np.testing.assert_array_equal(data.y, [1.0, 3.0, 4.0])

    def test_header_only_file(self, tmp_path):
        for text in ("y,x\n", "y\n"):
            with pytest.raises(DataError, match="no data rows"):
                read_numeric_columns(_write(tmp_path, text))

    @pytest.mark.parametrize("text", ["y,x\n1,2\n3\n5,6\n2,2\n",
                                      "y,x\n1,2\n3,inf\n5,6\n2,2\n"],
                             ids=["ragged", "non-finite"])
    def test_cli_exits_with_data_error(self, tmp_path, capsys, text):
        path = _write(tmp_path, text)
        code = main(["test", "--input", str(path), "--response", "y", "--x", "x",
                     "--epsilon", "1", "--M", "1", "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "row 2" in err["message"]


class TestFixture:
    def test_fixture_loads(self):
        cols = read_numeric_columns(hsb2_path())
        assert len(cols["math"]) == 200
        assert {"gender", "math", "read", "science"} <= set(cols)

    def test_fixture_resolves_through_ingest(self):
        data = ingest_csv(hsb2_path(), "math", (), ("gender",))
        assert data.n == 200 and data.p == 1 and data.p0 == 1


def _base_test_cfg(out_dir):
    return {
        "command": "test",
        "input": str(hsb2_path()),
        "response": "math",
        "x": "gender",
        "epsilon": 1.0,
        "M": 10,
        "seed": 7,
        "pi0": 0.5,
        "delta": 0.0,
        "prior": "g",
        "out": str(out_dir),
    }


class TestRunCommand:
    def test_test_command_writes_private_record(self, tmp_path):
        cfg = _base_test_cfg(tmp_path / "out")
        assert run_command(cfg) == 0
        record = json.loads((tmp_path / "out" / "test_result.json").read_text())
        assert record["private"] is True
        assert "per_subset_logs" not in record
        assert record["M"] == 10
        assert record["mechanism"] == "laplace"
        assert 0.0 <= record["p_h0"] <= 1.0
        # delta > 0 selects the analytic Gaussian for the test.
        cfg.update({"delta": 1e-5, "out": str(tmp_path / "gauss")})
        assert run_command(cfg) == 0
        record = json.loads((tmp_path / "gauss" / "test_result.json").read_text())
        assert record["mechanism"] == "gaussian"

    def test_zero_noise_test_reproduces_reference_posterior(self, tmp_path):
        cfg = _base_test_cfg(tmp_path / "out")
        cfg.update({"M": 1, "no_noise": True})
        run_command(cfg)
        record = json.loads((tmp_path / "out" / "test_result.json").read_text())
        assert record["p_h1"] == pytest.approx(0.07, abs=0.02)
        assert record["private"] is False

    def test_artifacts_round_trip_byte_identically(self, tmp_path):
        cfg = _base_test_cfg(tmp_path / "out")
        run_command(cfg)
        first = (tmp_path / "out" / "test_result.json").read_bytes()
        first_run = (tmp_path / "out" / "run_config.json").read_text()
        # Re-running with the embedded configuration reproduces the record.
        embedded = json.loads(first.decode())["config"]
        run_command(dict(embedded))
        assert (tmp_path / "out" / "test_result.json").read_bytes() == first
        second_run = (tmp_path / "out" / "run_config.json").read_text()
        strip = lambda text: [l for l in text.splitlines() if "generated_at" not in l]
        assert strip(first_run) == strip(second_run)

    def test_select_zero_noise_deterministic_and_private(self, tmp_path):
        cfg = {
            "command": "select",
            "input": str(hsb2_path()),
            "response": "math",
            "x": "read,science,socst",
            "no_noise": True,
            "prior": "bic",
            "seed": 3,
            "lambda_pct": 99.0,
            "delta": 0.0,
            "out": str(tmp_path / "s1"),
        }
        run_command(cfg)
        cfg2 = dict(cfg, out=str(tmp_path / "s2"))
        run_command(cfg2)
        assert ((tmp_path / "s1" / "posterior.csv").read_bytes()
                == (tmp_path / "s2" / "posterior.csv").read_bytes())
        summary = json.loads((tmp_path / "s1" / "selection.json").read_text())
        assert len(summary["inclusion"]) == 3
        # No raw response values leak into the artifacts.
        raw = (tmp_path / "s1" / "selection.json").read_text()
        cols = read_numeric_columns(hsb2_path())
        assert str(cols["math"][0]) not in raw

    def test_select_private_run_with_bounds(self, tmp_path):
        cfg = {
            "command": "select",
            "input": str(hsb2_path()),
            "response": "math",
            "x": "read,science",
            "epsilon": 1000.0,
            "delta": 0.0,
            "data_entry_bound": 80.0,
            "threshold": True,
            "prior": "bic",
            "seed": 5,
            "lambda_pct": 99.0,
            "synthetic_n": 50,
            "out": str(tmp_path / "sel"),
        }
        assert run_command(cfg) == 0
        assert (tmp_path / "sel" / "synthetic.csv").exists()
        summary = json.loads((tmp_path / "sel" / "selection.json").read_text())
        assert summary["mechanism"] == "laplace"
        assert summary["e_lambda"] > 0
        # delta > 0 selects the Wishart release for the Gram matrix.
        cfg.update({"delta": 1e-5, "row_norm_bound": 80.0 * 3**0.5,
                    "out": str(tmp_path / "wishart")})
        assert run_command(cfg) == 0
        summary = json.loads((tmp_path / "wishart" / "selection.json").read_text())
        assert summary["mechanism"] == "wishart"
        assert summary["delta"] == 1e-5 and summary["e_lambda"] > 0

    def test_calibrate_command(self, tmp_path):
        cfg = {
            "command": "calibrate",
            "statistic": "lrt",
            "df": 1,
            "M": 5,
            "L": 0.0,
            "U": 7.0,
            "epsilon": 1.0,
            "delta": 0.25,
            "nsim": 20_000,
            "alpha": 0.05,
            "seed": 9,
            "observed": 3.0,
            "out": str(tmp_path / "cal"),
        }
        run_command(cfg)
        record = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert record["critical_value"] > 0
        assert 0.0 < record["p_value"] <= 1.0
        lines = (tmp_path / "cal" / "null_quantiles.csv").read_text().splitlines()
        assert lines[0] == "prob,value"
        assert len(lines) == 8

    def test_region_command(self, tmp_path):
        cfg = {
            "command": "region",
            "input": str(hsb2_path()),
            "response": "math",
            "x": "read,science",
            "epsilon": 2000.0,
            "delta": 0.0,
            "data_entry_bound": 80.0,
            "alpha": 0.05,
            "nsamples": 120,
            "functional": "inclusion:0",
            "prior": "bic",
            "seed": 12,
            "out": str(tmp_path / "reg"),
        }
        run_command(cfg)
        record = json.loads((tmp_path / "reg" / "region.json").read_text())
        assert 0.0 <= record["mean"] <= 1.0
        assert record["accepted"] + record["rejected_non_pd"] == 120

    def test_simulate_command(self, tmp_path):
        cfg = {
            "command": "simulate",
            "p": 3,
            "n": 400,
            "snr": 1.0,
            "n_active": 1,
            "n_datasets": 2,
            "epsilon": 1.0,
            "prior": "bic",
            "seed": 21,
            "lambda_pct": 99.0,
            "out": str(tmp_path / "sim"),
        }
        run_command(cfg)
        lines = (tmp_path / "sim" / "mse_table.csv").read_text().splitlines()
        assert lines[0].startswith("snr,epsilon,replication,method")
        assert len(lines) == 1 + 2 * 5  # 2 replications x (oracle + 4 methods)
        # Determinism across reruns.
        cfg2 = dict(cfg, out=str(tmp_path / "sim2"))
        run_command(cfg2)
        assert ((tmp_path / "sim" / "mse_table.csv").read_bytes()
                == (tmp_path / "sim2" / "mse_table.csv").read_bytes())


class TestInvocationScope:
    """Each command builds its laws, and so draws their calibrations, anew:
    nothing carries over from an earlier command in the same process."""

    def _run(self, out, seed):
        assert main(["simulate", "--p", "3", "--n", "400", "--snr", "1", "--n-active", "1",
                     "--n-datasets", "2", "--epsilon", "1", "--prior", "bic",
                     "--seed", str(seed), "--out", str(out)]) == 0
        return {path.name: [line for line in path.read_text().splitlines()
                            if "generated_at" not in line]
                for path in sorted(out.iterdir())}

    def test_seed_alone_sets_the_calibration(self, tmp_path):
        first = self._run(tmp_path / "a", 21)
        other = self._run(tmp_path / "b", 22)
        again = self._run(tmp_path / "a", 21)
        calibration = lambda arts: json.loads("\n".join(arts["sim_summary.json"]))["calibration"]
        for law in ("laplace", "wishart"):
            assert calibration(first)[law]["r"] != calibration(other)[law]["r"]
        assert calibration(first)["stream"] == [CALIBRATION]
        assert again == first


class TestCliEntry:
    def test_missing_seed_is_config_error(self, capsys):
        code = main(["test", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "gender", "--epsilon", "1", "--M", "5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "seed" in err["message"]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["test", "--input", str(tmp_path / "none.csv"),
                     "--response", "y", "--x", "x", "--epsilon", "1",
                     "--M", "2", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_failed_repair_is_numeric_error(self, tmp_path, capsys):
        # A fixed ridge that cannot restore positive definiteness.
        code = main(["select", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "read,science", "--no-noise", "--r=-1e9",
                     "--prior", "bic", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RepairFailureError"

    def test_region_does_not_repair_the_release(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise RepairFailureError("the region reads only the unrepaired release")

        monkeypatch.setattr("dpms.cli.pd_repair", refuse)
        code = main(["region", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "read,science", "--epsilon", "2000", "--data-entry-bound", "80",
                     "--nsamples", "120", "--prior", "bic", "--seed", "12",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert json.loads((tmp_path / "o" / "region.json").read_text())["mechanism"] == "laplace"

    def test_run_command_rejects_a_key_the_command_does_not_read(self, tmp_path):
        cfg = dict(_base_test_cfg(tmp_path / "out"), pi_0=0.9)
        with pytest.raises(ConfigError, match="pi_0"):
            run_command(cfg)
        assert not (tmp_path / "out").exists()

    def test_path_options_from_a_config_file_are_strings(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = {"input": str(hsb2_path()), "response": "math", "x": "read", "epsilon": 1.0,
                "M": 5, "seed": 1}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(base, input=5)))
        assert main(["test", "--config", str(config)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and err["exit_code"] == 3
        config.write_text(json.dumps(dict(base, out=5)))
        assert main(["test", "--config", str(config)]) == 0
        assert _config_block(tmp_path / "5")["out"] == "5"

    def test_zellner_siow_non_convergence_is_numeric_error(self, tmp_path, capsys,
                                                           monkeypatch):
        from dpms import linmodel

        monkeypatch.setattr(linmodel, "ZS_HALVINGS", 0)
        code = main(["select", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "read,science", "--no-noise", "--prior", "zs",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericError"
        assert sorted(err["diagnostics"]) == ["n", "p", "p0", "r2"]
        assert err["diagnostics"]["n"] == 200

    @pytest.mark.parametrize("command,flags", [
        ("test", ["--lambda", "--alpha", "--nsim"]),
        ("calibrate", ["--lambda"]),
        ("select", ["--M", "--L", "--U", "--alpha", "--nsim"]),
        ("region", ["--M", "--L", "--U", "--lambda", "--nsim"]),
        ("simulate", ["--M", "--L", "--U", "--alpha", "--nsim"]),
    ])
    def test_options_a_command_does_not_read_are_rejected(self, command, flags, capsys):
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1", "--seed", "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_artifact_config_holds_only_options_the_command_reads(self, tmp_path):
        out = tmp_path / "o"
        assert main(["test", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "gender", "--epsilon", "1", "--M", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        config = json.loads((out / "test_result.json").read_text())["config"]
        assert not {"lambda_pct", "alpha", "nsim", "nsamples"} & set(config)
        assert main(["select", "--input", str(hsb2_path()), "--response", "math",
                     "--x", "read,science", "--no-noise", "--prior", "bic", "--seed", "1",
                     "--out", str(out)]) == 0
        config = json.loads((out / "selection.json").read_text())["config"]
        assert not {"M", "L", "U", "alpha", "nsim", "pi0"} & set(config)
        assert config["lambda_pct"] == 99.0

    @pytest.mark.parametrize("flags,want", [([], math.exp(-10.0)),
                                            (["--delta", "1e-4"], 1e-4)])
    def test_simulate_records_the_wishart_delta_it_used(self, tmp_path, flags, want):
        out = tmp_path / "o"
        assert main(["simulate", "--p", "3", "--n", "400", "--snr", "1", "--n-active", "1",
                     "--n-datasets", "1", "--epsilon", "1", "--prior", "bic",
                     "--seed", "21", "--out", str(out), *flags]) == 0
        assert json.loads((out / "sim_summary.json").read_text())["delta_wishart"] == want

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "input": str(hsb2_path()), "response": "math", "x": "gender",
            "epsilon": 1.0, "M": 2, "seed": 1,
        }))
        out = tmp_path / "o"
        code = main(["test", "--config", str(config), "--M", "4",
                     "--out", str(out)])
        assert code == 0
        record = json.loads((out / "test_result.json").read_text())
        assert record["M"] == 4

    @pytest.mark.parametrize("extra", [{"mechanism": "gaussian"}, {"bogus_key": 3},
                                       {"nsamples": 500}])
    def test_config_file_keys_the_command_does_not_read_are_rejected(
            self, tmp_path, capsys, extra):
        # nsamples is an option of region, not of select.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "input": str(hsb2_path()), "response": "math", "x": "read,science",
            "epsilon": 1.0, "delta": 1e-5, "row_norm_bound": 150.0, "seed": 1, **extra,
        }))
        out = tmp_path / "o"
        code = main(["select", "--config", str(config), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert list(extra)[0] in err["message"]
        assert not out.exists()

    def test_artifact_config_block_feeds_back_as_config_file(self, tmp_path):
        out = tmp_path / "o"
        argv = ["select", "--input", str(hsb2_path()), "--response", "math",
                "--x", "read,science", "--no-noise", "--prior", "bic", "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        record = json.loads((out / "selection.json").read_text())
        assert record["r2_clamps"] == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(record["config"]))
        again = tmp_path / "again"
        assert main(["select", "--config", str(config), "--out", str(again)]) == 0
        assert (json.loads((again / "selection.json").read_text())["inclusion"]
                == record["inclusion"])

    def test_zero_valued_flags_survive(self, tmp_path):
        # 0 is falsy but a legitimate value for --L and --seed.
        out = tmp_path / "o"
        code = main(["calibrate", "--statistic", "lrt", "--df", "1", "--M", "5",
                     "--L", "0", "--U", "7", "--epsilon", "1", "--delta", "0.25",
                     "--nsim", "2000", "--alpha", "0.05", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        record = json.loads((out / "calibration.json").read_text())
        assert record["config"]["L"] == 0.0
        assert record["config"]["seed"] == 0

    def test_subprocess_smoke(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "dpms.cli", "test",
             "--input", str(hsb2_path()), "--response", "math", "--x", "gender",
             "--epsilon", "10", "--M", "10", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "test_result.json").exists()


def _artifacts(out: Path) -> dict:
    """Every artifact of a run but run_config.json, JSON records without
    their ``config`` block."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json" and path.name != "run_config.json":
            record = json.loads(path.read_text())
            record.pop("config")
            found[path.name] = record
        elif path.suffix == ".csv":
            found[path.name] = path.read_text()
    return found


def _config_block(out: Path) -> dict:
    (record,) = [json.loads(p.read_text())["config"] for p in out.glob("*.json")
                 if p.name != "run_config.json"]
    return record


_HSB2_FLAGS = ["--input", str(hsb2_path()), "--response", "math"]
_CALIBRATE_FLAGS = ["calibrate", "--M", "5", "--L", "-10", "--U", "5", "--epsilon", "1",
                    "--nsim", "2000", "--seed", "9"]
_RUNS = {
    "test": ["test", *_HSB2_FLAGS, "--x0", "gender", "--x", "read", "--M", "5",
             "--epsilon", "1", "--seed", "4"],
    "calibrate-lrt": [*_CALIBRATE_FLAGS, "--df", "2", "--observed", "3"],
    "calibrate-bf": [*_CALIBRATE_FLAGS, "--statistic", "bf", "--prior", "zs", "--n", "400",
                     "--p", "2"],
    "calibrate-pvalue": [*_CALIBRATE_FLAGS, "--statistic", "pvalue", "--L", "0", "--U", "1"],
    "select": ["select", *_HSB2_FLAGS, "--x", "read,science", "--epsilon", "50",
               "--data-entry-bound", "100", "--threshold", "--synthetic-n", "20", "--seed", "3"],
    "region": ["region", *_HSB2_FLAGS, "--x", "read,science", "--no-noise",
               "--functional", "beta:1", "--nsamples", "100", "--seed", "5"],
    "simulate": ["simulate", "--p", "3", "--n", "400", "--snr", "1", "--n-active", "1",
                 "--n-datasets", "1", "--epsilon", "1", "--prior", "bic", "--seed", "21"],
}


class TestOptionTable:
    """One table gives the parser, the defaults, the required checks and
    the recorded configuration."""

    def test_config_file_statistic_reaches_the_run(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"statistic": "bf", "n": 400, "p": 2, "M": 5,
                                      "epsilon": 1.0, "nsim": 2000, "seed": 1}))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "calibration.json").read_text())
        assert record["statistic"] == "bf" and record["config"]["p0"] == 1

    def test_run_command_fills_defaults_of_a_test_dict_without_pi0(self, tmp_path):
        from dpms.split_aggregate import posterior_probability

        cfg = {"command": "test", "input": str(hsb2_path()), "response": "math",
               "x": "gender", "epsilon": 1.0, "M": 10, "seed": 7, "out": str(tmp_path)}
        assert run_command(cfg) == 0
        record = json.loads((tmp_path / "test_result.json").read_text())
        assert record["p_h0"] == posterior_probability(record["log_bstar"], 0.5)
        assert record["config"]["pi0"] == 0.5

    @pytest.mark.parametrize("cfg", [
        {"command": "calibrate", "M": 2, "df": 1, "epsilon": 1.0, "seed": 1},
        {"command": "select", "input": str(hsb2_path()), "response": "math",
         "x": "read,science", "no_noise": True, "threshold": True, "seed": 1},
        {"command": "region", "input": str(hsb2_path()), "response": "math",
         "x": "read,science", "no_noise": True, "seed": 1},
        {"command": "simulate", "p": 3, "n": 400, "snr": 1.0, "n_active": 1, "n_datasets": 1,
         "epsilon": 1.0, "seed": 1},
    ], ids=lambda cfg: cfg["command"])
    def test_run_command_needs_only_the_required_keys(self, tmp_path, cfg):
        assert run_command(dict(cfg, out=str(tmp_path))) == 0
        block = _config_block(tmp_path)
        assert {k: block[k] for k in cfg} == cfg

    @pytest.mark.parametrize("statistic", ["lrt", "pvalue"])
    def test_calibrate_without_bayes_factors_neither_records_nor_takes_the_prior(
            self, tmp_path, capsys, statistic):
        argv = [*_CALIBRATE_FLAGS, "--statistic", statistic]
        argv += ["--df", "1"] if statistic == "lrt" else []
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        block = _config_block(tmp_path / "o")
        assert not {"prior", "g_value", "n", "p", "p0"} & set(block)
        assert ("df" in block) == (statistic == "lrt")
        for flag in ["--prior=g", "--g=5", "--n=400", "--p=2", "--p0=2"]:
            assert main([*argv, flag, "--out", str(tmp_path / flag)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert flag.partition("=")[0] in err["message"]
            assert statistic in err["message"]
            assert not (tmp_path / flag).exists()

    @pytest.mark.parametrize("statistic", ["bf", "pvalue"])
    def test_df_belongs_to_the_likelihood_ratio_only(self, tmp_path, capsys, statistic):
        extra = ["--n", "400", "--p", "2"] if statistic == "bf" else []
        code = main([*_CALIBRATE_FLAGS, "--statistic", statistic, *extra, "--df", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "--df" in err["message"]

    def test_config_blocks_record_the_defaults_the_run_reads(self, tmp_path):
        out = {}
        for name in ("calibrate-bf", "select", "simulate"):
            assert main([*_RUNS[name], "--out", str(tmp_path / name)]) == 0
            out[name] = _config_block(tmp_path / name)
        assert out["calibrate-bf"]["p0"] == 1 and "df" not in out["calibrate-bf"]
        assert out["select"]["model_prior"] == "hierarchical"
        assert out["select"]["no_noise"] is False
        assert out["simulate"]["beta_sd"] == 0.13
        assert out["simulate"]["delta_wishart"] == math.exp(-10.0)
        assert "delta" not in out["simulate"]

    @pytest.mark.parametrize("delta", ["0", "-1e-5"])
    def test_simulate_rejects_a_wishart_delta_that_is_not_positive(self, tmp_path, capsys,
                                                                   delta):
        code = main([*_RUNS["simulate"], f"--delta={delta}", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "--delta" in err["message"]

    def test_first_missing_required_option_is_named(self, tmp_path, capsys):
        code = main(["simulate", "--p", "3", "--n", "400", "--n-active", "1", "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "simulate requires --epsilon"
        code = main(["calibrate", "--statistic", "bf", "--M", "5", "--epsilon", "1",
                     "--n", "400", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "calibrate --statistic bf requires --p"

    @pytest.mark.parametrize("key, value, flag", [("no_noise", "false", "--no-noise"),
                                                  ("M", "ten", "--M"),
                                                  ("prior", "jeffreys", "--prior")])
    def test_config_file_value_of_the_wrong_kind_is_config_error(self, tmp_path, capsys,
                                                                key, value, flag):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"input": str(hsb2_path()), "response": "math",
                                      "x": "read", "epsilon": 1.0, "M": 5, "seed": 1,
                                      key: value}))
        assert main(["test", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and flag in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_run_reproduces_from_its_own_config_block(self, tmp_path, name):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([*_RUNS[name], "--out", str(first)]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_config_block(first)))
        command = _RUNS[name][0]
        assert main([command, "--config", str(config), "--out", str(again)]) == 0
        assert _artifacts(again) == _artifacts(first)
        assert _config_block(again) == dict(_config_block(first), out=str(again))


_TEXT = st.text("abcxyz019_.:/", min_size=1, max_size=8)


def _option_value(option):
    settings = option.argparse
    if settings.get("action") == "store_true":
        return st.just(True)
    if "choices" in settings:
        return st.sampled_from(settings["choices"])
    if settings.get("type") is int:
        return st.integers(-10**6, 10**6)
    if settings.get("type") is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    return _TEXT


@st.composite
def _command_options(draw, command):
    """(option, value) pairs for a random set of the options ``command``
    reads, every required one included."""
    statistic = draw(st.sampled_from(["lrt", "bf", "pvalue"]))
    chosen = []
    for option in OPTIONS:
        if command not in option.readers and f"{command}[{statistic}]" not in option.readers:
            continue
        if option.dest == "statistic":
            chosen.append((option, statistic))
        elif option.default == REQUIRED or draw(st.booleans()):
            chosen.append((option, draw(_option_value(option))))
    return chosen


@pytest.mark.parametrize("command", ["test", "calibrate", "select", "region", "simulate"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flags_and_config_file_resolve_to_the_same_config(command, data):
    chosen = data.draw(_command_options(command))
    flags = [option.flag if value is True else f"{option.flag}={value}"
             for option, value in chosen]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({option.dest: value for option, value in chosen}))
        from_file = _resolve_argv([command, "--config", str(config)])
    from_flags = _resolve_argv([command, *flags])
    assert from_flags == from_file
    assert json.dumps(from_flags, sort_keys=True) == json.dumps(from_file, sort_keys=True)
    assert {option.dest for option, _ in chosen} <= set(from_flags)


_COMMAND_PATHS = """
import json, sys
import dpms, dpms.cli
for argv in json.loads(sys.argv[1]):
    assert dpms.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_command_path_imports_scipy(tmp_path):
    """dpms runs on numpy alone: in a fresh process, importing the package
    and running every command, with the Zellner-Siow and analytic-Gaussian
    paths among them, loads no scipy module."""
    hsb2 = ["--input", str(hsb2_path()), "--response", "math", "--x", "read,science",
            "--data-entry-bound", "80", "--seed", "3"]
    calibrate = ["calibrate", "--M", "5", "--L", "-10", "--U", "5", "--epsilon", "1",
                 "--nsim", "2000", "--seed", "9"]
    commands = [
        ["select", *hsb2, "--epsilon", "2000", "--prior", "zs", "--synthetic-n", "50"],
        ["select", *hsb2, "--epsilon", "2000", "--delta", "1e-5", "--row-norm-bound", "139",
         "--prior", "bic"],
        ["region", *hsb2, "--epsilon", "2000", "--nsamples", "100", "--prior", "zs"],
        ["region", *hsb2, "--epsilon", "2000", "--delta", "1e-5", "--row-norm-bound", "139",
         "--nsamples", "100", "--prior", "bic"],
        ["simulate", "--p", "3", "--n", "400", "--snr", "1", "--n-active", "1",
         "--n-datasets", "1", "--epsilon", "1", "--prior", "zs", "--seed", "21"],
        ["test", "--input", str(hsb2_path()), "--response", "math", "--x", "gender",
         "--epsilon", "10", "--delta", "1e-5", "--M", "10", "--prior", "zs", "--seed", "1"],
        [*calibrate, "--statistic", "bf", "--prior", "zs", "--n", "500", "--p", "2",
         "--p0", "1"],
        [*calibrate, "--statistic", "lrt", "--df", "1", "--delta", "0.25"],
    ]
    for i, argv in enumerate(commands):
        argv += ["--out", str(tmp_path / f"o{i}")]
    proc = subprocess.run([sys.executable, "-c", _COMMAND_PATHS, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
