"""Command-line behavior: grids, tables, precedence, exit codes."""

import hashlib
import json
import math

import pytest

from alpir.cli import BOUNDS_FIELDS, DEFAULTS, _bool_cast, main, parse_grid
from alpir.selfcheck import run_all


def run_cli(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestGridParsing:
    def test_three_part_grid(self):
        assert parse_grid("0:1:0.5") == pytest.approx([0.0, 0.5, 1.0])

    def test_single_point(self):
        assert parse_grid("2") == [2.0]

    def test_inclusive_endpoint_with_float_step(self):
        grid = parse_grid("0:10:0.25")
        assert len(grid) == 41
        assert grid[-1] == pytest.approx(10.0)

    def test_rejects_bad_shapes(self):
        for text in ("1:0:0.5", "0:1:0", "0:1:-1", "a:b:c", "1:2:3:4"):
            with pytest.raises(ValueError):
                parse_grid(text)


class TestBoundsCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--delta", "0.1", "--eps-grid", "0:1:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(BOUNDS_FIELDS)
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:4] == ["2", "2", "0.0", "0.1"]
        assert first[4] == "1.9"  # 2 - 0.1 at eps = 0
        assert first[4] == first[5]  # bounds coincide at eps = 0

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--k", "2",
                               "--eps", "0.5", "--delta", "0.05",
                               "--format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 1
        assert set(rows[0]) == set(BOUNDS_FIELDS)
        assert rows[0]["n"] == 3 and rows[0]["k"] == 2
        assert rows[0]["gap_ratio"] <= rows[0]["gap_cap"] + 1e-9

    def test_unbounded_eps(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--eps", "inf", "--delta", "0")
        row = out.strip().split("\n")[1].split(",")
        assert code == 0
        assert row[4] == "1.0" and row[5] == "1.0"
        assert row[12] == "NoPrivacy"

    def test_byte_identical_reruns(self, capsys):
        args = ("bounds", "--n", "2", "--k", "3",
                "--eps-grid", "0:2:0.5", "--delta-grid", "0:0.4:0.2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_grid_and_point_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--eps", "1", "--eps-grid", "0:1:1")
        assert code == 2
        assert "error:" in err

    def test_single_server_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--k", "3",
                               "--delta-grid", "0:2:1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,delta,feasible,cost"
        assert lines[1].split(",") == ["3", "0.0", "False", "inf"]
        assert lines[3].split(",") == ["3", "2.0", "True", "3.0"]

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "1")
        assert code == 2
        assert "error:" in err


class TestSweepCommand:
    def test_cartesian_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,3", "--k", "2,3",
                               "--eps", "0.5", "--delta", "0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        shapes = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert shapes == [("2", "2"), ("2", "3"), ("3", "2"), ("3", "3")]

    def test_rejects_single_server(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "1,2", "--k", "2")
        assert code == 2
        assert "bounds --n 1" in err


class TestSimulateCommand:
    EPS = str(math.log(1.5))

    def test_worked_point_passes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                               "--l", "3", "--eps", self.EPS,
                               "--delta", str(4 / 15),
                               "--trials", "1200", "--seed", "0")
        assert code == 0
        assert "verdict: PASS" in out
        assert "key_bits=1" in out
        assert "decode_failures=0" in out

    def test_session_records_written(self, capsys, tmp_path):
        out_path = tmp_path / "sessions.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                             "--l", "3", "--eps", self.EPS,
                             "--delta", str(4 / 15), "--trials", "1000",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "session_id,desired,class,bits,leaked_bits"
        assert len(lines) == 1001
        assert lines[1].split(",")[0] == "0"

    def test_json_lines_records(self, capsys, tmp_path):
        out_path = tmp_path / "sessions.jsonl"
        code, _, _ = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                             "--trials", "1000", "--format", "json-lines",
                             "--out", str(out_path))
        assert code == 0
        rows = [json.loads(line)
                for line in out_path.read_text().strip().split("\n")]
        assert len(rows) == 1000
        assert set(rows[0]) == {"session_id", "desired", "class", "bits",
                                "leaked_bits"}

    def test_deterministic_stdout(self, capsys):
        args = ("simulate", "--n", "2", "--k", "2", "--trials", "1000",
                "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "2",
                               "--l", "3", "--eps", self_eps(),
                               "--delta", str(4 / 15))
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")
        assert "0/" not in lines[-1]

    def test_key_deficit_injection_fails_budget_check(self):
        results = run_all(key_bits_offset=-1)
        by_name = {name: ok for name, ok, _ in results}
        assert not by_name["db-leakage-budget"]

    def test_injection_through_cli(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inject-key-deficit", "-1")
        assert code == 1
        assert any(line.startswith("FAIL") for line in out.split("\n"))

    def test_point_oracle_at_three_databases(self, capsys):
        # 54 answer calls for the rank oracle, against 9 * 2^20 states
        # per desired index for an enumeration of messages and key.
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "2",
                               "--eps", "0.5")
        assert code == 0
        point = out.splitlines()[-2]
        assert point.startswith("PASS point-leakage: oracle=")

    def test_single_server_short_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--k", "4",
                               "--delta", "3")
        assert code == 0
        assert out.startswith("PASS single-server")
        assert "cost=4" in out


def self_eps() -> str:
    return str(math.log(1.5))


class TestCliGolden:
    """sha256 of simulate and verify output for fixed commands, recorded
    before the audit checks were merged. Covers both transports and both
    --out formats. The two "oracle-skipped" rows (l=16) once covered the
    skipped branch of the brute-force oracle; the rank oracle's cost does
    not grow with l, and they were re-pinned with its exact value."""

    WORKED = ("--n", "2", "--k", "2", "--l", "3", "--eps", str(math.log(1.5)),
              "--delta", str(4 / 15), "--seed", "3", "--trials", "2000")
    SKIPPED = ("--n", "2", "--k", "2", "--l", "16", "--eps", "0.5",
               "--delta", "0.1")

    @staticmethod
    def digest(text) -> str:
        if isinstance(text, str):
            text = text.encode()
        return hashlib.sha256(text).hexdigest()

    @pytest.mark.parametrize("args, code, out_sha", [
        (("simulate", *WORKED), 0,
         "75c10381a57320dee8f765e344adb9dccee76d6e40df2998f8d8fe6a4764d78a"),
        (("simulate", *WORKED, "--transport", "tcp"), 0,
         "1816a1d5889276f8b2466a4fd1453b34094da2a28e7c5c46ca4c146aa7775785"),
        (("simulate", *SKIPPED, "--trials", "1000"), 0,
         "b4608b08784b1a065052030363d4e06abd0d9f17531d10e0b70dd588764e7b89"),
        (("verify", *SKIPPED), 0,
         "53417af047d3a0e4741e7ec3901137b3349737ff4f73f538a97d24d78b1e063c"),
        (("verify", "--inject-key-deficit", "-1"), 1,
         "2a6c5f849995184d5be4d4206d6fe53e8a4ff4a3226f10c68aefe5ebe0ade302"),
    ], ids=["simulate-memory", "simulate-tcp", "simulate-oracle-skipped",
            "verify-oracle-skipped", "verify-key-deficit"])
    def test_stdout(self, capsys, args, code, out_sha):
        got_code, out, _ = run_cli(capsys, *args)
        assert got_code == code
        assert self.digest(out) == out_sha

    @pytest.mark.parametrize("fmt, file_sha", [
        ("csv",
         "e54d1147bcb9188535694a9593ac04b43d1421d0c8588b8109a6713838ea8864"),
        ("json-lines",
         "80e9212f81fa4ae15c1bb2af542bddc631bc3367f15df1dd4ef7d804d6b684ef"),
    ])
    def test_out_file(self, capsys, tmp_path, fmt, file_sha):
        out_path = tmp_path / "sessions"
        code, out, _ = run_cli(capsys, "simulate", *self.WORKED,
                               "--format", fmt, "--out", str(out_path))
        assert code == 0
        assert self.digest(out_path.read_bytes()) == file_sha
        assert self.digest(out) == (
            "75c10381a57320dee8f765e344adb9dccee76d6e40df2998f8d8fe6a4764d78a")


class TestSimulateLargeMessages:
    """The rank oracle's cost does not grow with L, so simulate prints its
    exact value at every L, equal to the closed form; only shapes over its
    answer-call cap (N=2 K=255) are skipped."""

    @staticmethod
    def leakage_line(out: str) -> dict:
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("db leakage:"))
        return dict(f.split("=") for f in line.split() if "=" in f)

    @pytest.mark.parametrize("args", [
        ("--l", "4096", "--trials", "2000"),
        ("--l", str(1 << 22), "--eps", "0.5", "--delta", "0.1",
         "--trials", "20", "--seed", "1"),
    ], ids=["l4096", "l2^22"])
    def test_oracle_exact(self, capsys, args):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k", "4",
                                 *args)
        assert code == 0, err
        leak = self.leakage_line(out)
        assert leak["oracle"] == leak["analytic"]
        assert "decode_failures=0" in out

    def test_oracle_skipped_over_call_cap(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k",
                                 "255", "--l", "40", "--eps", "0.5",
                                 "--delta", "0.5", "--trials", "300")
        assert code == 0, err
        assert self.leakage_line(out)["oracle"] == "skipped"


class TestConfigPrecedence:
    def _delta_cell(self, out: str) -> str:
        return out.strip().split("\n")[1].split(",")[3]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ndelta = 0.3\n\n")
        _, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                            "--eps", "0", "--config", str(cfg))
        assert self._delta_cell(out) == "0.3"

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.3\n")
        monkeypatch.setenv("ALPIR_DELTA", "0.2")
        _, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                            "--eps", "0", "--config", str(cfg))
        assert self._delta_cell(out) == "0.2"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPIR_DELTA", "0.2")
        _, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                            "--eps", "0", "--delta", "0.1")
        assert self._delta_cell(out) == "0.1"

    def test_env_integer_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPIR_TRIALS", "1000")
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--k", "2")
        assert code == 0
        assert "trials=1000" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--config", str(cfg))
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                               "--config", "/nonexistent/run.cfg")
        assert code == 2

    def test_bool_cast(self):
        assert _bool_cast("1") and _bool_cast("True") and _bool_cast(" yes ")
        assert not _bool_cast("0") and not _bool_cast("off")

    def test_defaults_are_complete(self):
        # every caster key has a default, so resolve_config can't KeyError
        assert set(DEFAULTS) == {
            "n", "k", "l", "eps", "delta", "eps_grid", "delta_grid",
            "trials", "seed", "out", "format", "transport",
            "no_db_relabel", "inject_key_deficit"}
