"""Command-line behavior: grids, tables, precedence, exit codes."""

import hashlib
import json
import math
import re

import pytest

from alpir.cli import (BOUNDS_FIELDS, DEFAULTS, MAX_GRID_POINTS, main,
                       parse_grid)
from alpir.selfcheck import run_all
from bounds_reference import reference_forms, ulps


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

    @pytest.mark.parametrize("command, flag, value", [
        ("bounds", "--delta", "nan"), ("bounds", "--delta", "inf"),
        ("bounds", "--delta-grid", "inf"), ("verify", "--delta", "nan"),
        ("verify", "--delta", "inf"),
    ])
    def test_single_server_refuses_non_finite_delta(self, capsys, command,
                                                    flag, value):
        """Each once printed a feasible row (or PASS) with cost 3 and
        exited 0, where N >= 2 exits 2."""
        code, out, err = run_cli(capsys, command, "--n", "1", "--k", "3",
                                 flag, value)
        assert (code, out, err) == (
            2, "", "error: delta must be finite and >= 0\n")

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--k", "1")
        assert code == 2
        assert "error:" in err


class TestPastTheDoubleRange:
    """Points whose N^(K-1), F^(K-1) or e^eps pass the double range. They
    once ended in an OverflowError, a 0.0 threshold or an eps cap; every
    row is now finite and matches the exact reference."""

    @pytest.mark.parametrize("args", [
        ("--n", "2", "--k", "1100"),
        ("--n", "2", "--k", "1100", "--delta", "0.1"),
        ("--n", "7", "--k", "40", "--eps", "49.9"),
        ("--n", "7", "--k", "14", "--eps", "49.9", "--delta", "0"),
        ("--n", "2", "--k", "2", "--eps", "710"),
        ("--n", "2", "--k", "2", "--eps", "1e6", "--delta", "0.1"),
    ], ids=["k1100", "k1100-leaky-db", "n7-k40-eps49.9", "n7-k14-eps49.9",
            "eps710", "eps1e6"])
    def test_bounds_row_is_exact(self, capsys, args):
        code, out, err = run_cli(capsys, "bounds", *args,
                                 "--format", "json-lines")
        assert code == 0, err
        row = json.loads(out)
        assert all(math.isfinite(v) for v in row.values()
                   if isinstance(v, float)), row
        ref = reference_forms(row["n"], row["k"], row["eps"], row["delta"])
        for name in ("delta1", "delta2", "d_upper", "d_lower"):
            assert ulps(row[name], ref[name], row[name]) <= 4, name
        # 0.0 only where the exact value is below every double (eps = 1e6)
        assert (row["delta2"] == 0.0) == (float(ref["delta2"]) == 0.0)

    @pytest.mark.parametrize("eps", ["0", "800"])
    def test_database_count_past_the_cap(self, capsys, eps):
        """N = 2^520 + 1 once printed delta1 = 0.0 (eps 0) or ended in an
        OverflowError traceback (eps 800)."""
        code, out, err = run_cli(capsys, "bounds", "--n", str(2 ** 520 + 1),
                                 "--k", "2", "--eps", eps)
        assert code == 2
        assert out == ""
        assert err == "error: n_databases must be an integer from 1 to " \
            "2^500\n"

    def test_no_jump_at_eps_fifty(self, capsys):
        """eps = 50 was once treated as infinite: d_upper 1.0, NoPrivacy."""
        for eps in ("49.9", "50"):
            code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                                   "--eps", eps, "--delta", "0",
                                   "--format", "json-lines")
            row = json.loads(out)
            assert code == 0
            assert (row["d_upper"], row["regime"]) == (2.0, "General")

    def test_simulate_inside_the_wire_range(self, capsys):
        """N=20 K=255: N^K passes the double range, so p and q are both
        below the smallest double, and p / q is read from e^eps."""
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--k",
                                 "255", "--l", "19", "--eps", "0.5",
                                 "--delta", "0.1", "--trials", "300")
        assert code == 0, err
        assert "analytic=1.64872127 " in out
        assert "nan" not in out and "inf" not in out
        assert out.rstrip().endswith("verdict: PASS")


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

    @pytest.mark.parametrize("flag, grid", [
        ("--eps-grid", "0:inf:1"), ("--eps-grid", "inf:inf:1"),
        ("--delta-grid", "0:1:inf"), ("--delta-grid", "nan:1:0.5"),
    ])
    def test_non_finite_grid_is_a_clean_error(self, capsys, flag, grid):
        """0:inf:1 once ended in an OverflowError traceback."""
        code, out, err = run_cli(capsys, "sweep", "--n", "2", "--k", "2",
                                 flag, grid)
        assert (code, out) == (2, "")
        assert err == f"error: grid {grid!r} needs finite a, b and s\n"

    @pytest.mark.parametrize("flag,grid", [
        ("--eps-grid", "-1e308:1e308:1"), ("--delta-grid", "0:1:1e-300"),
    ])
    def test_huge_grid_is_a_clean_error(self, capsys, flag, grid):
        """The first once ended in an OverflowError traceback; the second
        asked for a list of 10^300 points."""
        code, out, err = run_cli(capsys, "sweep", "--n", "2", "--k", "2",
                                 f"{flag}={grid}")
        assert (code, out) == (2, "")
        assert err == (f"error: grid {grid!r} has over {MAX_GRID_POINTS} "
                       "points\n")

    def test_bad_first_row_opens_no_out_file(self, capsys, tmp_path):
        """The first row is built before --out is opened, so a bad
        parameter leaves no file behind."""
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "sweep", "--n", "2", "--k", "2",
                                 "--delta", "-1", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert not out_path.exists()


    @pytest.mark.parametrize("args, error", [
        (("--n", "2,3", "--k", "2", "--l", "5", "--eps-grid", "0:0.1:0.05",
          "--delta", "0"), "message_bits must be divisible by n_databases"),
        (("--n", "2", "--k", "2,1", "--eps", "0", "--delta", "0"),
         "n_messages must be an integer >= 2"),
    ], ids=["l-not-divisible", "k-below-two"])
    def test_bad_later_shape_writes_nothing(self, capsys, tmp_path, args,
                                            error):
        """Every shape is checked before the first row: these wrote the
        rows of the good first shape, then exited 2."""
        for out_path in (None, tmp_path / "rows.csv"):
            extra = ("--out", str(out_path)) if out_path else ()
            code, out, err = run_cli(capsys, "sweep", *args, *extra)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {error}")
        assert not out_path.exists()

    @pytest.mark.parametrize("args", [("--n", ",", "--k", "2"),
                                      ("--n", "2", "--k", ",")],
                             ids=["empty-n", "empty-k"])
    def test_empty_shape_list_is_a_clean_error(self, capsys, tmp_path, args):
        """Each once printed only the CSV header and exited 0."""
        out_path = tmp_path / "rows.csv"
        for extra in ((), ("--out", str(out_path))):
            code, out, err = run_cli(capsys, "sweep", *args, *extra)
            assert (code, out) == (2, "")
            assert err == "error: sweep needs at least one n and one k\n"
        assert not out_path.exists()

    def test_first_bad_row_names_the_error(self, capsys):
        """With several bad values, the error is the first bad row's."""
        cases = [
            (("--n", "2,3", "--eps-grid=-1:1:1", "--delta", "0"),
             "eps must be >= 0"),
            (("--n", "2,3", "--eps", "0", "--delta-grid=-1:0:1"),
             "delta must be finite and >= 0"),
            (("--n", "3,2", "--eps", "-1", "--delta", "-1"),
             "message_bits must be divisible by n_databases - 1 "
             "(subpacketization requirement)"),
        ]
        for args, error in cases:
            code, out, err = run_cli(capsys, "sweep", "--k", "2", "--l", "5",
                                     *args)
            assert (code, out, err) == (2, "", f"error: {error}\n")

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

    def test_cost_sigma_keeps_its_bits_at_large_eps(self, capsys):
        """The cost audit's sigma took 1 - low_total, which cancelled to 0
        at eps = 40, so the audit fell back to an exact-equality test."""
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                                 "--l", "4", "--eps", "40", "--delta", "0.5",
                                 "--trials", "200", "--seed", "1")
        assert code == 0, err
        assert "cost: empirical=1 expected=1 sigma=1.46e-10 ok" in out

    def test_leakage_keeps_its_bits_at_large_eps(self, capsys):
        """The high-cost weight 1 - N p once cancelled to 0 at eps = 40:
        effective_delta=0 and analytic=0, next to oracle=1.6993417e-17."""
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                                 "--l", "4", "--eps", "40", "--delta", "0.5",
                                 "--trials", "200", "--seed", "1")
        assert code == 0, err
        fields = {ln.split(":")[0]: dict(f.split("=") for f in ln.split()
                                         if "=" in f)
                  for ln in out.splitlines()[1:]}
        high = reference_forms(2, 2, 40.0, 0.5)["high_total"]
        # 4 open bits of a 4-bit message: delta is high_total, leakage 4x.
        assert float(fields["layout"]["effective_delta"]) == pytest.approx(
            float(high), rel=1e-8)
        leak = fields["db leakage"]
        assert float(leak["analytic"]) == pytest.approx(float(4 * high),
                                                        rel=1e-8)
        assert leak["analytic"] == leak["oracle"]

    def test_oversize_answer_frames_fail_cleanly(self, capsys):
        """An answer frame of 17,500,018 bytes, past wire.MAX_FRAME_BYTES,
        once ended in a server thread's traceback and then the client's.
        It is now one error line, before any store is drawn."""
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                                 "--l", "140000000", "--eps", "0.5",
                                 "--delta", "0.1", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == ("error: answer frames of 17500018 bytes exceed the "
                       "16777216-byte frame limit; lower l\n")


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

    def test_point_oracle_past_the_double_range(self, capsys):
        """N=2 K=1100: the oracle's weighted HIGH sum passes 2^1024. It
        once ended in an OverflowError traceback from q times that int."""
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--k", "1100",
                                 "--l", "2", "--eps", "0.5", "--delta", "0.5")
        assert code == 0, err
        assert "PASS point-leakage: oracle=1 analytic=1 budget=1\n" in out

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
    not grow with l, and they were re-pinned with its exact value. The
    bounds and sweep rows cover the single-server table, eps = 49.9, 50
    and inf, and the benchmark's 46,359-row grid. eps = 50 was once
    treated as infinite; its row was re-pinned when that cap went. The
    two verify rows were re-pinned when the closed-form leakage started
    to take 1 - N p from the law's own terms: their oracle-agreement
    line's max |diff| went from 2.22e-16 to 0."""

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
         "043feb5cc5e9331d768b2dea7f24e790e227f0cea5127a4e69d9f7e1f9747bbc"),
        (("verify", "--inject-key-deficit", "-1"), 1,
         "1dd92f81f8fc5af0414789d4c931c69afe32b2da54cf5c08b4a81d9bc954d68f"),
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

    EDGE = ("--n", "2,3,5", "--k", "2,4", "--delta-grid", "0:1:0.125",
            "--format", "json-lines")

    @pytest.mark.parametrize("args, out_sha", [
        (("bounds", "--n", "1", "--k", "3", "--delta-grid", "0:3:0.5"),
         "ecad43e2e80cc5e255e52eb2b75beddb166d2b8f3d0dcd78ca5b9ed2c145e058"),
        (("sweep", *EDGE, "--eps", "inf"),
         "4744a68da467bc2b6a3cf716d1260572685f2d965c3034872607c92877377b2d"),
        (("sweep", *EDGE, "--eps", "50"),
         "32aed4f394536442b8a9d4c2ab8699dcb5a2e44c329d65730713c2c077b776cc"),
        (("sweep", *EDGE, "--eps", "49.9"),
         "a19614b81a54e73ed5f1282352bf8d42c08b71de36f5d8ca22025f6bbce29ebe"),
    ], ids=["bounds-single-server", "sweep-eps-inf", "sweep-eps-cap",
            "sweep-eps-below-cap"])
    def test_bounds_stdout(self, capsys, args, out_sha):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert self.digest(out) == out_sha

    def test_audit_sweep_file(self, capsys, tmp_path):
        """The 46,359-row grid of the benchmark's audit workload."""
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,3,5", "--k",
                               "2,3,4", "--eps-grid", "0:5:0.05",
                               "--delta-grid", "0:1:0.02", "--out",
                               str(out_path))
        assert code == 0 and out == ""
        assert self.digest(out_path.read_bytes()) == (
            "bce35dfa6bc89dd91704fc75cbef2c09cdddba30424aa678787e7c4de3df74f0")

    def test_audit_sweep_json_lines(self, capsys, tmp_path):
        """The same grid as json-lines, so float text is pinned in both
        formats."""
        out_path = tmp_path / "sweep.jsonl"
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,3,5", "--k",
                               "2,3,4", "--eps-grid", "0:5:0.05",
                               "--delta-grid", "0:1:0.02", "--format",
                               "json-lines", "--out", str(out_path))
        assert code == 0 and out == ""
        assert self.digest(out_path.read_bytes()) == (
            "13f606a4cbbbdb432b1419e7f0e2cbff1ca4c3c71da929fee9fdefec4f32a246")


class TestSimulateLargeMessages:
    """The rank oracle's K N answer calls do not grow with L, so simulate
    prints its exact value at every L, equal to the closed form, and at
    K=255 for N=2 and N=3, as at every shape the wire carries."""

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

    def test_oracle_exact_at_wide_k(self, capsys):
        """510 answer calls; the unreduced oracle would take 260,100."""
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k",
                                 "255", "--l", "40", "--eps", "0.5",
                                 "--delta", "0.5", "--trials", "300")
        assert code == 0, err
        leak = self.leakage_line(out)
        assert leak["oracle"] == leak["analytic"] == "20"

    def test_oracle_exact_at_three_databases(self, capsys):
        """765 answer calls, where multisets of the undesired values would
        take 97,920, over the cap."""
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--k",
                                 "255", "--l", "40", "--eps", "0.5",
                                 "--delta", "0.5", "--trials", "300")
        assert code == 0, err
        leak = self.leakage_line(out)
        assert leak["oracle"] == leak["analytic"] == "20"


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

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_format_from_env_or_config(self, capsys, tmp_path, monkeypatch,
                                       source):
        """--format's choices hold wherever the format comes from: a known
        one is used, and an unknown one exits 2 with one error line before
        --out is opened."""
        cfg = tmp_path / "run.cfg"
        for fmt in ("json-lines", "xml"):
            args = ["bounds", "--n", "2", "--k", "2"]
            if source == "env":
                monkeypatch.setenv("ALPIR_FORMAT", fmt)
            else:
                cfg.write_text(f"format = {fmt}\n")
                args += ["--config", str(cfg)]
            out_path = tmp_path / f"{fmt}.out"
            code, out, err = run_cli(capsys, *args, "--out", str(out_path))
            if fmt == "json-lines":
                assert (code, out, err) == (0, "", "")
                assert json.loads(out_path.read_text())["regime"] == "SPIR"
            else:
                assert (code, out) == (2, "")
                assert err == ("error: unknown format 'xml'; "
                               "choose from csv, json-lines\n")
                assert not out_path.exists()

    def test_defaults_are_complete(self):
        # every caster key has a default, so resolve_config can't KeyError
        assert set(DEFAULTS) == {
            "n", "k", "l", "eps", "delta", "eps_grid", "delta_grid",
            "trials", "seed", "out", "format", "transport",
            "inject_key_deficit"}


class TestFlagsPerSubcommand:
    """Each subcommand's command line takes only the settings it runs. The
    flags of the other subcommands were once accepted and ignored: simulate
    --eps-grid simulated eps = 0 and printed its verdict."""

    TABLE = ("--n", "--k", "--l", "--eps", "--delta", "--eps-grid",
             "--delta-grid", "--out", "--format")
    FLAGS = {
        "bounds": TABLE,
        "sweep": TABLE,
        "simulate": ("--n", "--k", "--l", "--eps", "--delta", "--trials",
                     "--seed", "--out", "--format", "--transport"),
        "verify": ("--n", "--k", "--l", "--eps", "--delta",
                   "--inject-key-deficit"),
    }

    def test_help_lists_exactly_the_subcommands_flags(self, capsys):
        total = 0
        for name, flags in self.FLAGS.items():
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            listed = set(re.findall(r"--[a-z][a-z-]*", out))
            assert listed == {"--help", "--config", *flags}, name
            total += len(listed) - 1
        assert total == 38

    @pytest.mark.parametrize("args", [
        ("simulate", "--n", "2", "--k", "2", "--eps-grid", "0:1:0.5",
         "--trials", "1000"),
        ("verify", "--out", "{out}"),
        ("bounds", "--trials", "5"),
    ], ids=["simulate-eps-grid", "verify-out", "bounds-trials"])
    def test_flag_of_another_subcommand_is_refused(self, capsys, tmp_path,
                                                   args):
        out_path = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out_path) for a in args])
        cap = capsys.readouterr()
        assert (exc.value.code, cap.out) == (2, "")
        assert "unrecognized arguments" in cap.err
        assert not out_path.exists()

    def test_env_transport_is_checked_before_any_session(self, capsys,
                                                         monkeypatch):
        def no_sessions(*args, **kwargs):
            raise AssertionError("sessions ran")

        monkeypatch.setattr("alpir.netsim.run_trials", no_sessions)
        monkeypatch.setenv("ALPIR_TRANSPORT", "xml")
        code, out, err = run_cli(capsys, "simulate", "--trials", "10")
        assert (code, out) == (2, "")
        assert err == ("error: unknown transport 'xml'; "
                       "choose from memory, tcp\n")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("key", ["eps_grid", "delta_grid"])
    @pytest.mark.parametrize("source", ["env", "config"])
    def test_grid_for_one_point_is_refused(self, capsys, tmp_path,
                                           monkeypatch, command, key, source):
        """ALPIR_EPS_GRID=0:1:0.5 alpir simulate once simulated eps = 0 and
        printed verdict: PASS. No session or check may run."""
        def nothing_runs(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr("alpir.netsim.run_trials", nothing_runs)
        monkeypatch.setattr("alpir.selfcheck.run_all", nothing_runs)
        args = [command, "--n", "2", "--k", "2"]
        if source == "env":
            monkeypatch.setenv("ALPIR_" + key.upper(), "0:1:0.5")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = 0:1:0.5\n")
            args += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err == (f"error: {key} is for bounds and sweep; {command} "
                       "runs one point\n")

    def test_shared_config_sets_any_key(self, capsys, tmp_path):
        """A config file may hold every subcommand's keys; each subcommand
        uses the ones it runs."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 5\nseed = 1\ntransport = tcp\n"
                       "inject-key-deficit = -1\ndelta = 0.3\n")
        code, out, err = run_cli(capsys, "bounds", "--n", "2", "--k", "2",
                                 "--eps", "0", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.strip().split("\n")[1].split(",")[3] == "0.3"
