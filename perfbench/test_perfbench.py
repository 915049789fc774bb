"""Tests of the benchmark itself (not of alpir). Run from the repository
root with: python3 -m pytest -q perfbench

Most run perfbench/run.py as a subprocess at tiny sizes (--smoke); a few
call its run_one directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench_run  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(lines) -> dict:
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_exactly_the_declared_metrics(workload, trace):
    rc, lines, err = bench("--workload", workload, "--seed", "3",
                           "--seconds", "0.5", "--trace", str(trace),
                           "--smoke")
    assert rc == 0, err
    out = result(lines)
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        cell = out["metrics"][m["name"]]
        assert cell["unit"] == m["unit"]
        assert isinstance(cell["value"], (int, float))
        if not trace:
            assert cell["value"] > 0


@pytest.mark.parametrize("workload", ["small-mem", "large-tcp", "audit"])
def test_correctness_gate_fails_on_a_wrong_expectation(workload):
    rc, lines, _ = bench("--workload", workload, "--seed", "3",
                         "--seconds", "0.5", "--smoke",
                         "--inject-wrong-expected")
    out = result(lines)
    assert rc != 0
    assert out["correct"] is False and out["failed"] > 0


def test_traced_session_workload_covers_the_session():
    rc, lines, err = bench("--workload", "small-mem", "--seed", "3",
                           "--seconds", "0.5", "--trace", "1", "--smoke")
    assert rc == 0, err
    metrics = {k: v["value"] for k, v in result(lines)["metrics"].items()}
    assert metrics["sim.span_coverage"] >= 0.9
    assert metrics["sim.decode_ok_ratio"] == 1.0
    assert metrics["wire.frames_per_session"] == 4
    spans = ROOT / "perfbench" / "out" / "spans-small-mem-seed3.csv"
    header = spans.read_text().splitlines()[0]
    assert header == "span_id,parent_id,session,name,start_ns,end_ns"


def test_wall_clock_limit_is_reported_as_a_failure(capsys):
    run = perfbench_run.run_one(SPEC, "small-mem", 3, 30, 0, ["--smoke"],
                                limit_s=2)
    assert "wall-clock limit" in capsys.readouterr().err
    assert run["correct"] is False and run["failed"] == run["attempted"] == 1


def test_a_process_without_a_result_is_counted_as_failed(capsys):
    run = perfbench_run.run_one(SPEC, "no-such-workload", 3, 0.2, 0,
                                ["--smoke"])
    assert "without a result" in capsys.readouterr().err
    assert run["correct"] is False and run["failed"] == run["attempted"] == 1


def test_traced_session_run_missing_its_own_layer_fails(monkeypatch):
    child = perfbench_run._child

    def drop_layer(argv, deadline):
        res = child(argv, deadline)
        del res["metrics"]["sim.trace_overhead"]
        return res

    monkeypatch.setattr(perfbench_run, "_child", drop_layer)
    run = perfbench_run.run_one(SPEC, "small-mem", 3, 0.3, 1, ["--smoke"])
    assert run["correct"] is False
    assert "sim.trace_overhead" not in run["metrics"]


def test_processes_of_a_run_must_agree_on_the_records(monkeypatch):
    child, calls = perfbench_run._child, []

    def vary_digest(argv, deadline):
        res = child(argv, deadline)
        calls.append(argv)
        if len(calls) == 2:
            res["records_sha256"] = "0" * 64
        return res

    monkeypatch.setattr(perfbench_run, "_child", vary_digest)
    run = perfbench_run.run_one(SPEC, "small-mem", 3, 0.5, 0, ["--smoke"])
    assert len(calls) == perfbench_run.PROCESSES
    assert run["correct"] is False and run["failed"] == 1


def test_record_digest_repeats_for_a_seed():
    digests = set()
    for _ in range(2):
        rc, lines, err = bench("--workload", "small-mem", "--seed", "5",
                               "--seconds", "0.2", "--smoke")
        assert rc == 0, err
        digests |= {ln.split()[-1] for ln in lines
                    if ln.startswith("# records_sha256")}
    assert len(digests) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines, err = bench("--workload", "small-mem", "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           cwd=tmp_path, timeout=60)
    assert rc != 0 and "error" in err
    assert not any(ln.startswith("{") for ln in lines)


def test_all_and_compare(tmp_path):
    out = tmp_path / "a.json"
    rc, lines, err = bench("--all", "--seeds", "1,2", "--seconds", "0.2",
                           "--smoke", "--out", str(out))
    assert rc == 0, err
    text = "\n".join(lines)
    for name in ("sessions_per_s", "retrieved_MBps", "session_p50_us",
                 "audit_s", "setup_s", "peak_rss_MB", "failed_share"):
        assert name in text
    doc = json.loads(out.read_text())
    assert {"commit", "nproc", "python", "network", "runs"} <= set(doc)
    assert "loopback only" in doc["network"]
    rc, lines, err = bench("--compare", str(out), str(out))
    assert rc == 0, err
    rows = [ln for ln in lines if ln.split()[0] in WORKLOADS]
    metrics = [m["name"] for m in SPEC["end_to_end"]] + ["failed_share"]
    assert len(rows) == len(WORKLOADS) * len(metrics)
    assert all(ln.split()[-1] == "unresolved" for ln in rows)
