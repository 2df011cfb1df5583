"""Smoke test of the spine benchmark: the code paths, not the numbers.

Runs ``run.py --smoke`` (tiny datasets, one second) as the driver would,
and checks the contract: the last stdout line is one JSON object whose
metrics are exactly those BENCHMARK.json names for that trace mode, every
answer was checked, the traced run leaves a loadable trace, nothing is
left running, and a checkout without the program is refused.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def spine(*args: str, cwd: str = REPO) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "benchmarks", "spine", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def contract_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def servers_left() -> list[str]:
    """Command lines of any ``server.py`` still alive."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                command = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process ended while we were looking
        if "spine/server.py" in command:
            found.append(command)
    return found


def test_untraced_run_reports_the_end_to_end_metrics():
    result = contract_line(spine("--smoke", "--workload", "zoom_filter", "--seed", "3",
                                 "--trace", "0"))
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        measured = result["metrics"][spec["name"]]
        assert measured["unit"] == spec["unit"] and measured["value"] > 0
    assert servers_left() == []


def test_traced_run_reports_every_layer_and_writes_a_trace(tmp_path):
    result = contract_line(spine("--smoke", "--workload", "warm_repeat", "--seed", "4",
                                 "--trace", "1", "--out", str(tmp_path)))
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["engine.cache_hit_share"]["value"] == 1.0
    with open(tmp_path / "trace_warm_repeat.json") as f:
        events = json.load(f)["traceEvents"]
    names = {event["name"] for event in events}
    assert {"unit", "request:sketch", "send", "wait_first", "decode", "queue_wait"} <= names
    with open(tmp_path / "results.jsonl") as f:
        assert json.loads(f.readline())["workload"] == "warm_repeat"
    assert servers_left() == []


def test_workloads_in_benchmark_json_are_the_ones_that_run():
    done = spine("--workload", "no_such_workload")
    assert done.returncode == 2
    listed = done.stderr.strip().rsplit("one of ", 1)[1].split(", ")
    assert listed == [w["name"] for w in BENCHMARK["workloads"]]


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = spine("--workload", "chart_scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0 and done.stdout == ""


def test_compare_verdicts():
    spec = importlib.util.spec_from_file_location("spine_compare", os.path.join(HERE, "compare.py"))
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10)[0] == "same"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.10)[0] == "worse"
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"
