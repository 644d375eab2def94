"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest ledger/tests -q

Each workload must emit every metric ``BENCHMARK.json`` names, with its
unit, and keep the run's invariants: no failed call, no spec-cache hit
at set-up, one DRC store per request handled on a loss-free loopback.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _check_names(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result = _result(workload, 0)
    metrics = result["metrics"]
    _check_names(metrics, SPEC["end_to_end"])
    assert metrics["success_rate"]["value"] == (
        (result["attempted"] - result["failed"]) / result["attempted"])
    assert metrics["success_rate"]["value"] == 1.0
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    result = _result(workload, 1)
    metrics = result["metrics"]
    _check_names(metrics, SPEC["per_layer"])

    def value(name):
        return metrics[name]["value"]

    assert value("error_rate") == result["failed"] / result["attempted"]
    assert value("error_rate") == 0
    assert value("setup.cache_hits") == 0
    assert value("drc.stores") == value("server.requests")
    assert value("overload.doomed") == 0
    assert value("trace.join_share") >= 0.99
    if workload == "xchg250_spec":
        assert value("server.residual_share") >= 0.99
        assert value("client.residual_share") >= 0.99
        assert value("setup.tempo_s") > 0
    if workload == "xchg_mixed":
        assert value("server.residual_share") <= 0.01
        assert value("server.deadline_share") >= 0.99
        assert value("server.handler_us") > 0
    if workload == "tiny_pipelined":
        assert value("mux.avg_batch") >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".state",
                                                      "__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
