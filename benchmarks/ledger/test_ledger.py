"""Tier-1 check of the performance ledger at ``--smoke`` size.

Every workload once untraced and once traced, one workload again with another
seed, and one invocation in a directory without ``src/``.
Nothing here asserts a time: the test proves the benchmark runs, names every
metric, traces the layers it says it traces, and generates its inputs from
the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [spec["name"] for spec in CONTRACT["workloads"]]
SERIAL = ("census_iter", "ie_iter", "incremental_append")
PARTITIONED = ("dense_prep", "incremental_append")


def start_ledger(results_dir: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, RUN, "--smoke", "--repeats", "1", "--results", results_dir, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish_ledger(proc: subprocess.Popen, results_dir: str) -> "tuple[str, dict]":
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stdout[-2000:] + stderr[-2000:]
    (name,) = [n for n in os.listdir(results_dir) if n.endswith(".json")]
    with open(os.path.join(results_dir, name)) as handle:
        return stdout, json.load(handle)


@pytest.fixture(scope="module")
def traced_set(tmp_path_factory):
    """Every workload once untraced and once traced, seed 11.

    One invocation per workload, started together: nothing here asserts a
    time, and tier-1 should not wait for fifteen child processes in a row.
    """
    dirs = {name: str(tmp_path_factory.mktemp(name)) for name in WORKLOADS}
    procs = {
        name: start_ledger(dirs[name], "--seed", "11", "--workload", name, "--trace", "1")
        for name in WORKLOADS
    }
    merged = {"workloads": {}, "runs": [], "lines": {}}
    for name, proc in procs.items():
        stdout, payload = finish_ledger(proc, dirs[name])
        merged["workloads"].update(payload["workloads"])
        merged["runs"].extend(payload["runs"])
        merged["host"] = payload["host"]
        merged["lines"][name] = json.loads(stdout.strip().splitlines()[-1])
    return merged


def check_contract_line(line: dict, section: str) -> None:
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 9
    assert sorted(line["metrics"]) == sorted(spec["name"] for spec in CONTRACT[section])
    for spec in CONTRACT[section]:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_every_workload_runs_and_is_correct(traced_set):
    assert sorted(traced_set["workloads"]) == sorted(WORKLOADS)
    for name, result in traced_set["workloads"].items():
        assert result["correct"], (name, result["messages"])
        assert result["failed"] == 0 and result["attempted"] >= 9
    assert traced_set["host"]["nproc"] and traced_set["host"]["numpy"]
    # Every run made is on record: oracle + untraced + traced child per workload.
    assert len(traced_set["runs"]) == 3 * len(WORKLOADS)


def test_every_named_metric_is_present(traced_set):
    for name, result in traced_set["workloads"].items():
        for spec in CONTRACT["end_to_end"]:
            assert result["end_to_end"][spec["name"]] > 0, (name, spec["name"])
        for spec in CONTRACT["per_layer"]:
            assert spec["name"] in result["per_layer"], (name, spec["name"])


def test_wrappers_fire_exactly_where_the_table_says(traced_set):
    for name, result in traced_set["workloads"].items():
        calls = {key: row["calls"] for key, row in result["layers"].items()}
        for key in ("incremental.plan", "partition.split", "partition.merge"):
            assert (calls[key] > 0) == (name in PARTITIONED), (name, key, calls[key])
        assert (calls["service"] > 0) == (name == "service_shared"), (name, calls["service"])
        for key in ("compiler", "optimizer.estimate", "optimizer.solve", "optimizer.materialize",
                    "execution", "execution.write_wait", "operators", "storage.read",
                    "storage.encode", "storage.write", "storage.catalog", "bookkeeping", "residual"):
            assert calls[key] > 0, (name, key)


def test_serial_self_times_plus_residual_equal_wall(traced_set):
    for name in SERIAL:
        result = traced_set["workloads"][name]
        total = sum(row["self_s"] for row in result["layers"].values())
        assert total == pytest.approx(result["root_wall_s"], rel=1e-6)
        assert 0 <= result["per_layer"]["residual_share"] < 1


def test_same_seed_same_inputs(traced_set):
    """The untraced and the traced child generated their inputs independently.

    Only what the seed determines is compared.  LOAD/COMPUTE verdicts, chunk
    and byte counts follow *measured* costs, which tie at this size.
    """
    for name in WORKLOADS:
        timed = [run for run in traced_set["runs"]
                 if run["workload"] == name and run["mode"] == "timed"]
        assert len(timed) == 2
        assert timed[0]["input_digest"] == timed[1]["input_digest"]
        assert timed[0]["raw_input_bytes"] == timed[1]["raw_input_bytes"] > 0
        for key, first in timed[0]["operations"].items():
            second = timed[1]["operations"][key]
            assert first["nodes"] == second["nodes"] == \
                first["load"] + first["compute"] + first["prune"]
            assert first["metrics"] == second["metrics"]


def test_contract_lines_and_another_seed(traced_set, tmp_path):
    for line in traced_set["lines"].values():
        check_contract_line(line, "per_layer")
    stdout, payload = finish_ledger(
        start_ledger(str(tmp_path), "--seed", "12", "--workload", "census_iter", "--trace", "0"),
        str(tmp_path),
    )
    check_contract_line(json.loads(stdout.strip().splitlines()[-1]), "end_to_end")
    # A different seed gives different generated inputs.
    assert payload["workloads"]["census_iter"]["input_digest"] != \
        traced_set["workloads"]["census_iter"]["input_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger: non-zero exit, no result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "ie_iter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
