#!/usr/bin/env python3
"""The performance ledger: one command, every workload, every metric by name.

    python3 benchmarks/ledger/run.py                       # all workloads, end-to-end metrics
    python3 benchmarks/ledger/run.py --traced              # … plus the per-layer tables
    python3 benchmarks/ledger/run.py --workload ie_iter --seed 7 --seconds 12 --trace 0
    python3 benchmarks/ledger/run.py --self-check          # two sets, must agree within bounds
    python3 benchmarks/ledger/run.py --smoke --traced      # tiny inputs (what test_ledger.py runs)

Each repeat of each workload runs in a fresh child process (``child.py``) and
a fresh temporary workspace, one child at a time.  The first child is the
output oracle — it runs iteration 1 and the last iteration cold, and doubles
as the discarded warm-up — then timed children run until ``--seconds`` of child
time (each repeat's set-up plus its timed loop) is spent, at least
``MIN_REPEATS`` of them, or exactly ``--repeats``.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``;
README.md defines every metric and workload.  With one ``--workload`` the last
line of standard output is the contract's JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

MIN_REPEATS = 3
#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150

WORKLOADS = ("census_iter", "ie_iter", "dense_prep", "incremental_append", "service_shared")
PARTITIONED = ("dense_prep", "incremental_append")
#: Trace keys whose wrappers must fire on exactly these workloads and nowhere else;
#: every other key must fire on every workload.
FIRES_ONLY_ON = {
    "incremental.plan": PARTITIONED,
    "partition.split": PARTITIONED,
    "partition.merge": PARTITIONED,
    "service": ("service_shared",),
}
#: Serial workloads: one thread runs the iteration, so self times + residual = wall.
SERIAL = ("census_iter", "ie_iter", "incremental_append")


@dataclasses.dataclass
class Invocation:
    """What one command line asked for, plus every child run it made (failed ones too)."""

    seed: int
    seconds: float
    repeats: Optional[int]
    smoke: bool
    #: Parent of the children's temporary workspaces; inside the checkout, removed at exit.
    work: str
    #: Where ``<short-sha>-<seed>.json`` and the span files go.
    results: str = RESULTS
    runs: List[Dict[str, Any]] = dataclasses.field(default_factory=list)


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def run_child(inv: Invocation, workload: str, mode: str, trace: bool,
              spans_out: Optional[str] = None) -> Dict[str, Any]:
    """One child in its own temporary workspace, removed when the child has ended."""
    workspace = tempfile.mkdtemp(prefix=f"{workload}-", dir=inv.work)
    spec_path = os.path.join(workspace, "spec.json")
    out_path = os.path.join(workspace, "out.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), os.path.dirname(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        with open(spec_path, "w") as handle:
            json.dump({
                "workload": workload, "seed": inv.seed, "smoke": inv.smoke, "mode": mode,
                "trace": trace, "workspace": workspace, "out": out_path,
                "spans_out": spans_out, "spawned_at": time.time(),
            }, handle)
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ledger.child", spec_path],
                env=env, cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, stderr = -1, f"timed out after {CHILD_TIMEOUT_S}s"
        record: Dict[str, Any] = {
            "workload": workload, "mode": mode, "trace": trace,
            "child_wall_s": time.perf_counter() - started, "exit_code": code,
        }
        if code == 0 and os.path.exists(out_path):
            with open(out_path) as handle:
                record.update(json.load(handle))
        else:
            record["error"] = stderr.strip().splitlines()[-8:]
        inv.runs.append(record)
        return record
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


# ---------------------------------------------------------------------------
# One workload: oracle child, timed children, metrics.  A child reports its
# operations — one iteration or one request each — as {"<tenant>:<index>": …}.
# ---------------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(children: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metric values of one set of untraced repeats.

    Times are taken at the noise floor: each operation's wall is the fastest
    of its R repeats, and every time metric is derived from those.  On this
    host a neighbour slows the CPU by ~30% for seconds at a time, so a median
    over a handful of repeats follows the neighbour; an operation is short
    enough to fall wholly inside a quiet stretch in at least one repeat.
    """
    floor: Dict[str, float] = {}
    for child in children:
        for key, it in child["operations"].items():
            floor[key] = min(floor.get(key, float("inf")), it["wall_s"])
    by_tenant: Dict[str, List[float]] = {}
    for key, wall in floor.items():  # "<tenant>:<index>", each tenant's in order
        by_tenant.setdefault(key.split(":")[0], []).append(wall)
    latencies = list(floor.values())
    return {
        # Concurrent closed-loop clients finish when the slower one does.
        "cumulative_wall_s": max(sum(walls) for walls in by_tenant.values()),
        "first_iter_s": statistics.median(walls[0] for walls in by_tenant.values()),
        "reuse_iter_s": statistics.median(w for walls in by_tenant.values() for w in walls[1:]),
        "request_latency_s": statistics.median(latencies),
        "request_latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        "setup_s": statistics.median(child["setup_s"] for child in children),
    }


PER_REPEAT = ("cumulative_wall_s", "reuse_iter_s", "request_latency_s", "peak_rss_mb", "setup_s")
#: Computed and printed, but single operations too noisy on this host to carry a bound.
DETAIL = ("first_iter_s", "request_latency_p90_s")


#: Per-layer metric → trace key whose busy seconds it reports (self time, all threads).
SECONDS_OF = {
    "compiler.busy_s": "compiler",
    "optimizer.estimate_s": "optimizer.estimate",
    "optimizer.solve_s": "optimizer.solve",
    "optimizer.materialize_s": "optimizer.materialize",
    "incremental.plan_s": "incremental.plan",
    "partition.split_s": "partition.split",
    "partition.merge_s": "partition.merge",
    "execution.self_s": "execution",
    "execution.write_wait_s": "execution.write_wait",
    "operators.busy_s": "operators",
    "storage.read_s": "storage.read",
    "storage.encode_s": "storage.encode",
    "storage.write_s": "storage.write",
    "storage.catalog_s": "storage.catalog",
    "bookkeeping.busy_s": "bookkeeping",
    "service.busy_s": "service",
    "residual_s": "residual",
}
#: Per-layer metric → trace key whose wrapper entries it counts.
CALLS_OF = {
    "compiler.calls": "compiler",
    "incremental.calls": "incremental.plan",
    "partition.calls": "partition.split",
    "storage.catalog_calls": "storage.catalog",
    "service.calls": "service",
}
#: Per-layer metric → per-iteration count (``child.observe``) it sums over the repeat.
COUNT_OF = {
    "optimizer.nodes": "nodes",
    "optimizer.load_nodes": "load",
    "optimizer.compute_nodes": "compute",
    "optimizer.prune_nodes": "prune",
    "execution.waves": "waves",
    "execution.tasks": "tasks",
    "partition.chunks_computed": "chunks_computed",
    "partition.chunks_loaded": "chunks_loaded",
    "incremental.chunks_clean": "delta_chunks_clean",
    "incremental.chunks_dirty": "delta_chunks_dirty",
    "incremental.chunks_eligible": "delta_eligible_chunks",
    "incremental.chunks_recomputed": "delta_recomputed_chunks",
}


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metric values: medians over the traced repeats."""
    def med(pick) -> float:
        return statistics.median(pick(child) for child in traced)

    def its(child: Dict[str, Any]) -> List[Dict[str, Any]]:
        return list(child["operations"].values())

    values: Dict[str, float] = {}
    for name, key in SECONDS_OF.items():
        values[name] = med(lambda c: c["layers"][key]["busy_s"])
    for name, key in CALLS_OF.items():
        values[name] = med(lambda c: c["layers"][key]["calls"])
    for name, count in COUNT_OF.items():
        values[name] = med(lambda c: sum(it[count] for it in its(c)))
    values["residual_share"] = med(lambda c: c["layers"]["residual"]["self_s"] / c["root_wall_s"])
    values["operators.compute_s"] = med(lambda c: sum(it["operator_compute_s"] for it in its(c)))
    values["compiler.plan_cache_hits"] = med(
        lambda c: sum(1 for it in its(c) if it["plan_cache"] in ("exact", "structural")))
    values["compiler.plan_cache_misses"] = med(
        lambda c: sum(1 for it in its(c) if it["plan_cache"] == "miss"))
    values["storage.bytes_read"] = med(lambda c: c["registry"].get("bytes_read", 0.0))
    values["storage.bytes_written"] = med(lambda c: c["bytes_written"])
    values["storage.store_bytes"] = med(lambda c: c["store_bytes"])
    values["storage.store_bytes_per_input_byte"] = med(
        lambda c: c["store_bytes"] / c["raw_input_bytes"])
    for tier in ("hot", "memory", "disk"):
        values[f"storage.reads_{tier}"] = med(lambda c: c["registry"].get(f"reads_{tier}", 0.0))
    values["service.queue_wait_s"] = med(lambda c: c.get("queue_wait_s", 0.0))
    for name, stat in (("cache_hits", "hits"), ("cross_tenant_hits", "cross_tenant_hits"),
                       ("evictions", "evictions"), ("admission_rejects", "admission_rejections")):
        values[f"service.{name}"] = med(lambda c: c.get("cache", {}).get(stat, 0))
    values["tracing_overhead_frac"] = (
        end_to_end(traced)["cumulative_wall_s"] / end_to_end(untraced)["cumulative_wall_s"] - 1.0
    )
    return values


def check_outputs(oracle: Dict[str, Any], children: List[Dict[str, Any]], n_ops: int
                  ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages): exceptions, oracle mismatches, cross-repeat drift."""
    attempted = failed = 0
    messages: List[str] = []
    reference = oracle.get("reference")
    if reference is None:
        messages.append(f"oracle child failed: {oracle.get('error')}")
    first_ops: Optional[Dict[str, Dict[str, Any]]] = None
    for number, child in enumerate(children):
        if "operations" not in child:
            attempted += n_ops
            failed += n_ops
            messages.append(f"repeat {number} died: {child.get('error')}")
            continue
        ops = child["operations"]
        attempted += len(ops)
        for key, it in ops.items():
            bad = None
            if it["metrics"] is None:
                bad = "raised"
            elif reference is None:
                bad = "no reference to check against"
            elif key in reference and it["metrics"] != reference[key]:
                bad = f"metrics {it['metrics']} != cold reference {reference[key]}"
            elif first_ops is not None and it["metrics"] != first_ops[key]["metrics"]:
                bad = "metrics differ from repeat 0"
            if bad:
                failed += 1
                messages.append(f"repeat {number} op {key}: {bad}")
        messages.extend(f"repeat {number}: {text}" for text in child["failures"])
        if first_ops is None:
            first_ops = ops
    return attempted, failed, messages


def check_layers(workload: str, traced: List[Dict[str, Any]]) -> List[str]:
    """Wrappers fire exactly where the interaction table says; serial self times sum to wall."""
    problems: List[str] = []
    for child in traced:
        for key, row in child["layers"].items():
            expected = workload in FIRES_ONLY_ON.get(key, WORKLOADS)
            if expected and row["calls"] == 0:
                problems.append(f"{workload}: wrapper {key!r} never fired (entry point renamed?)")
            if not expected and row["calls"] != 0:
                problems.append(f"{workload}: wrapper {key!r} fired {row['calls']}x, expected 0")
        if workload in SERIAL:
            total = sum(row["self_s"] for row in child["layers"].values())
            if abs(total - child["root_wall_s"]) > 1e-6 * max(1.0, child["root_wall_s"]):
                problems.append(
                    f"{workload}: self times {total:.6f}s != run wall {child['root_wall_s']:.6f}s")
    return problems


def run_workload(inv: Invocation, workload: str, trace: bool) -> Dict[str, Any]:
    """Oracle child, then timed children; with ``trace`` they alternate untraced/traced."""
    oracle = run_child(inv, workload, "oracle", False)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    measured = 0.0
    number = 0
    while True:
        want_trace = trace and number % 2 == 1
        target = traced if want_trace else untraced
        done = min(len(untraced), len(traced)) if trace else len(untraced)
        if inv.repeats is not None:
            if done >= inv.repeats:
                break
        elif measured >= inv.seconds and done >= (2 if trace else MIN_REPEATS):
            break
        spans_out = None
        if want_trace and not traced:
            os.makedirs(inv.results, exist_ok=True)
            spans_out = os.path.join(inv.results, f"spans-{workload}-{inv.seed}.jsonl")
        child = run_child(inv, workload, "timed", want_trace, spans_out)
        target.append(child)
        measured += child["child_wall_s"]
        number += 1
        if child["exit_code"] != 0 and number >= 2 * MIN_REPEATS:
            break  # a workload that keeps dying must not spin until the time cap
    alive = [c for c in untraced if "operations" in c]
    alive_traced = [c for c in traced if "operations" in c]
    n_ops = len(alive[0]["operations"]) if alive else 1
    attempted, failed, messages = check_outputs(oracle, untraced + traced, n_ops)
    result: Dict[str, Any] = {
        "workload": workload, "seed": inv.seed, "smoke": inv.smoke,
        "repeats": len(untraced), "traced_repeats": len(traced),
        "attempted": max(1, attempted), "failed": failed, "messages": messages,
        "oracle_s": oracle["child_wall_s"],
    }
    if alive:
        result["end_to_end"] = end_to_end(alive)
        result["per_repeat"] = {
            name: quartiles([child[name] for child in alive]) for name in PER_REPEAT
        }
        result["iterations"] = iteration_table(alive)
        result["input_digest"] = alive[0]["input_digest"]
        result["numpy"] = alive[0].get("numpy")
    if alive and alive_traced:
        result["per_layer"] = per_layer(alive_traced, alive)
        result["layers"] = alive_traced[0]["layers"]
        result["root_wall_s"] = alive_traced[0]["root_wall_s"]
        result["messages"] += check_layers(workload, alive_traced)
    result["correct"] = bool(alive) and failed == 0 and not result["messages"] and (
        not trace or bool(alive_traced))
    return result


def iteration_table(children: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for key, it in children[0]["operations"].items():
        walls = [child["operations"][key]["wall_s"] for child in children]
        rows.append({
            "op": key.lstrip(":"), "category": it["category"], "floor_s": min(walls),
            "median_s": statistics.median(walls),
            "load": it["load"], "compute": it["compute"], "prune": it["prune"],
            "chunks_computed": it["chunks_computed"], "chunks_loaded": it["chunks_loaded"],
        })
    return rows


# ---------------------------------------------------------------------------
# Printing and results files
# ---------------------------------------------------------------------------
def print_result(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']}  seed={result['seed']}  repeats={result['repeats']}"
          f"+{result['traced_repeats']} traced  oracle={result['oracle_s']:.2f}s ==")
    if "end_to_end" in result:
        print(f"{'metric':24s}{'value':>12s} {'unit':6s}{'q1':>10s}{'median':>10s}{'q3':>10s}"
              f"{'n':>4s}{'bound':>7s}   (value: noise floor; quartiles: over repeats)")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            q = result["per_repeat"][name]
            print(f"{name:24s}{result['end_to_end'][name]:12.4f} {spec['unit']:6s}"
                  f"{q[0]:10.4f}{q[1]:10.4f}{q[2]:10.4f}{result['repeats']:4d}{spec['bound']:7.2f}")
        share = result["failed"] / result["attempted"]
        print(f"{'failed_share':24s}{share:12.4f} {'1':6s}  ({result['failed']} of "
              f"{result['attempted']} operations; must be 0)")
        for name in DETAIL:
            print(f"{name:24s}{result['end_to_end'][name]:12.4f} {'s':6s}  (detail: no bound)")
        print(f"\n  {'op':>6s} {'category':9s}{'floor_s':>9s}{'median_s':>9s}"
              f"{'LOAD':>5s}{'COMP':>5s}{'PRUNE':>6s}{'chunks c/l':>12s}")
        for row in result["iterations"]:
            print(f"  {row['op']:>6s} {row['category']:9s}{row['floor_s']:9.4f}{row['median_s']:9.4f}"
                  f"{row['load']:5d}{row['compute']:5d}{row['prune']:6d}"
                  f"{row['chunks_computed']:7d}/{row['chunks_loaded']:<4d}")
    if "layers" in result:
        wall = result["root_wall_s"]
        serial = result["workload"] in SERIAL
        print(f"\n  traced repeat: Σ run wall {wall:.4f}s; "
              + ("self times + residual = wall" if serial
                 else "busy time is summed across threads and may exceed the wall"))
        print(f"  {'layer key':24s}{'calls':>8s}{'self_s':>10s}{'off_thr_s':>10s}"
              + (f"{'share':>8s}" if serial else ""))
        for key, row in result["layers"].items():
            line = f"  {key:24s}{row['calls']:8d}{row['self_s']:10.4f}{row['off_thread_s']:10.4f}"
            if serial and wall:
                line += f"{row['self_s'] / wall:8.1%}"
            print(line)
        print(f"  tracing_overhead_frac = {result['per_layer']['tracing_overhead_frac']:+.3f}")
    for message in result["messages"]:
        print(f"  !! {message}")


def contract_line(result: Dict[str, Any], contract: Dict[str, Any], trace: bool) -> str:
    specs = contract["per_layer"] if trace else contract["end_to_end"]
    source = result.get("per_layer" if trace else "end_to_end", {})
    metrics = {
        spec["name"]: {"value": source[spec["name"]], "unit": spec["unit"]}
        for spec in specs if spec["name"] in source
    }
    correct = result["correct"] and len(metrics) == len(specs)
    return json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"


def write_results(inv: Invocation, results: List[Dict[str, Any]]) -> str:
    """Merge this invocation into ``results/<short-sha>-<seed>.json``."""
    os.makedirs(inv.results, exist_ok=True)
    sha = git_sha()
    path = os.path.join(inv.results, f"{sha}-{inv.seed}.json")
    payload: Dict[str, Any] = {"workloads": {}, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except ValueError:
            pass
    payload["host"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": next((r.get("numpy") for r in results if r.get("numpy")), None),
        "git_sha": sha, "platform": platform.platform(),
    }
    for result in results:
        payload["workloads"][result["workload"]] = result
    payload["runs"].extend(inv.runs)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# --self-check
# ---------------------------------------------------------------------------
def self_check(inv: Invocation, names: List[str], contract: Dict[str, Any]) -> int:
    """Two full sets back to back on the same checkout; each pair must agree within its bound."""
    sets = [{name: run_workload(inv, name, False) for name in names} for _ in range(2)]
    lines = [
        f"self-check: two sets, seed {inv.seed}, sha {git_sha()}, nproc {os.cpu_count()}; value = "
        "noise floor, [q1 median q3] = per-repeat values over the set's repeats",
        f"{'workload':20s}{'metric':20s}{'set 1':>9s} {'[q1 median q3]':27s}{'set 2':>9s} "
        f"{'[q1 median q3]':27s}{'diff':>7s}{'bound':>7s}",
    ]
    worst_ok = True
    for name in names:
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            cells = []
            for one in sets:
                q = one[name]["per_repeat"][metric]
                cells.append(f"{one[name]['end_to_end'][metric]:9.4f} "
                             f"{f'[{q[0]:.4f} {q[1]:.4f} {q[2]:.4f}]':27s}")
            a, b = (one[name]["end_to_end"][metric] for one in sets)
            diff = abs(b - a) / a
            ok = diff <= spec["bound"]
            worst_ok &= ok
            lines.append(f"{name:20s}{metric:20s}{cells[0]}{cells[1]}{diff:7.1%}"
                         f"{spec['bound']:7.2f}{'' if ok else '  FAIL'}")
    failed = sum(r["failed"] for s in sets for r in s.values())
    correct = all(r["correct"] for s in sets for r in s.values())
    lines.append(f"failed operations: {failed}; outputs correct: {correct}; "
                 f"{'PASS' if worst_ok and correct else 'FAIL'}")
    text = "\n".join(lines)
    print(text)
    if not inv.smoke:
        os.makedirs(inv.results, exist_ok=True)
        with open(os.path.join(inv.results, "self_check.txt"), "w") as handle:
            handle.write(text + "\n")
    write_results(inv, list(sets[1].values()))
    return 0 if worst_ok and correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed children per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many timed repeats instead of a time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced repeats, report per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (tier-1 test size)")
    parser.add_argument("--results", default=RESULTS, metavar="DIR",
                        help="where results JSON and span files are written")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"error: {os.path.join(REPO, 'src', 'repro')} not found — the ledger measures "
              "the program in this checkout and cannot run without it", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace or args.traced)
    inv = Invocation(
        seed=args.seed,
        seconds=float(contract["run_seconds"]) if args.seconds is None else args.seconds,
        repeats=args.repeats, smoke=args.smoke,
        work=tempfile.mkdtemp(prefix=".work-", dir=HERE),
        results=os.path.abspath(args.results),
    )
    try:
        if args.self_check:
            return self_check(inv, names, contract)
        results = []
        for name in names:
            result = run_workload(inv, name, trace)
            print_result(result, contract)
            results.append(result)
        path = write_results(inv, results)
        print(f"\nresults: {path}")
        if len(results) == 1:
            print(contract_line(results[0], contract, trace))
        return 0 if all(result["correct"] for result in results) else 1
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
