"""Run one benchmark workload against the braidalg source tree in the current directory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {tables,associator,invariants} \\
        --seed N --seconds S --trace {0,1}

Children are started one at a time with PYTHONPATH=src; each imports braidalg,
does one CLI job or one query stream, and reports timings and outputs.  Every
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it print the same metrics for a reader, with the failure ratio and
sample counts.  Work files go under .bench_work/ in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_SECONDS
from checks import check_item, check_job
from tracing import layer_stats, load_spans, merge_stats, unattributed_s
from workloads import PHI7_FIXTURE, WORKLOADS, associator_jobs, invariant_items, table_jobs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 170.0  # every child is stopped by then; a run may take 180 s
# --seconds sizes the work of a run, which is then the same on every commit:
# one pass of the job list per PASS_SECONDS, and
# seconds * ITEMS_PER_SECOND query items, split evenly over the set-ups.
# Every time is scaled by the host's speed next to it (see to_reference); a
# job's time is then the median over the passes.
PASS_SECONDS = 3.3
ITEMS_PER_SECOND = 40
MIN_ITEMS = 170  # at least 200 queries, so that p95 has ten samples beyond it
INVARIANT_SETUPS = 3  # children per invariants run, each running its own slice of the stream

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("dim", "delta-kernel", "check-associator", "extend-associator", "check-yb", "eval")
PER_LAYER = (
    *((f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS),
    ("linalg.add.calls", "count"),
    ("linalg.add.self_s", "s"),
    ("linalg.add.useful_ratio", "ratio"),
    ("linalg.reduce.calls", "count"),
    ("linalg.reduce.self_s", "s"),
    ("linalg.affine_solve.calls", "count"),
    ("linalg.affine_solve.s", "s"),
    ("quotient.build_graded_basis.calls", "count"),
    ("quotient.build_graded_basis.self_s", "s"),
    ("quotient.build.infinitesimal_artin.s", "s"),
    ("quotient.build.oriented_artin.s", "s"),
    ("quotient.build.oriented_upper_triangular.s", "s"),
    ("quotient.normal_form.calls", "count"),
    ("quotient.normal_form.s", "s"),
    ("quotient.table_rows", "count"),
    ("quotient.table_nnz", "count"),
    ("quotient.cache_bytes_written", "bytes"),
    ("quotient.cache_bytes_read", "bytes"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.exp.s", "s"),
    ("series.log.s", "s"),
    ("series.inverse.s", "s"),
    ("series.substitute.s", "s"),
    ("series.act.calls", "count"),
    ("series.act.s", "s"),
    ("series.parse_series.calls", "count"),
    ("series.parse_series.s", "s"),
    ("sdseries.construct.calls", "count"),
    ("sdseries.construct.self_s", "s"),
    ("sdseries.mul.s", "s"),
    ("reps.eval_welded.calls", "count"),
    ("reps.eval_welded.s", "s"),
    ("reps.eval_drinfeld.s", "s"),
    ("reps.eval_rho3.s", "s"),
    ("reps.rho3_delta.s", "s"),
    ("words.words_equal_in_bp.calls", "count"),
    ("words.words_equal_in_bp.s", "s"),
    ("associator.extend_semi_associator.calls", "count"),
    ("associator.extend_semi_associator.s", "s"),
    *((f"associator.check_axiom.{ax}.s", "s") for ax in ("AE", "AS", "H1", "H3", "P")),
    ("associator.check_yang_baxter.s", "s"),
    ("lyndon.lie_basis.calls", "count"),
    ("lyndon.lie_basis.s", "s"),
    ("invariants.distinguish.calls", "count"),
    ("invariants.distinguish.s", "s"),
    ("invariants.vassiliev_degree.calls", "count"),
    ("invariants.vassiliev_degree.s", "s"),
    ("invariants.delta_kernel.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
)
# Per-layer metrics read from a variant span "<layer>[<variant>]" instead of "<layer>".
VARIANT_METRICS = {"quotient.build.": "quotient.build_graded_basis", "associator.check_axiom.": "associator.check_axiom"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def median_times(runs: list) -> list:
    """Per operation, the median of its timings over repeated runs of the same operations."""
    keys = sorted({key for run in runs for key in run})
    return [statistics.median(run[key] for run in runs if key in run) for key in keys]


def to_reference(seconds: float, before: float, after: float) -> float:
    """An operation's time in seconds of the reference machine.

    ``before`` and ``after`` are the reference samples taken in the same
    process just before and just after the operation.  The host's speed
    swings by up to 2x within seconds and drifts by a third between runs a
    minute apart, and an operation's time moves with it; the reference
    work next to it moves the same way, so the ratio of the two, times the
    reference work's time on the reference machine, is steady where either
    alone is not.
    """
    return seconds * REFERENCE_SECONDS / ((before + after) / 2)


def print_host(raw_wall: float, refs: list):
    print(f"unscaled wall {raw_wall:.4f} s; reference work: median {statistics.median(refs) * 1000:.3f} ms"
          f" of {len(refs)} samples, {REFERENCE_SECONDS * 1000:.3f} ms on the reference machine")


def p95(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


class Runner:
    """Starts children one at a time inside the run budget and collects failures."""

    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = now() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.spawned = 0
        self.failures: list = []

    def spawn(self, spec: dict):
        """Run one child to completion; its result dict (with ``t0``), or None on failure."""
        self.spawned += 1
        tag = f"{self.spawned:04d}"
        spec = dict(spec, src=self.src, result=os.path.join(self.work, f"result-{tag}.json"))
        if spec.get("trace"):
            spec["trace"] = os.path.join(self.work, f"spans-{tag}.bin")
        spec_path = os.path.join(self.work, f"spec-{tag}.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        timeout = self.deadline - now()
        if timeout <= 0:
            self.failures.append("run budget exhausted before a child could start")
            return None
        t0 = now()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
            cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.failures.append(f"child {tag} stopped at the run budget of {RUN_BUDGET_S:.0f} s")
            return None
        if proc.returncode != 0:
            self.failures.append(f"child {tag} exited {proc.returncode}: {err.strip()[-600:]}")
            return None
        with open(spec["result"]) as handle:
            result = json.load(handle)
        result["t0"] = t0
        result["spans"] = spec.get("trace")
        return result


# -- the job workloads: tables and associator ----------------------------------------


def run_job_pass(runner: Runner, jobs: list, traced: bool, calibrate: bool = False) -> dict:
    """Every job once, each a fresh CLI process, in a clean work dir."""
    for job in jobs:
        if job["cache_dir"]:
            shutil.rmtree(os.path.join(runner.work, job["cache_dir"]), ignore_errors=True)
    phi = os.path.join(runner.work, "phi.txt")
    if os.path.exists(phi):
        os.unlink(phi)
    with open(os.path.join(runner.work, "one.txt"), "w") as handle:
        handle.write("1\n")
    rec = {"ops": {}, "setups": [], "rss": [], "by_cmd": {}, "attempted": 0, "failed": 0,
           "spans": [], "tables": [], "missing": set(), "raw_ops": {}, "refs": []}
    outputs = {}
    for job in jobs:
        rec["attempted"] += 1
        res = runner.spawn({"mode": "cli", "argv": job["argv"], "trace": traced, "calibrate": calibrate})
        if res is None:
            rec["failed"] += 1
            continue
        op = res["end"] - res["start"]
        setup = res["ready"] - res["t0"]
        rec["raw_ops"][job["name"]] = op
        rec["refs"].extend(res["refs"])
        if calibrate:
            op, setup = (to_reference(t, *res["refs"]) for t in (op, setup))
        rec["ops"][job["name"]] = op
        rec["setups"].append(setup)
        rec["rss"].append(res["maxrss_kb"])
        rec["by_cmd"][job["argv"][0]] = rec["by_cmd"].get(job["argv"][0], 0.0) + op
        if traced:
            rec["spans"].append(res["spans"])
            rec["tables"].append(res["tables"])
            rec["missing"].update(res["missing"])
        error = None
        if res["rc"] != 0:
            error = f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                outputs[job["name"]] = json.loads(res["stdout"].strip().splitlines()[-1])
            except (IndexError, ValueError):
                error = "no structured output"
            else:
                error = check_job(job["check"], outputs[job["name"]], outputs)
        if error:
            rec["failed"] += 1
            runner.failures.append(f"{job['name']}: {error}")
    rec["wall"] = sum(rec["raw_ops"].values())
    rec["cache_bytes_written"] = sum(
        dir_bytes(os.path.join(runner.work, job["cache_dir"])) for job in jobs if job["cache_dir"]
    )
    return rec


def job_workload(runner: Runner, jobs: list, pass_count: int, trace: bool):
    if trace:
        plain = run_job_pass(runner, jobs, False)
        traced = run_job_pass(runner, jobs, True)
        passes = [plain, traced]
        metrics = layer_metrics(
            traced,
            untraced_wall=plain["wall"],
            by_cmd=plain["by_cmd"],
            bytes_written=traced["cache_bytes_written"],
            bytes_read=0,
        )
    else:
        passes = [run_job_pass(runner, jobs, False, calibrate=True) for _ in range(pass_count)]
        ops = median_times([rec["ops"] for rec in passes])
        metrics = {
            "setup_s": statistics.median(s for rec in passes for s in rec["setups"]),
            "wall_s": sum(ops),
            "query_p50_ms": statistics.median(ops) * 1000,
            "query_p95_ms": p95(ops) * 1000,
            "peak_rss_mb": max(r for rec in passes for r in rec["rss"]) / 1024,
        }
        print_host(sum(median_times([rec["raw_ops"] for rec in passes])),
                   [r for rec in passes for r in rec["refs"]])
        print(f"passes {len(passes)}, jobs {len(jobs)}, latency samples {len(ops)} (median of {len(passes)} each)")
    attempted = sum(rec["attempted"] for rec in passes)
    failed = sum(rec["failed"] for rec in passes)
    return metrics, attempted, failed


# -- the invariants workload ------------------------------------------------------------


def prime_cache(runner: Runner, root: str) -> str:
    """Build the warm cache once per source tree; rebuilt when any source file changes."""
    cache = os.path.join(root, ".bench_work", "invariants-cache")
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "braidalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    marker = cache + ".primed"
    if os.path.exists(marker) and open(marker).read() == digest.hexdigest():
        return cache
    shutil.rmtree(cache, ignore_errors=True)
    if runner.spawn({"mode": "queries", "cache_dir": cache, "seed": 0, "count": 0}) is None:
        return cache
    with open(marker, "w") as handle:
        handle.write(digest.hexdigest())
    return cache


def check_stream(runner: Runner, seed: int, res: dict) -> tuple:
    """Check every item of one child's stream; (queries attempted, queries failed)."""
    outputs = res["outputs"]
    failed = 0
    items = invariant_items(seed, res["first"] + len(outputs))[res["first"]:]
    for index, (item, results) in enumerate(zip(items, outputs), start=res["first"]):
        error = check_item(item, results)
        if error:
            failed += len(results)
            runner.failures.append(f"query item {index} ({item}): {error}")
    return len(res["latencies"]), failed


def invariants_workload(runner: Runner, root: str, seed: int, seconds: float, trace: bool):
    attempted = failed = 0
    cache = prime_cache(runner, root)
    if not os.path.exists(cache + ".primed"):
        return {}, 1, 1
    count = -(-max(MIN_ITEMS, round(seconds * ITEMS_PER_SECOND)) // INVARIANT_SETUPS)

    def stream(first=0, traced=False, calibrate=False):
        nonlocal attempted, failed
        res = runner.spawn({"mode": "queries", "cache_dir": cache, "seed": seed, "first": first,
                            "count": count, "trace": traced, "calibrate": calibrate})
        if res is None:
            attempted += 1
            failed += 1
            return None
        done, bad = check_stream(runner, seed, res)
        attempted += done
        failed += bad
        return res

    if trace:
        plain = stream()
        traced = stream(traced=True) if plain else None
        if traced is None:
            return {}, attempted, failed
        rec = {"spans": [traced["spans"]], "tables": [traced["tables"]], "missing": set(traced["missing"]),
               "wall": (traced["end"] - traced["load_start"])}
        metrics = layer_metrics(
            rec,
            untraced_wall=plain["end"] - plain["load_start"],
            by_cmd={},
            bytes_written=0,
            bytes_read=dir_bytes(cache),
        )
        return metrics, attempted, failed
    children = []
    for index in range(INVARIANT_SETUPS):
        res = stream(first=index * count, calibrate=True)
        if res is None:
            return {}, attempted, failed
        children.append(res)
    setups, latencies = [], []
    for res in children:
        refs = res["refs"]
        setups.append(to_reference(res["loaded"] - res["t0"], refs[0], refs[1]))
        first = res["first"]
        latencies += [to_reference(t, refs[i - first + 1], refs[i - first + 2])
                      for t, i in zip(res["latencies"], res["items"])]
    print(f"set-ups {len(children)}, query items {count} each, latency samples {len(latencies)}")
    print_host(sum(t for res in children for t in res["latencies"]), [r for res in children for r in res["refs"]])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p95_ms": p95(latencies) * 1000,
        "peak_rss_mb": max(res["maxrss_kb"] for res in children) / 1024,
    }
    return metrics, attempted, failed


# -- per-layer metrics from spans ----------------------------------------------------------


def layer_metrics(rec: dict, untraced_wall: float, by_cmd: dict, bytes_written: int, bytes_read: int) -> dict:
    """Per-layer values from one traced pass; None marks a layer missing at this commit.

    ``rec["wall"]`` is the traced time that root spans cover and
    ``untraced_wall`` the time of the same work untraced.
    """
    stats: dict = {}
    unattributed = 0.0
    for path in rec["spans"]:
        spans = load_spans(path)
        merge_stats(stats, layer_stats(spans))
        unattributed += unattributed_s(spans)
    covered = sum(entry["self_s"] for entry in stats.values())
    for name in list(stats):
        if "[" in name:
            merge_stats(stats, {name.split("[")[0]: stats[name]})
    missing = rec["missing"]
    values = {
        "quotient.table_rows": sum(t["table_rows"] for t in rec["tables"]),
        "quotient.table_nnz": sum(t["table_nnz"] for t in rec["tables"]),
        "quotient.cache_bytes_written": bytes_written,
        "quotient.cache_bytes_read": bytes_read,
        "trace.overhead_ratio": rec["wall"] / untraced_wall,
        "trace.self_coverage": covered / rec["wall"],
        "trace.unattributed_ratio": unattributed / rec["wall"],
    }
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.s"] = by_cmd.get(cmd, 0.0)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "flagged": 0}
    for name, _ in PER_LAYER:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        base = layer
        for prefix, variant_of in VARIANT_METRICS.items():
            if layer.startswith(prefix):
                base = variant_of
                layer = f"{variant_of}[{layer[len(prefix):]}]"
        if base in missing:
            values[name] = None
            continue
        entry = stats.get(layer, empty)
        if stat == "useful_ratio":
            values[name] = entry["flagged"] / entry["calls"] if entry["calls"] else 0.0
        else:
            values[name] = entry[stat]
    print_layers(stats, rec["wall"], missing)
    return values


def print_layers(stats: dict, wall: float, missing: set):
    print(f"traced self time by layer (traced wall {wall:.3f} s):")
    rows = sorted(((entry["self_s"], name, entry) for name, entry in stats.items() if "[" not in name), reverse=True)
    for self_s, name, entry in rows:
        print(f"  {name:<40} calls {entry['calls']:>8}  s {entry['s']:10.4f}  self_s {self_s:10.4f}"
              f"  {100 * self_s / wall:5.1f}%")
    for name in sorted(missing):
        print(f"  {name:<40} missing at this commit")


# -- entry point -----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="braidalg benchmark: one workload, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braidalg", "__init__.py")):
        print("error: run from the root of a braidalg checkout (src/braidalg not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)
    trace = bool(args.trace)
    if args.workload == "invariants":
        metrics, attempted, failed = invariants_workload(runner, root, args.seed, args.seconds, trace)
    else:
        jobs = (table_jobs(os.path.join(BENCH_DIR, PHI7_FIXTURE)) if args.workload == "tables"
                else associator_jobs(args.seed))
        pass_count = max(1, round(args.seconds / PASS_SECONDS))
        metrics, attempted, failed = job_workload(runner, jobs, pass_count, trace)
    names = PER_LAYER if trace else END_TO_END
    for failure in runner.failures:
        print(f"FAILED {failure}")
    correct = failed == 0 and all(name in metrics for name, _ in names)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    for name, unit in names:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
