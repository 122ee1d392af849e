"""Paired comparison of two commits on the benchmark.

Usage, from the root of a git checkout:

    python3 bench/compare.py BASE HEAD [--first-seed N]

BASE and HEAD are git revisions.  Each side is exported under
.bench_work/compare/, and this benchmark directory and BENCHMARK.json are
copied into both, so both run identical benchmark code with identical
settings, at the ``run_seconds`` of BENCHMARK.json.  Ten pairs are run on
every workload of BENCHMARK.json.  Pair i runs seed ``first-seed + i`` on both
sides and alternates which side runs first; choose a first seed not used while
the change was written, so the inputs were not tuned to.  Per workload and
end-to-end metric the report gives each side's median and quartiles, the
pairs HEAD won, and a verdict:

* ``improved``: HEAD wins at least 9 of 10 pairs and the medians differ by
  more than BASE's quartile spread;
* ``unresolved``: either side's quartile spread exceeds the metric's bound,
  unless every HEAD run beats every BASE run (then HEAD cannot have regressed);
* ``regressed``: HEAD's median is worse than BASE's by more than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 200
PAIRS = 10


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, head: list, better: str, bound: float) -> dict:
    """Apply the paired rule to one metric; base[i] and head[i] come from pair i."""
    sign = -1.0 if better == "lower" else 1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    gain = sign * (h_med - b_med)
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0, (h3 - h1) / abs(h_med) if h_med else 0.0)
    every_run_better = min(sign * h for h in head) > max(sign * b for b in base)
    if wins >= 0.9 * len(base) and gain > b3 - b1:
        outcome = "improved"
    elif spread > bound and not every_run_better:
        outcome = "unresolved"
    elif -gain > bound * abs(b_med):
        outcome = "regressed"
    else:
        outcome = "within bound"
    return {"base": (b1, b_med, b3), "head": (h1, h_med, h3), "wins": wins, "pairs": len(base),
            "spread": spread, "verdict": outcome}


def export_side(revision: str, dest: str):
    """Materialise a git revision at dest, plus this benchmark."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    tar = subprocess.run(["git", "archive", "--format=tar", revision], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    bench_dest = os.path.join(dest, os.path.basename(BENCH_DIR))
    shutil.rmtree(bench_dest, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bench_dest, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), dest)


def run_once(tree: str, command: list, workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired benchmark comparison of two commits")
    parser.add_argument("base", help="git revision")
    parser.add_argument("head", help="git revision")
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seed of pair 0; use seeds not tried while the change was written")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        config = json.load(handle)
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    command = [sys.executable if part == "python3" else part for part in config["command"]]
    trees = {}
    for side, revision in (("base", args.base), ("head", args.head)):
        trees[side] = os.path.join(os.getcwd(), ".bench_work", "compare", side)
        export_side(revision, trees[side])
    runs = {(side, w): [] for side in trees for w in workloads}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], command, workload, args.first_seed + i, seconds)
                runs[(side, workload)].append(result)
                print(f"pair {i} {workload} {side}: correct={result['correct']}", flush=True)
    report = {}
    for workload in workloads:
        base_runs, head_runs = runs[("base", workload)], runs[("head", workload)]
        if not all(r["correct"] for r in base_runs + head_runs):
            print(f"{workload}: a run was incorrect; no comparison")
            report[workload] = "incorrect"
            continue
        report[workload] = {}
        for metric in config["end_to_end"]:
            name = metric["name"]
            row = verdict([r["metrics"][name]["value"] for r in base_runs],
                          [r["metrics"][name]["value"] for r in head_runs],
                          metric["better"], metric["bound"])
            report[workload][name] = row
            print(f"{workload:<11} {name:<14} base {row['base'][1]:.6g} [{row['base'][0]:.6g}, {row['base'][2]:.6g}]"
                  f"  head {row['head'][1]:.6g} [{row['head'][0]:.6g}, {row['head'][2]:.6g}]"
                  f"  wins {row['wins']}/{row['pairs']}  spread {row['spread']:.3f}"
                  f" (bound {metric['bound']})  {row['verdict']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
