"""One benchmark child process: import braidalg, do one job or one query stream, report.

Usage: python3 bench/child.py SPEC.json

The spec names the mode (``cli`` or ``queries``), where to write the result,
for a traced child where to write the spans, and whether to time a sample of
the reference work (calibrate.py) before and after each operation.
Timestamps that the parent compares with its own come from CLOCK_MONOTONIC,
which all processes share.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from calibrate import sample as reference_sample


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    import braidalg
    import braidalg.cli

    ready = now()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(braidalg.__file__).startswith(src + os.sep):
        print(f"braidalg imported from {braidalg.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    refs: list = []
    calibrate = (lambda: refs.append(reference_sample())) if spec.get("calibrate") else (lambda: None)
    # Reference samples bracket every timed operation (see run.to_reference);
    # the first call of the reference work in a process is slower, so it is
    # made once untimed.
    if spec.get("calibrate"):
        reference_sample()
    if spec["mode"] == "cli":
        calibrate()
        result = run_cli(spec["argv"], tracer)
        calibrate()
    else:
        result = run_queries(spec, tracer, calibrate)
    result["ready"] = ready
    result["refs"] = refs
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spec["trace"])
        result["tables"] = tracer.table_counts()
        result["missing"] = tracer.missing
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


def run_cli(argv: list, tracer) -> dict:
    from braidalg import cli

    out, err = io.StringIO(), io.StringIO()
    root = tracer.span(f"cli.{argv[0]}", 0) if tracer is not None else contextlib.nullcontext()
    start = now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with root:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    end = now()
    return {"start": start, "end": end, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_queries(spec: dict, tracer, calibrate) -> dict:
    """Load the warm bases, then run ``count`` query items of the seed from ``first`` on, closed-loop.

    ``calibrate()`` runs before and after the loads and after each item, so
    that the set-up lies between reference samples 0 and 1 and item
    ``first + i`` between samples i + 1 and i + 2; ``items`` maps each
    latency to its item.  Functions are looked up on their modules at call
    time, so a tracer's wrappers are the ones called.
    """
    from workloads import INVARIANT_BASES, invariant_items

    from braidalg import invariants, quotient, words

    cache_dir = spec["cache_dir"]
    root = tracer.span if tracer is not None else (lambda name, op: contextlib.nullcontext())
    latencies, items, outputs = [], [], []

    def timed(name, op, query):
        t0 = now()
        with root(name, op):
            value = query()
        latencies.append(now() - t0)
        items.append(op)
        return value

    def run_item(item, op):
        n, cap = item["n"], item["cap"]
        if item["kind"] != "splitting":
            report = timed("query.distinguish", op, lambda: invariants.distinguish(
                words.parse_word(item["w1"], n), words.parse_word(item["w2"], n), cap, cache_dir
            ))
            return [[report.first_difference_degree, report.oracle_equal]]
        unit = words.GroupRingElement.one(n)
        plain = (words.GroupRingElement.from_word(words.parse_word(item["c"], n)) - unit) ** item["k"]
        twisted = plain * words.GroupRingElement.from_word(words.parse_word(item["s"], n))
        return [
            timed("query.vassiliev_degree", op,
                  lambda: invariants.vassiliev_degree(element, cap, cache_dir=cache_dir).order)
            for element in (plain, twisted)
        ]

    calibrate()
    load_start = now()
    with root("invariants.setup", -1):
        for n, cap in INVARIANT_BASES:
            quotient.build_graded_basis(quotient.oriented_artin(n), cap, cache_dir)
    loaded = now()
    calibrate()
    first = spec.get("first", 0)
    for op, item in enumerate(invariant_items(spec["seed"], first + spec["count"])[first:], start=first):
        outputs.append(run_item(item, op))
        calibrate()
    end = now()
    return {"load_start": load_start, "loaded": loaded, "end": end, "latencies": latencies,
            "first": first, "items": items, "outputs": outputs}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
