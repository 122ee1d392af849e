"""Tests of the benchmark's own logic: inputs, span arithmetic, output checks, verdicts.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from array import array  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- seeded inputs -------------------------------------------------------------------


def test_same_seed_gives_same_inputs():
    assert workloads.associator_jobs(7) == workloads.associator_jobs(7)
    assert workloads.invariant_items(7, 120) == workloads.invariant_items(7, 120)


def test_different_seeds_give_different_inputs():
    assert workloads.associator_jobs(7) != workloads.associator_jobs(8)
    assert workloads.invariant_items(7, 120) != workloads.invariant_items(8, 120)


def test_longer_stream_extends_shorter():
    assert workloads.invariant_items(3, 60)[:40] == workloads.invariant_items(3, 40)


def test_stream_mix_and_sizes_do_not_depend_on_seed():
    def shape(item):
        return (item["kind"], item["n"], item["k"] if "k" in item else len(item["w1"].split()),
                len(item["c"].split()) if "c" in item else None)

    assert [shape(i) for i in workloads.invariant_items(1, 108)] == [
        shape(i) for i in workloads.invariant_items(2, 108)
    ]


def test_table_jobs_are_fixed():
    jobs = workloads.table_jobs("phi.txt")
    assert [job["argv"][0] for job in jobs] == ["dim"] * 5 + ["delta-kernel", "check-associator"]
    assert all(job["argv"][-2:] == ["--format", "structured"] for job in jobs)


def test_relators_are_trivial_in_the_group():
    """The bench writes its own relators; the program's oracle must agree they are trivial."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    words = pytest.importorskip("braidalg.words")
    for n in (3, 4):
        for rel in workloads.mccool_relators(n) + workloads.braid_relators(n):
            assert words.words_equal_in_bp(words.parse_word(rel, n), words.parse_word("", n)), rel


# -- spans -------------------------------------------------------------------------------


def _spans(rows):
    """rows: (name, parent index, start, end, flag)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "missing": [],
        "name_ids": array("q", [names.index(r[0]) for r in rows]),
        "parents": array("q", [r[1] for r in rows]),
        "ops": array("q", [0] * len(rows)),
        "flags": array("b", [r[4] for r in rows]),
        "starts": array("d", [r[2] for r in rows]),
        "ends": array("d", [r[3] for r in rows]),
    }


def test_self_time_on_synthetic_tree():
    spans = _spans([
        ("root", -1, 0.0, 10.0, 0),
        ("a", 0, 1.0, 4.0, 1),   # child b covers 1 s of it
        ("b", 1, 2.0, 3.0, 0),
        ("a", 0, 5.0, 7.0, 0),   # recursive: inner a covers 1 s
        ("a", 3, 5.5, 6.5, 1),
    ])
    stats = tracing.layer_stats(spans)
    assert stats["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert stats["a"]["calls"] == 3
    assert stats["a"]["self_s"] == pytest.approx((3.0 - 1.0) + (2.0 - 1.0) + 1.0)
    assert stats["a"]["s"] == pytest.approx(3.0 + 2.0)  # the nested a is not counted twice
    assert stats["a"]["flagged"] == 2
    assert stats["b"]["self_s"] == pytest.approx(1.0)
    assert sum(e["self_s"] for e in stats.values()) == pytest.approx(10.0)
    assert tracing.unattributed_s(spans) == pytest.approx(stats["root"]["self_s"])


def test_tracer_wraps_and_round_trips(tmp_path, monkeypatch):
    class Echelon:
        def add(self, vec):
            return self.reduce(vec) or None

        def reduce(self, vec):
            return vec

    tracer = tracing.Tracer()
    echelon = Echelon()
    monkeypatch.setattr(Echelon, "add", tracer.wrap("linalg.add", Echelon.add))
    monkeypatch.setattr(Echelon, "reduce", tracer.wrap("linalg.reduce", Echelon.reduce))
    with tracer.span("cli.dim", 0):
        echelon.add({1: 1})
        echelon.add({})
    path = str(tmp_path / "spans.bin")
    tracer.dump(path)
    stats = tracing.layer_stats(tracing.load_spans(path))
    assert stats["linalg.add"]["calls"] == 2 and stats["linalg.add"]["flagged"] == 1
    assert stats["linalg.reduce"]["calls"] == 2
    assert stats["cli.dim"]["calls"] == 1


def test_missing_target_is_reported_not_zero():
    tracer = tracing.Tracer()
    tracer.install([("nowhere.fn", "json", "no_such_function")])
    assert tracer.missing == ["nowhere.fn"]


# -- output checks ---------------------------------------------------------------------------


def test_closed_forms():
    assert checks.chord_dims(5, 4) == [1, 10, 65, 350, 1701]
    assert checks.chord_dims(4, 4) == [1, 6, 25, 90, 301]
    assert checks.oriented_dims(3, 5) == [1, 6, 27, 108, 405, 1458]
    assert checks.oriented_dims(4, 4) == [1, 12, 96, 640, 3840]


def test_dim_check_rejects_a_wrong_row():
    good = {"values": ["1", "10", "65", "350", "1701"]}
    bad = {"values": ["1", "10", "65", "350", "1700"]}
    spec = ["dim", "infinitesimal_artin", 5, 4]
    assert checks.check_job(spec, good, {}) is None
    assert "expected" in checks.check_job(spec, bad, {})


def test_delta_kernel_check_rejects_a_kernel():
    values = {str(k): {"kernel_dimension": 0, "domain_dimension": d} for k, d in zip(range(1, 5), (6, 25, 90, 301))}
    assert checks.check_job(["delta_kernel", 4, 4], {"values": values}, {}) is None
    values["3"] = {"kernel_dimension": 1, "domain_dimension": 90}
    assert checks.check_job(["delta_kernel", 4, 4], {"values": values}, {}) is not None


def test_axiom_and_image_checks_reject_wrong_verdicts():
    passed = {"passed": True, "first_failure_degree": None, "residual": "0"}
    failed = {"passed": False, "first_failure_degree": 5, "residual": "A.B"}
    assert checks.check_job(["axioms", ["P"]], {"values": {"P": passed}}, {}) is None
    assert checks.check_job(["axioms", ["P"]], {"values": {"P": failed}}, {}) is not None
    assert checks.check_job(["yang_baxter"], {"values": {"passed": False}}, {}) is not None
    earlier = {"rho3": {"values": [{"perm": "213", "terms": {"1": "1"}}]}}
    same = {"values": [{"perm": "213", "terms": {"1": "1"}}]}
    other = {"values": [{"perm": "213", "terms": {"1": "1", "t12": "1/2"}}]}
    assert checks.check_job(["same_image", "rho3"], same, earlier) is None
    assert checks.check_job(["same_image", "rho3"], other, earlier) is not None


def test_query_checks_reject_wrong_verdicts():
    related = {"kind": "related"}
    assert checks.check_item(related, [[None, True]]) is None
    assert checks.check_item(related, [[None, False]]) is not None  # oracle wrong
    assert checks.check_item(related, [[3, True]]) is not None  # images differ
    unrelated = {"kind": "unrelated"}
    assert checks.check_item(unrelated, [[2, False]]) is None
    assert checks.check_item(unrelated, [[None, True]]) is None
    assert checks.check_item(unrelated, [[2, True]]) is not None
    split = {"kind": "splitting", "k": 2}
    assert checks.check_item(split, [2, 2]) is None
    assert checks.check_item(split, [None, None]) is None
    assert checks.check_item(split, [2, 3]) is not None
    assert checks.check_item(split, [1, 1]) is not None


# -- scaling to the reference machine ---------------------------------------------------------


def test_to_reference_scales_by_the_bracketing_samples():
    ref = run.REFERENCE_SECONDS
    assert run.to_reference(0.5, ref, ref) == pytest.approx(0.5)
    # the host ran at half speed around the operation: the reference work took twice as long
    assert run.to_reference(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.to_reference(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_reference_work_is_fixed():
    assert calibrate.reference_work() == calibrate.reference_work() == 100


# -- paired verdicts -----------------------------------------------------------------------


def test_verdict_improved_needs_wins_and_a_gap():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(base, list(base), "lower", 0.1)["verdict"] == "within bound"
    assert compare.verdict(base, [x * 1.3 for x in base], "lower", 0.1)["verdict"] == "regressed"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    head = [b * 1.01 for b in base]
    assert compare.verdict(base, head, "lower", 0.1)["verdict"] == "unresolved"


def test_verdict_every_run_better_is_no_gain_on_a_skewed_base():
    base = [10.0] * 7 + [20.0] * 3          # quartile spread 10
    head = [9.9] * 10                       # beats every base run, by 0.1 at the median
    row = compare.verdict(base, head, "lower", 0.1)
    assert row["wins"] == 10 and row["spread"] > 0.1
    assert row["verdict"] == "within bound"  # not improved, and not unresolved either


# -- the benchmark definition -------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    assert [m["name"] for m in config["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in config["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in config["end_to_end"])
               for m in config["end_to_end"])
