"""Spans around braidalg's public functions, recorded from outside the package.

A child process installs a ``Tracer`` after importing braidalg.  Each traced
call records a span: name, start, end, parent span and operation id.  Spans
stay in flat arrays in memory and are written to one file when the child
finishes; the parent reads them back and computes per-layer calls,
inclusive time and self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

# (layer name, module, attribute or Class.method)
TARGETS = (
    ("linalg.add", "braidalg.linalg", "SparseEchelon.add"),
    ("linalg.reduce", "braidalg.linalg", "SparseEchelon.reduce"),
    ("linalg.affine_solve", "braidalg.linalg", "affine_solve"),
    ("quotient.build_graded_basis", "braidalg.quotient", "build_graded_basis"),
    ("quotient.normal_form", "braidalg.quotient", "GradedQuotientBasis.normal_form"),
    ("series.mul", "braidalg.series", "TruncatedSeries.__mul__"),
    ("series.exp", "braidalg.series", "TruncatedSeries.exp"),
    ("series.log", "braidalg.series", "TruncatedSeries.log"),
    ("series.inverse", "braidalg.series", "TruncatedSeries.inverse"),
    ("series.act", "braidalg.series", "TruncatedSeries.act"),
    ("series.substitute", "braidalg.series", "substitute"),
    ("series.parse_series", "braidalg.series", "parse_series"),
    ("sdseries.construct", "braidalg.sdseries", "SemidirectSeries.__init__"),
    ("sdseries.mul", "braidalg.sdseries", "SemidirectSeries.__mul__"),
    ("reps.eval_welded", "braidalg.reps", "eval_welded"),
    ("reps.eval_drinfeld", "braidalg.reps", "eval_drinfeld"),
    ("reps.eval_rho3", "braidalg.reps", "eval_rho3"),
    ("reps.rho3_delta", "braidalg.reps", "rho3_delta"),
    ("words.words_equal_in_bp", "braidalg.words", "words_equal_in_bp"),
    ("associator.extend_semi_associator", "braidalg.associator", "extend_semi_associator"),
    ("associator.check_axiom", "braidalg.associator", "check_axiom"),
    ("associator.check_yang_baxter", "braidalg.associator", "check_yang_baxter"),
    ("lyndon.lie_basis", "braidalg.lyndon", "lie_basis"),
    ("invariants.distinguish", "braidalg.invariants", "distinguish"),
    ("invariants.vassiliev_degree", "braidalg.invariants", "vassiliev_degree"),
    ("invariants.delta_kernel", "braidalg.invariants", "delta_kernel"),
)


def _preset_kind(args, kwargs):
    preset = args[0] if args else kwargs.get("preset")
    return getattr(preset, "kind", "?")


def _axiom(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("axiom", "?")


# Layers whose spans are split by an argument: the span name becomes
# "<layer>[<variant>]", so one layer's total and each variant can be read off.
VARIANTS = {"quotient.build_graded_basis": _preset_kind, "associator.check_axiom": _axiom}
# Layers that count a useful outcome: an add that returned a new pivot.
OUTCOMES = {"linalg.add": lambda result: result is not None}


class Tracer:
    """Span recorder; one per traced child process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.flags = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list = []
        self.op = -1
        self.missing: list = []
        self.bases: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.flags.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """A root span around one operation; spans opened inside it carry its operation id."""
        self.op = op
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.op = -1

    def wrap(self, layer: str, fn):
        tracer = self
        nid = self.name_id(layer)
        variant = VARIANTS.get(layer)
        outcome = OUTCOMES.get(layer)
        keep_bases = layer == "quotient.build_graded_basis"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = nid if variant is None else tracer.name_id(f"{layer}[{variant(args, kwargs)}]")
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if outcome is not None and outcome(result):
                tracer.flags[idx] = 1
            if keep_bases:
                tracer.bases.append(result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target: on its class, and on every braidalg module attribute bound to it."""
        for layer, module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(layer)
                continue
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(layer)
                continue
            wrapped = self.wrap(layer, fn)
            if owner is not module:
                setattr(owner, attr, wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "braidalg" or mod_name.startswith("braidalg.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def table_counts(self) -> dict:
        """Rows and nonzeros of every distinct finished table, read from ``table(k).rows``."""
        seen = {}
        for basis in self.bases:
            for k in range(basis.cap + 1):
                seen[(basis.preset.key(), k)] = basis.table(k).rows
        return {
            "table_rows": sum(len(rows) for rows in seen.values()),
            "table_nnz": sum(len(row) for rows in seen.values() for row in rows.values()),
        }

    def dump(self, path: str):
        header = json.dumps(
            {"names": self.names, "count": len(self.starts), "missing": self.missing}
        ).encode()
        with open(path, "wb") as handle:
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            for arr in (self.name_ids, self.parents, self.ops, self.flags, self.starts, self.ends):
                arr.tofile(handle)


# -- reading spans back ------------------------------------------------------------


def load_spans(path: str) -> dict:
    with open(path, "rb") as handle:
        size = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(size))
        count = header["count"]
        spans = {"names": header["names"], "missing": header["missing"]}
        for field, code in (("name_ids", "q"), ("parents", "q"), ("ops", "q"), ("flags", "b"),
                            ("starts", "d"), ("ends", "d")):
            arr = array(code)
            arr.fromfile(handle, count)
            spans[field] = arr
    return spans


def layer_stats(spans: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and flagged calls.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts a span only when no ancestor has the
    same name, so recursion is not counted twice.
    """
    names, ids, parents = spans["names"], spans["name_ids"], spans["parents"]
    durations = [end - start for start, end in zip(spans["starts"], spans["ends"])]
    child_time = [0.0] * len(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[idx]
    stats = {}
    for idx, nid in enumerate(ids):
        entry = stats.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0, "flagged": 0})
        entry["calls"] += 1
        entry["self_s"] += durations[idx] - child_time[idx]
        entry["flagged"] += spans["flags"][idx]
        parent = parents[idx]
        while parent >= 0 and ids[parent] != nid:
            parent = parents[parent]
        if parent < 0:
            entry["s"] += durations[idx]
    return stats


def unattributed_s(spans: dict) -> float:
    """Self time of the root spans: traced time that no wrapped function covers."""
    parents = spans["parents"]
    durations = [end - start for start, end in zip(spans["starts"], spans["ends"])]
    roots = {idx for idx, parent in enumerate(parents) if parent < 0}
    return (sum(durations[idx] for idx in roots)
            - sum(durations[idx] for idx, parent in enumerate(parents) if parent in roots))


def merge_stats(total: dict, stats: dict):
    for name, entry in stats.items():
        into = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "flagged": 0})
        for key, value in entry.items():
            into[key] += value
