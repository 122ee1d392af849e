import importlib
import importlib.util
import types
from pathlib import Path

import braidalg
from braidalg import build_graded_basis, infinitesimal_artin, oriented_artin


def test_every_exported_name_resolves():
    missing = [name for name in braidalg.__all__ if not hasattr(braidalg, name)]
    assert missing == []
    assert len(set(braidalg.__all__)) == len(braidalg.__all__)


def test_no_submodule_is_exported():
    exported = [getattr(braidalg, name) for name in braidalg.__all__]
    assert not any(isinstance(obj, types.ModuleType) for obj in exported)


def test_every_bench_traced_name_resolves():
    """The benchmark wraps these names from outside; a missing one reads as a null metric."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for layer, module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(layer)
    assert unresolved == []
    # Tracer.table_counts reads each finished table's rows.
    for preset in (infinitesimal_artin(3), oriented_artin(3)):
        basis = build_graded_basis(preset, 2)
        assert all(isinstance(basis.table(k).rows, dict) for k in range(3))
