import types

import braidalg


def test_every_exported_name_resolves():
    missing = [name for name in braidalg.__all__ if not hasattr(braidalg, name)]
    assert missing == []
    assert len(set(braidalg.__all__)) == len(braidalg.__all__)


def test_no_submodule_is_exported():
    exported = [getattr(braidalg, name) for name in braidalg.__all__]
    assert not any(isinstance(obj, types.ModuleType) for obj in exported)
