import types

import racetrace


def test_exports_are_the_imported_names_without_submodules():
    exported = racetrace.__all__
    assert "explore" in exported and "TraceIndex" not in exported
    modules = ("terms", "parsing", "traces", "causality", "races", "simulator", "explorer")
    assert not set(modules) & set(exported)
    for name in exported:
        assert not isinstance(getattr(racetrace, name), types.ModuleType)
    namespace = {}
    exec("from racetrace import *", namespace)
    assert set(exported) <= set(namespace)
