import ast
import types
from pathlib import Path

import racetrace
from racetrace import causality, traces

SOURCES = Path(racetrace.__file__).parent
ORACLES = {
    "swap_equiv_oracle",
    "SwapBudgetExhausted",
    "hb_relation",
    "_directly_related",
    "declarative_race_oracle",
    "enumerate_executions",
    "enumerate_linearizations",
    "is_subtrace",
}


def test_exports_are_the_imported_names_without_submodules():
    exported = racetrace.__all__
    assert "explore" in exported and "TraceIndex" not in exported
    modules = (
        "terms", "parsing", "traces", "causality", "races", "simulator", "explorer",
        "oracles",
    )
    assert not set(modules) & set(exported)
    for name in exported:
        assert not isinstance(getattr(racetrace, name), types.ModuleType)
    assert len(exported) == len(set(exported))
    namespace = {}
    exec("from racetrace import *", namespace)
    assert set(exported) <= set(namespace)


def _imported_modules(tree: ast.Module) -> set[str]:
    """The racetrace modules a source imports from, by their last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _tree(module: str) -> ast.Module:
    return ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8"))


def test_fast_path_does_not_import_oracles():
    for module in ("traces", "causality", "races", "simulator", "explorer"):
        tree = _tree(module)
        assert "oracles" not in _imported_modules(tree), module
        assert not ORACLES & _defined_names(tree), module
    oracles = _tree("oracles")
    assert ORACLES <= _defined_names(oracles)
    assert not {"races", "explorer", "causality"} & _imported_modules(oracles)


def test_each_analysis_reads_the_trace_layer_and_none_of_the_others():
    package = {path.stem for path in SOURCES.glob("*.py")} - {"__init__"}
    allowed = {
        "causality": {"traces"},
        "races": {"terms", "traces"},
        "simulator": {"parsing", "terms", "traces"},
    }
    for module, imports in allowed.items():
        assert _imported_modules(_tree(module)) & package == imports, module
    assert causality.linearize is traces.linearize
    assert causality.EventId is traces.EventId
