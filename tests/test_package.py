"""The package surface: `mutualsec.__all__` is the union of the modules'
exports, the helpers deleted from it stay deleted, no module imports a
name it never uses, and no module-level private name goes unreferenced
(checked with `ast`, as no linter is assumed)."""

import ast
from pathlib import Path

import pytest

import mutualsec
from mutualsec import design, network, sim, strategy

SOURCES = sorted(Path(mutualsec.__file__).parent.glob("*.py"))

REMOVED = ("TrafficAggregates", "aggregates", "IcRegion", "ic_region_beta_max",
           "efficiency_loss_factor")


def test_exports_are_the_sorted_union_of_the_modules():
    names = mutualsec.__all__
    assert names == sorted(set(names))
    assert set(names) == {*design.__all__, *network.__all__, *sim.__all__,
                          *strategy.__all__}
    for name in names:
        module = next(m for m in (design, network, sim, strategy)
                      if name in m.__all__)
        assert getattr(mutualsec, name) is getattr(module, name)


def test_removed_helpers_stay_removed():
    for name in REMOVED:
        assert name not in mutualsec.__all__
        assert not hasattr(mutualsec, name)
    assert not hasattr(network, "aggregates")
    assert not hasattr(design, "ic_region_beta_max")
    assert not hasattr(mutualsec.TrafficMatrix, "from_matrix")
    assert not hasattr(mutualsec.PeriodInterval, "contains")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in the module's own __all__ is re-exported, so used
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_catches_one(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os\nimport sys\nfrom math import pi, tau\n"
                      "print(sys.argv, pi)\n")
    assert _unused_imports(source) == ["os", "tau"]


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names: functions, classes and assigned names
    with one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _dead_helpers(paths) -> list[str]:
    """module:name for each module-level private name that no module among
    `paths` references."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = set().union(*map(_references, trees.values()))
    return sorted(f"{path.stem}:{name}" for path, tree in trees.items()
                  for name in _private_definitions(tree) - used)


def test_no_dead_helpers():
    assert _dead_helpers(SOURCES) == []


def test_dead_helper_check_catches_one(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_spare: int = 4\n__version__ = '1'\n\n"
        "def _used():\n    return _LIMIT\n\n"
        "def _dead():\n    return _LIMIT\n\n"
        "class _Shared:\n    pass\n\nprint(_used())\n")
    (tmp_path / "b.py").write_text("from a import _Shared\n")
    assert _dead_helpers(sorted(tmp_path.glob("*.py"))) == ["a:_dead",
                                                            "a:_spare"]
