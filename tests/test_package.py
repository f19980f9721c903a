"""The package surface: `mutualsec.__all__` is the union of the modules'
exports, the helpers deleted from it stay deleted, and no module imports a
name it never uses (checked with `ast`, as no linter is assumed)."""

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
