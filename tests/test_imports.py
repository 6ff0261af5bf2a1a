"""Package structure: the modules of `rapidbnb` import each other without
cycles, at module level and inside functions alike, `import rapidbnb`
leaves the benchmark helpers unloaded, and no file imports a name it
never uses."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rapidbnb"


def relative_imports(path: Path) -> set[str]:
    """Sibling modules named by every relative import in the file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:           # from . import a, b
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_intra_package_imports_are_acyclic():
    graph = {p.stem: relative_imports(p) for p in PACKAGE.glob("*.py")}
    assert len(graph) >= 10
    # raises graphlib.CycleError naming the cycle
    TopologicalSorter(graph).prepare()


def test_import_leaves_the_bench_module_unloaded():
    code = ("import rapidbnb, sys; "
            "print(sorted({'rapidbnb.bench', 'csv'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_export_list_names_package_attributes_once():
    import rapidbnb
    names = rapidbnb.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    missing = [name for name in names if not hasattr(rapidbnb, name)]
    assert missing == []


def unused_imports(path: Path) -> list[str]:
    """Names the file imports and never reads, except `__future__`
    features and names it re-exports through `__all__`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) >= 30
    assert [hit for p in files for hit in unused_imports(p)] == []
