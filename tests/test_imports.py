"""Package structure: the modules of `rapidbnb` import each other without
cycles, at module level and inside functions alike, and `import rapidbnb`
leaves the benchmark helpers unloaded."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rapidbnb"


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
