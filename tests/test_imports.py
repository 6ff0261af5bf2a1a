"""Package structure: the modules of `rapidbnb` import each other without
cycles, at module level and inside functions alike, `import rapidbnb`
leaves the benchmark helpers unloaded, no file imports a name it never
uses, and no private definition of the package goes unread."""

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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """`_`-prefixed functions, classes and methods at any depth, and
    module constants, by name, with the line of their definition; dunder
    names excluded."""
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs.setdefault(node.name, node.lineno)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for t in targets:
            if isinstance(t, ast.Name):
                defs.setdefault(t.id, node.lineno)
    return {name: line for name, line in defs.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_unreferenced_private_definitions():
    # code that nothing uses gets deleted: a private name must be read,
    # as a name or an attribute, somewhere under src/
    files = sorted((ROOT / "src").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = [(f"{p.relative_to(ROOT)}:{line}", name)
               for p, tree in trees.items() if p.is_relative_to(PACKAGE)
               for name, line in private_definitions(tree).items()]
    assert len(private) >= 40
    assert [f"{where} {name}" for where, name in private
            if name not in read] == []
