"""Every name the package exports has a caller outside the unit tests.

A name counts as used when the library, a demo, the benchmark or the
acceptance criteria refer to it, other than through its own definition,
its `__all__` entry and the re-export in `reggespec/__init__.py`.  A
string equal to the name counts, because the benchmark wraps names by
lookup.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "reggespec" / "__init__.py"

# names kept without a caller, each with its reason
EXEMPT = {
    # writes the format that read_zeroset_csv (`reconstruct --zeros`) reads
    "write_zeroset_csv",
}


def _exported() -> list[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def _trees() -> list[ast.AST]:
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    files += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(files)]


def _references(tree: ast.AST) -> Counter:
    """Name references in tree, skipping those inside the definition of
    the name itself and the strings of an `__all__` list."""
    found = Counter()
    stack = [(tree, frozenset(), False)]
    while stack:
        node, defining, in_all = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            in_all = True
        ref = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            ref = node.id
        elif isinstance(node, ast.Attribute):
            ref = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            ref = None if in_all else node.value
        if ref is not None and ref not in defining:
            found[ref] += 1
        stack.extend((child, defining, in_all)
                     for child in ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller():
    found = Counter()
    for tree in _trees():
        found += _references(tree)
    unused = [name for name in _exported()
              if name not in EXEMPT and not found[name]]
    assert unused == []
