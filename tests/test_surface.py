"""Public surface guard: every public function and class in ``src/prato`` has a caller.

A caller is a reference from library code (another module, or elsewhere in
the defining module), from ``bench/`` or from ``demos/``. References from
``__init__.py`` re-exports and from ``tests/`` do not count, so a helper
that only tests exercise fails here instead of growing a second copy of
what the pipeline already does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prato"


def _public_defs(tree) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _referenced_names(tree, skip=()) -> set:
    """Names a module uses: identifiers, attributes, imports and string constants.

    Nodes inside the definitions in ``skip`` are not counted.
    """
    skipped = {id(n) for d in skip for n in ast.walk(d)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_public_names(src: Path, callers: list) -> list:
    """``module.name`` of each public top-level def that nothing in ``src`` or ``callers`` uses."""
    modules = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))
               if p.name != "__init__.py"}
    outside = set()
    for path in callers:
        outside |= _referenced_names(ast.parse(path.read_text()))
    dead = []
    for path, tree in modules.items():
        used = set(outside)
        for other, other_tree in modules.items():
            if other != path:
                used |= _referenced_names(other_tree)
        for node in _public_defs(tree):
            if node.name not in used | _referenced_names(tree, skip=[node]):
                dead.append(f"{path.stem}.{node.name}")
    return dead


def test_every_public_name_has_a_non_test_caller():
    callers = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert callers
    assert dead_public_names(SRC, callers) == []


def test_guard_flags_a_test_only_helper(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import used, unused\n")
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n"
        "def unused():\n    return unused\n"  # a self-reference is not a caller
        "def _private():\n    return 0\n"
        "class Named:\n    pass\n")
    (pkg / "b.py").write_text("from .a import used\n")
    demo = tmp_path / "demo.py"
    demo.write_text("TARGETS = ['Named']\n")
    assert dead_public_names(pkg, [demo]) == ["a.unused"]
