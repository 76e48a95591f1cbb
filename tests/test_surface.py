"""Public surface guard: nothing in ``src/prato`` exists only for the tests.

- Every public function and class has a caller.
- Every parameter with a default is passed by some call, by name or by
  position.
- Every dataclass field and public property is read.
- Every attribute an exception class sets on ``self`` is read.
- Every public upper-case module constant is read.
- Every element of a returned tuple is read by some call.
- Every import in ``src/prato``, but the re-exports of ``__init__.py``,
  and in ``demos/`` is used.

A caller or reader is library code (another module, or elsewhere in the
defining module), ``bench/`` or ``demos/``. References from ``__init__.py``
re-exports and from ``tests/`` do not count, so a helper, option or field
that only tests exercise fails here instead of growing a second copy of
what the pipeline already does. Matching is by name, as in the AST alone:
a call to any function of that name counts as a call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prato"
CALLERS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


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


def _modules(src: Path) -> dict:
    """Path to parsed tree of each module in ``src`` but ``__init__.py``, whose re-exports do not
    count as uses."""
    return {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}


def dead_public_names(src: Path, callers: list) -> list:
    """``module.name`` of each public top-level def that nothing in ``src`` or ``callers`` uses."""
    modules = _modules(src)
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
    assert CALLERS
    assert dead_public_names(SRC, CALLERS) == []


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


def _calls_to(trees, name: str) -> list:
    """Calls whose callee is spelled ``name`` or ``<anything>.name``."""
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _passes(call, index: int, param: str) -> bool:
    """Whether ``call`` passes the parameter at positional ``index`` named ``param``."""
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a **mapping passes any
        return True
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_keywords(src: Path, callers: list) -> list:
    """``module.function(param=)`` of each defaulted parameter that no call in ``src`` or
    ``callers`` passes, by name or by position. Calling a class calls its ``__init__``."""
    modules = _modules(src)
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in callers]
    unpassed = []
    for path, tree in modules.items():
        defs = [(None, node) for node in tree.body]
        defs += [(cls, node) for _, cls in defs if isinstance(cls, ast.ClassDef) for node in cls.body]
        for cls, fn in defs:
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][1 if cls else 0:]
            defaulted = positional[len(positional) - len(fn.args.defaults):]
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            calls = _calls_to(trees, cls.name if cls and fn.name == "__init__" else fn.name)
            for param in defaulted:
                index = positional.index(param) if param in positional else len(positional)
                if not any(_passes(c, index, param) for c in calls):
                    name = f"{cls.name}.{fn.name}" if cls else fn.name
                    unpassed.append(f"{path.stem}.{name}({param}=)")
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert unpassed_keywords(SRC, CALLERS) == []


def test_guard_flags_a_keyword_no_caller_passes(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\nf(0, 1, 2, 3)\n")  # re-exports do not count
    (pkg / "a.py").write_text(
        "def f(x, by_name=1, by_position=2, unpassed=3, *, kw_only=4):\n    return x\n"
        "class Failure(Exception):\n"
        "    def __init__(self, message, stage=None, unpassed=None):\n"
        "        super().__init__(message)\n")
    (pkg / "b.py").write_text("from .a import Failure, f\n"
                              "f(0, by_name=5)\nf(0, 5, 6)\nraise Failure('m', stage=1)\n")
    demo = tmp_path / "demo.py"
    demo.write_text("from pkg.a import f\nf(0, kw_only=7)\n")
    assert unpassed_keywords(pkg, [demo]) == ["a.f(unpassed=)", "a.Failure.__init__(unpassed=)"]


def _is_dataclass(cls) -> bool:
    return any("dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
               for d in cls.decorator_list)


def unread_fields(src: Path, callers: list) -> list:
    """``module.Class.name`` of each dataclass field and public property that no attribute read
    in ``src`` or ``callers`` takes. Reads inside a ``__post_init__`` (validation) and string
    constants (``getattr``) do not count."""
    modules = _modules(src)
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in callers]
    validation = {id(n) for t in trees for f in ast.walk(t)
                  if getattr(f, "name", None) == "__post_init__" for n in ast.walk(f)}
    read = {node.attr for t in trees for node in ast.walk(t) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in validation}
    unread = []
    for path, tree in modules.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            names = [n.target.id for n in cls.body
                     if _is_dataclass(cls) and isinstance(n, ast.AnnAssign)]
            names += [n.name for n in cls.body if isinstance(n, ast.FunctionDef)
                      and not n.name.startswith("_")
                      and any(getattr(d, "id", None) == "property" for d in n.decorator_list)]
            unread += [f"{path.stem}.{cls.name}.{name}" for name in names if name not in read]
    return unread


def test_every_field_and_property_is_read_outside_the_tests():
    assert unread_fields(SRC, CALLERS) == []


def test_guard_flags_a_field_only_tests_read(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import Record\nRecord(1, 2, 3).unread\n")
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    read: int\n"
        "    unread: int\n"
        "    validated: int\n"
        "    def __post_init__(self):\n"
        "        assert self.validated >= 0\n"
        "    @property\n"
        "    def shown(self):\n"
        "        return self.read\n"
        "    @property\n"
        "    def hidden(self):\n"
        "        return 0\n"
        "class Plain:\n"
        "    width: int\n")  # not a dataclass: its annotations are not fields
    (pkg / "b.py").write_text("def f(r):\n    r.unread = 0\n    return r.shown\n")
    demo = tmp_path / "demo.py"
    demo.write_text("NAMES = ['unread', 'validated', 'hidden']\n")  # strings are not reads
    assert unread_fields(pkg, [demo]) == ["a.Record.unread", "a.Record.validated", "a.Record.hidden"]


def unused_imports(paths: list) -> list:
    """``file:name`` of each imported name that its file never uses."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{path.name}:{name}" for name in bound if name not in used]
    return unused


def test_no_unused_imports():
    paths = list(_modules(SRC)) + sorted((ROOT / "demos").glob("*.py"))  # __init__.py re-exports
    assert unused_imports(paths) == []


def test_guard_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\nimport numpy as np\nfrom json import dumps, loads as parse\n"
                   "from .sibling import Grid\n"
                   "def f(g: Grid):\n    return np.zeros(1), os.sep\n")
    assert unused_imports([mod]) == ["mod.py:dumps", "mod.py:parse"]


def _is_exception(cls) -> bool:
    return any((getattr(b, "id", None) or getattr(b, "attr", "")).endswith(("Error", "Exception"))
               for b in cls.bases)


def _loaded_attrs(trees) -> set:
    return {node.attr for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_exception_attrs(src: Path, callers: list) -> list:
    """``module.Class.attr`` of each attribute an exception class sets on ``self`` that no
    attribute read in ``src`` or ``callers`` takes."""
    modules = _modules(src)
    read = _loaded_attrs(list(modules.values()) + [ast.parse(p.read_text()) for p in callers])
    unread = []
    for path, tree in modules.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and _is_exception(n)):
            stored = dict.fromkeys(n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                                   and isinstance(n.ctx, ast.Store)
                                   and getattr(n.value, "id", None) == "self")
            unread += [f"{path.stem}.{cls.name}.{a}" for a in stored if a not in read]
    return unread


def test_every_exception_attribute_is_read_outside_the_tests():
    assert unread_exception_attrs(SRC, CALLERS) == []


def test_guard_flags_an_exception_attribute_only_tests_read(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import Failure\nFailure('m').unread\n")
    (pkg / "a.py").write_text(
        "class Failure(ValueError):\n"
        "    def __init__(self, message, read=0, unread=0):\n"
        "        super().__init__(message)\n"
        "        self.read, self.unread = read, unread\n"
        "class Plain:\n"
        "    def __init__(self):\n"
        "        self.unread = 0\n")  # not an exception
    (pkg / "b.py").write_text("def f(exc):\n    return exc.read\n")
    demo = tmp_path / "demo.py"
    demo.write_text("NAMES = ['unread']\n")  # strings are not reads
    assert unread_exception_attrs(pkg, [demo]) == ["a.Failure.unread"]


def unread_constants(src: Path, callers: list) -> list:
    """``module.NAME`` of each public upper-case module-level name, tuple targets included,
    that no name or attribute read in ``src`` or ``callers`` takes."""
    modules = _modules(src)
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in callers]
    read = _loaded_attrs(trees) | {node.id for t in trees for node in ast.walk(t)
                                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in modules.items():
        targets = [t for n in tree.body if isinstance(n, ast.Assign) for t in n.targets]
        targets += [n.target for n in tree.body if isinstance(n, ast.AnnAssign)]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        unread += [f"{path.stem}.{name}" for name in names
                   if name.isupper() and not name.startswith("_") and name not in read]
    return unread


def test_every_constant_is_read_outside_the_tests():
    assert unread_constants(SRC, CALLERS) == []


def test_guard_flags_a_constant_only_tests_read(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import UNREAD\nprint(UNREAD)\n")
    (pkg / "a.py").write_text(
        "READ = 1\nUNREAD = 2\n_PRIVATE = 3\nlower = 4\nLOW, HIGH = 0, 9\n"
        "def f():\n    return READ + HIGH\n")
    demo = tmp_path / "demo.py"
    demo.write_text("NAMES = ['LOW']\n")  # strings are not reads
    assert unread_constants(pkg, [demo]) == ["a.UNREAD", "a.LOW"]


def _returns(fn) -> list:
    """Return statements of ``fn`` itself, not of the functions and classes it defines."""
    todo, found = list(fn.body), []
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _literal(node):
    """The value of a literal such as ``-1``, or None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def discarded_elements(src: Path, callers: list) -> list:
    """``module.function[i]`` of each element of a returned tuple that every reference in
    ``src`` or ``callers`` throws away. A function counts when all its returns are tuple
    displays of one length. A call reads only the elements it unpacks into names other than
    ``_``, or the constant index it takes; any other reference uses the result whole and reads
    every element."""
    modules = _modules(src)
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in callers]
    sizes = {}
    for path, tree in modules.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                values = [r.value for r in _returns(fn)]
                lengths = {len(v.elts) if isinstance(v, ast.Tuple) else 0 for v in values}
                if len(lengths) == 1 and lengths != {0}:
                    sizes[fn.name] = (path.stem, lengths.pop())
    read = {name: set() for name in sizes}
    for tree in trees:
        taken = {}  # id of a call: the elements that its unpacking or indexing reads
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Tuple) \
                    and not any(isinstance(t, ast.Starred) for t in node.targets[0].elts):
                taken[id(node.value)] = {i for i, t in enumerate(node.targets[0].elts)
                                         if getattr(t, "id", None) != "_"}
            elif isinstance(node, ast.Subscript) and isinstance(_literal(node.slice), int):
                taken[id(node.value)] = {_literal(node.slice)}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in read and isinstance(getattr(node, "ctx", None), ast.Load):
                size = sizes[name][1]
                read[name] |= {i % size for i in taken.get(id(calls.get(id(node))), range(size))}
    return [f"{sizes[name][0]}.{name}[{i}]" for name in sizes for i in range(sizes[name][1])
            if i not in read[name]]


def test_every_returned_element_is_read_outside_the_tests():
    assert discarded_elements(SRC, CALLERS) == []


def test_guard_flags_a_returned_element_every_call_discards(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import pair\nr, s, t = pair()\n")
    (pkg / "a.py").write_text(
        "def pair():\n"
        "    if True:\n        return 1, 2, 3\n"
        "    def inner():\n        return 0\n"  # a nested def's returns are its own
        "    return 4, 5, 6\n"
        "def whole():\n    return 7, 8\n"
        "def mixed(x):\n    return (1, 2) if x else None\n")
    (pkg / "b.py").write_text("from .a import pair, whole\n"
                              "_, b, _ = pair()\nc = pair()[-1]\n"
                              "_, _ = whole()\nvalues = list(map(whole, [0]))\n")
    demo = tmp_path / "demo.py"
    demo.write_text("NAMES = ['pair']\n")
    assert discarded_elements(pkg, [demo]) == ["a.pair[0]"]


_MAPPING_TYPES = {"dict", "Mapping", "MutableMapping"}


def _names_a_mapping_type(node) -> bool:
    return any(getattr(n, "id", None) in _MAPPING_TYPES or getattr(n, "attr", None) in _MAPPING_TYPES
               for n in ast.walk(node))


def dict_checks(src: Path) -> list:
    """``module:line`` of each test whether a value is a ``dict`` (``isinstance`` or
    ``issubclass`` against a mapping type, or a comparison with one, as in ``type(v) is dict``)
    outside ``numerics.parse_record``, the one skeleton every JSON record goes through."""
    found = []
    for path, tree in _modules(src).items():
        allowed = set()
        for fn in tree.body:
            if path.stem == "numerics" and getattr(fn, "name", None) == "parse_record":
                allowed |= {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                checks = len(node.args) == 2 and _names_a_mapping_type(node.args[1])
            elif isinstance(node, ast.Compare):
                checks = any(_names_a_mapping_type(n) for n in [node.left, *node.comparators])
            else:
                checks = False
            if checks:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_parse_record_checks_for_a_dict():
    assert dict_checks(SRC) == []


def test_guard_flags_a_record_that_checks_a_dict_on_its_own(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "numerics.py").write_text(
        "def parse_record(d):\n    return isinstance(d, dict)\n"
        "def other(d):\n    return type(d) is dict\n")
    (pkg / "box.py").write_text(
        "import collections.abc\n"
        "def parse_record(d):\n    return isinstance(d, (list, dict))\n"  # not numerics' own
        "def f(d):\n    return isinstance(d, collections.abc.Mapping) or isinstance(d, list)\n"
        "def g(d):\n    return type(d) in (dict,) or len(d) == 2\n")
    assert dict_checks(pkg) == ["box:3", "box:5", "box:7", "numerics:4"]
