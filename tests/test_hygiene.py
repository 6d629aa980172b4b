"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lrckit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, sys",
        "from a import b as c",
        "sys.exit(c)",
    ])
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> list[tuple[str, int, bool]]:
    """(lrckit module, line, inside a function) for each import of one, in
    line order: ``from .x import ...``, ``from . import x``, ``from
    lrckit.x import ...``, ``from lrckit import x`` and ``import
    lrckit.x``."""
    tree = ast.parse(source)
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").split(".")[0] == "lrckit":
                base = node.module.partition(".")[2]
            else:
                continue
            mods = [base.split(".")[0]] if base else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            mods = [alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("lrckit.")]
        else:
            continue
        out += [(mod, node.lineno, id(node) in nested) for mod in mods]
    return sorted(out, key=lambda item: item[1])


def test_package_import_detector():
    source = "\n".join([
        "from .lrc import encode",
        "from . import fixtures, serial",
        "from lrckit.algebra import Matrix",
        "import os, lrckit.gsd",
        "from os.path import join",
        "def f():",
        "    from .erasure import min_distance",
        "    import json",
        "class C:",
        "    def g(self):",
        "        from lrckit import bounds",
    ])
    assert package_imports(source) == [
        ("lrc", 1, False), ("fixtures", 2, False), ("serial", 2, False),
        ("algebra", 3, False), ("gsd", 4, False), ("erasure", 7, True), ("bounds", 11, True),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_sit_at_module_level(path):
    """An import of an lrckit module inside a function hides a dependency,
    typically one that would close an import cycle."""
    assert [line for _, line, inside in package_imports(path.read_text()) if inside] == []


def test_package_imports_are_acyclic():
    """The modules' imports of each other form no cycle, and the distance
    search and the split sit below ``erasure``: neither ``lrc`` nor ``gsd``
    imports it."""
    graph = {path.stem: {mod for mod, _, _ in package_imports(path.read_text())}
             for path in MODULES}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")
    assert "erasure" not in graph["lrc"] | graph["gsd"]


# FiniteField's tables; only algebra.py, which owns the prime/extension
# split, may read them
FIELD_INTERNALS = {"_inv", "_exp", "_log", "_zech"}


def private_reaches(source: str) -> list[str]:
    """Reads of FiniteField's private tables, and underscore names imported
    from an lrckit module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS:
            out.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "lrckit"
        ):
            out.extend(f"line {node.lineno}: import {alias.name}"
                       for alias in node.names if alias.name.startswith("_"))
    return out


def test_private_reach_detector():
    source = "\n".join([
        "from .lrc import encode, _helper",
        "from lrckit.algebra import _shared_field",
        "from os import _exit",
        "x = fld._inv[3] + fld.inv(3) + t._log",
    ])
    assert sorted(private_reaches(source)) == [
        "line 1: import _helper",
        "line 2: import _shared_field",
        "line 4: ._inv",
        "line 4: ._log",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_field_internals_stay_in_algebra(path):
    assert private_reaches(path.read_text()) == []


def third_party_imports(source: str) -> list[str]:
    """Absolute imports, top-level or nested, of a package outside the
    standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out.extend(f"line {node.lineno}: {name}" for name in names
                   if name.split(".")[0] not in sys.stdlib_module_names)
    return out


def test_third_party_import_detector():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path, mpmath",
        "from .algebra import field",
        "from numpy.linalg import det",
        "def f():",
        "    import json, scipy as sp",
    ])
    assert third_party_imports(source) == [
        "line 2: mpmath",
        "line 4: numpy.linalg",
        "line 6: scipy",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_is_stdlib_only(path):
    assert third_party_imports(path.read_text()) == []


# the dense reference eliminations and the list-vector update that only
# ``rref`` runs; the library itself eliminates by ``algebra.eliminate_keys``,
# so only algebra.py, which defines them, names them
DENSE_REFERENCE = {"rref", "rank", "nullspace", "vec_sub_at"}


def dense_reference_calls(source: str) -> list[str]:
    """Calls of a method named after one of the dense references."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in DENSE_REFERENCE]
    return [f"line {node.lineno}: .{node.func.attr}("
            for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset))]


def test_dense_reference_call_detector():
    source = "\n".join([
        "r = h.rank()",
        "k = n - h.columns(c).rank() + len(h.eliminate(c, stop=False)[0])",
        "ns = m.nullspace().rows",
        "rows, piv = m.rref()",
        "f = m.rank",
        "rank = 3",
        "fld.vec_sub_at(v, c, u, idx)",
        "sub_at = fld.vec_sub",
    ])
    assert dense_reference_calls(source) == [
        "line 1: .rank(", "line 2: .rank(", "line 3: .nullspace(", "line 4: .rref(",
        "line 7: .vec_sub_at(",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_library_eliminates_only_through_the_kernel(path):
    assert dense_reference_calls(path.read_text()) == []


# the prime/extension split: only algebra.py, whose FiniteField binds the
# kernels per kind (the row plan's lanes among them), may compare a
# field's characteristic or degree; serial.py writes them into a spec
KIND_ATTRS = {"p", "m"}
KIND_FORK_ALLOWED = {"algebra.py", "serial.py"}


def kind_comparisons(source: str) -> list[str]:
    """Comparisons with an attribute named ``p`` or ``m`` on either side."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            out.extend(f"line {node.lineno}: .{side.attr}"
                       for side in [node.left, *node.comparators]
                       if isinstance(side, ast.Attribute) and side.attr in KIND_ATTRS)
    return out


def test_kind_comparison_detector():
    source = "\n".join([
        "if fld.m == 1: pass",
        "ok = 2 < self.field.p <= 7",
        "q = fld.p ** fld.m",
        "big = FiniteField(base.p, base.m * d)",
        "same = a.m != b.q",
    ])
    assert kind_comparisons(source) == ["line 1: .m", "line 2: .p", "line 5: .m"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in KIND_FORK_ALLOWED],
                         ids=lambda p: p.name)
def test_field_kind_forks_stay_in_algebra(path):
    assert kind_comparisons(path.read_text()) == []


# int.from_bytes and int.to_bytes take the byte order as a required
# argument before Python 3.11, and the project supports 3.10
BYTE_ORDERS = {"big", "little"}
BYTE_METHODS = {"from_bytes", "to_bytes"}


def names_byte_order(node) -> bool:
    """True iff ``node`` is the literal "big" or "little"."""
    return isinstance(node, ast.Constant) and node.value in BYTE_ORDERS


def implicit_byte_orders(source: str) -> list[str]:
    """Uses of ``from_bytes``/``to_bytes`` that do not name the byte order:
    a call without "big" or "little" as its second argument or its
    ``byteorder``, a ``map`` of one without a ``repeat("big")`` or
    ``repeat("little")`` among its iterables, and any other mention but an
    alias under the same name (whose uses are checked by that name)."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name not in BYTE_METHODS:
            continue
        up = parent.get(node)
        if isinstance(up, ast.Call) and up.func is node:
            ok = (len(up.args) > 1 and names_byte_order(up.args[1])
                  or any(kw.arg == "byteorder" and names_byte_order(kw.value)
                         for kw in up.keywords))
        elif (isinstance(up, ast.Call) and isinstance(up.func, ast.Name)
              and up.func.id == "map" and up.args[0] is node):
            ok = any(isinstance(arg, ast.Call) and len(arg.args) == 1
                     and names_byte_order(arg.args[0])
                     and getattr(arg.func, "id", getattr(arg.func, "attr", None)) == "repeat"
                     for arg in up.args[1:])
        else:
            ok = (isinstance(up, ast.Assign) and len(up.targets) == 1
                  and isinstance(up.targets[0], ast.Name) and up.targets[0].id == name)
        if not ok:
            out.append(f"line {node.lineno}: {name}")
    return sorted(out)


def test_implicit_byte_order_detector():
    source = "\n".join([
        "from_bytes = int.from_bytes",
        "a = from_bytes(w, 'big') ^ int.from_bytes(u, byteorder='little')",
        "b = x.to_bytes(4, 'big') + x.to_bytes(4) + x.to_bytes(length=4)",
        "c = from_bytes(w)",
        "d = list(map(from_bytes, ws, itertools.repeat('big')))",
        "e = list(map(from_bytes, ws, repeat(order)))",
        "f = list(map(int.to_bytes, xs, ns))",
        "g, conv = 1, int.from_bytes",
        "h = x.to_bytes(4, order)",
    ])
    assert implicit_byte_orders(source) == [
        "line 3: to_bytes", "line 3: to_bytes", "line 4: from_bytes", "line 6: from_bytes",
        "line 7: to_bytes", "line 8: from_bytes", "line 9: to_bytes",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_byte_order_is_explicit(path):
    assert implicit_byte_orders(path.read_text()) == []


PYPROJECT = SRC.parent.parent / "pyproject.toml"


def python_floor() -> tuple[int, int]:
    """The (major, minor) of the ``requires-python = ">=X.Y"`` line of
    pyproject.toml."""
    line = next(ln for ln in PYPROJECT.read_text().splitlines()
                if ln.startswith("requires-python"))
    major, minor = line.split(">=")[1].strip().strip('"').split(".")[:2]
    return int(major), int(minor)


def test_python_floor_parse_refuses_newer_syntax():
    """Parsing at the declared floor refuses syntax from later versions:
    ``except*`` (3.11) and a ``type`` alias (3.12)."""
    assert python_floor() == (3, 10)
    for source in ["try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n"]:
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=python_floor())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_parses_at_the_python_floor(path):
    """Every module parses as the oldest Python that pyproject.toml admits."""
    ast.parse(path.read_text(), feature_version=python_floor())
