"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import sys
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


# the dense reference eliminations; the library itself runs
# ``Matrix.eliminate``, so only algebra.py, which defines them, names them
DENSE_REFERENCE = {"rref", "rank", "nullspace"}


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
    ])
    assert dense_reference_calls(source) == [
        "line 1: .rank(", "line 2: .rank(", "line 3: .nullspace(", "line 4: .rref(",
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
