"""The benchmark under ``perfbench/`` reaches the library by name: its
tracer patches the layers listed in ``tracer.TARGETS``, and its workloads
read attributes of ``lrckit`` modules.  These tests parse those files,
without importing or changing them, and check that every such name still
exists, so that trimming the library cannot break the benchmark silently.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((BENCH / name).read_text())


def lrckit_modules(tree):
    """Local name -> module, for each ``from lrckit import ...`` name."""
    return {alias.asname or alias.name: importlib.import_module(f"lrckit.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "lrckit"
            for alias in node.names}


def rooted_at(expr, modules):
    """True iff expr is an attribute chain on one of the modules."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return isinstance(expr, ast.Name) and expr.id in modules


def resolves(expr, modules, attr=None):
    """True iff the chain (followed by ``attr``, when given) names an
    existing object."""
    def walk(e):
        return modules[e.id] if isinstance(e, ast.Name) else getattr(walk(e.value), e.attr)

    try:
        obj = walk(expr)
        return attr is None or hasattr(obj, attr)
    except AttributeError:
        return False


def test_every_traced_layer_resolves():
    tree = parse("tracer.py")
    modules = lrckit_modules(tree)
    targets = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    entries = {key.value: value.elts for key, value in zip(targets.keys, targets.values)}
    assert "erasure.min_distance" in entries and "algebra.Poly.mul" in entries
    missing = [layer for layer, (owner, attr) in entries.items()
               if not resolves(owner, modules, attr.value)]
    assert missing == []


def test_every_library_name_the_workloads_read_exists():
    tree = parse("workloads.py")
    modules = lrckit_modules(tree)
    reads = {ast.unparse(node): node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and rooted_at(node, modules)}
    assert {"lrc.encode", "erasure.ErasurePattern.make", "gsd.check_array"} <= set(reads)
    assert sorted(name for name, node in reads.items() if not resolves(node, modules)) == []
