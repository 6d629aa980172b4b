"""The benchmark under ``perfbench/`` reaches the library by name: its
tracer patches the layers listed in ``tracer.TARGETS``, and its workloads
read attributes of ``lrckit`` modules.  These tests parse those files,
without importing or changing them, and check that every such name still
exists, so that trimming the library cannot break the benchmark silently.
"""

import ast
import dataclasses
import importlib
import inspect
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


def resolve(expr, modules):
    """The object an attribute chain on one of the modules names; raises
    AttributeError when there is none."""
    if isinstance(expr, ast.Name):
        return modules[expr.id]
    return getattr(resolve(expr.value, modules), expr.attr)


def resolves(expr, modules, attr=None):
    """True iff the chain (followed by ``attr``, when given) names an
    existing object."""
    try:
        obj = resolve(expr, modules)
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


def test_every_keyword_the_workloads_pass_is_a_parameter():
    tree = parse("workloads.py")
    modules = lrckit_modules(tree)
    passed = {}  # callable name -> (its expression, the keywords passed to it)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and rooted_at(node.func, modules):
            passed.setdefault(ast.unparse(node.func), (node.func, set()))[1].update(
                kw.arg for kw in node.keywords if kw.arg is not None)
    assert {"mode", "seed", "workers"} <= passed["gsd.check_array"][1]
    assert "workers" in passed["erasure.min_distance"][1]
    unknown = []
    for name, (func, keywords) in sorted(passed.items()):
        params = inspect.signature(resolve(func, modules)).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown += [f"{name}({kw}=)" for kw in sorted(keywords - set(params))]
    assert unknown == []


def test_the_fields_the_workloads_replace_are_linear_code_fields():
    """The workloads derive codes by ``dataclasses.replace(code, ...)``."""
    from lrckit.lrc import LinearCode

    replaced = {kw.arg for node in ast.walk(parse("workloads.py"))
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.replace"
                for kw in node.keywords}
    assert "check" in replaced
    assert replaced <= {f.name for f in dataclasses.fields(LinearCode) if f.init}
