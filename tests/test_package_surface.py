"""No public top-level function or class of the package, and no public
method or property of a package class, is test-only.

Reads the AST of every module under src/qhalf. Each public top-level
function or class, and each public method or property, must be named by
package code outside its own definition, or by a file under bench/,
where the dotted names in bench/tracing.TRACED count. Code that only
the tests call belongs in the tests. Dunders and dataclass fields are
not checked.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qhalf"
BENCH = ROOT / "bench"


def _names(tree):
    """Every identifier a tree names: loads, attributes, imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _attributes(tree):
    """Every attribute a tree reads or writes, as in obj.name."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _bench_names():
    names = set()
    for path in BENCH.glob("*.py"):
        names |= _names(ast.parse(path.read_text()))
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names.update(name.rsplit(".", 1)[1] for name, _, _ in tracing.TRACED)
    return names


def _package_statements():
    return [stmt for path in sorted(PACKAGE.glob("*.py"))
            for stmt in ast.parse(path.read_text()).body]


def test_every_public_name_has_a_caller_outside_the_tests():
    statements = _package_statements()
    named = [_names(stmt) for stmt in statements]
    bench = _bench_names()
    unread = []
    for k, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_") or stmt.name in bench:
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(named) if j != k):
            unread.append(stmt.name)
    assert unread == []


def test_every_public_member_has_a_caller_outside_the_tests():
    # A member is reached as obj.member, so only attribute names count.
    statements = _package_statements()
    named = [_attributes(stmt) for stmt in statements]
    bench = set().union(*(_attributes(ast.parse(path.read_text()))
                          for path in BENCH.glob("*.py")))
    unread = []
    for k, cls in enumerate(statements):
        if not isinstance(cls, ast.ClassDef):
            continue
        outside = bench.union(*(names for j, names in enumerate(named)
                                if j != k))
        for member in cls.body:
            if (not isinstance(member, ast.FunctionDef)
                    or member.name.startswith("_")):
                continue
            rest = outside.union(*(_attributes(node) for node in cls.body
                                   if node is not member))
            if member.name not in rest:
                unread.append(f"{cls.name}.{member.name}")
    assert unread == []
