"""No public top-level function or class of the package, no public
method or property of a package class, and no defaulted parameter of
either is test-only.

Reads the AST of every module under src/qhalf. Each public top-level
function or class, and each public method or property, must be named by
package code outside its own definition, or by a file under bench/,
where the dotted names in bench/tracing.TRACED count. Each defaulted
parameter of such a function, method or explicit __init__ must be set by
a call in src/qhalf or bench/. Code that only the tests call belongs in
the tests. Dunders and dataclass fields are not checked. Only domain
names the grid's row tags.
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


def _caller_trees():
    return [ast.parse(path.read_text())
            for folder in (PACKAGE, BENCH) for path in sorted(folder.glob("*.py"))]


def _callee(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _signatures(statements):
    """(name a call uses, parameters a call fills by position, defaulted
    parameters) of every public top-level function and every public
    method or explicit __init__ of a package class. A method call fills
    its instance implicitly, and Class(...) reaches __init__."""
    for stmt in statements:
        if isinstance(stmt, ast.FunctionDef):
            fns = [stmt]
        elif isinstance(stmt, ast.ClassDef):
            fns = [fn for fn in stmt.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for fn in fns:
            name = stmt.name if fn.name == "__init__" else fn.name
            if name.startswith("_"):
                continue
            static = fn is stmt or any(getattr(d, "id", None) == "staticmethod"
                                       for d in fn.decorator_list)
            params = fn.args.posonlyargs + fn.args.args
            defaulted = params[len(params) - len(fn.args.defaults):]
            defaulted += [a for a, d in zip(fn.args.kwonlyargs,
                                            fn.args.kw_defaults)
                          if d is not None]
            yield (name, [a.arg for a in params[0 if static else 1:]],
                   [a.arg for a in defaulted])


def _set_by(call, positional):
    """The parameters a call sets; None when * or ** unpacking may set any."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return None
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


# alpha = 1/2 is the one exponent of every run. At 1/2, 2 alpha = 1 and
# alpha = 1 - alpha, so only the tests at alpha = 0.3, 0.4 and 0.7 can tell
# an exponent written with alpha from one written with 1/2.
TEST_ONLY_PARAMETERS = {("product_phase", "alpha"), ("log_derivative", "alpha"),
                        ("derivative_decay_check", "alpha")}


def test_every_defaulted_parameter_is_set_outside_the_tests():
    calls, named = {}, set()
    for tree in _caller_trees():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
                callees.add(id(node.func))
        # a function named outside a call, as data_maps.GENERATORS names
        # the generators, may be called with any of its parameters
        named |= {getattr(node, "id", getattr(node, "attr", None))
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and id(node) not in callees}
    unset = set()
    for name, positional, defaulted in _signatures(_package_statements()):
        if name in named:
            continue
        done = set()
        for call in calls.get(name, []):
            sets = _set_by(call, positional)
            done |= set(defaulted) if sets is None else sets
        unset |= {(name, param) for param in defaulted if param not in done}
    assert unset == TEST_ONLY_PARAMETERS


# The row tags and their names; domain turns them into SideGraph.free,
# .shared and .boundary and HalfDomain.interface_ids for everyone else.
ROW_TAGS = {"INTERIOR_PLUS", "INTERIOR_MINUS", "INTERFACE", "BOUNDARY_PLUS",
            "BOUNDARY_MINUS", "TAG_NAMES"}


def test_only_domain_names_the_row_tags():
    named = {path.name: sorted(_names(ast.parse(path.read_text())) & ROW_TAGS)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "domain.py"}
    assert {name: tags for name, tags in named.items() if tags} == {}
