"""Source rules that `python -O` and a bare RuntimeError would break.

Every check in the package must survive `python -O`, which strips `assert`
statements, and every failure must be a typed error: a ValueError subclass
for bad input, or a RuntimeError subclass such as UnitarityError, never a
bare RuntimeError.  Every exception class the package defines is raised
somewhere in it, so a deletion cannot leave a typed error behind that no
caller can meet.  The array code keeps one int64 path: no `dtype=object`
arrays of Python ints, which gauss_closed covers for large parameters.
Every name in `qcatmap.__all__`, and every public top-level function of a
package module, is read by the package itself, a demo or the benchmark
harness (a sweep may instead be named in `suites.CHECKS`), so the public
API holds only what something calls, and every private module-level name
is read by the package outside its own definition, so a replaced helper
cannot stay behind.
"""

import ast
from pathlib import Path

import pytest

import qcatmap
from qcatmap import suites

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qcatmap").glob("*.py"))
CALLERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_")))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append(f"line {node.lineno}: raise RuntimeError")
    return found


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_or_bare_runtime_error(path):
    assert _violations(ast.parse(path.read_text(), str(path))) == []


def test_rule_catches_both_forms():
    tree = ast.parse("assert x\nraise RuntimeError('y')\nraise RuntimeError\n"
                     "raise UnitarityError('z')\n")
    assert _violations(tree) == ["line 1: assert",
                                 "line 2: raise RuntimeError",
                                 "line 3: raise RuntimeError"]


def _object_arrays(tree: ast.AST) -> list[str]:
    """Lines that make an object array: a dtype= or astype() argument that
    names object or "O" anywhere, as in `object if huge else np.int64`."""
    def is_object(node):
        return ((isinstance(node, ast.Name) and node.id == "object")
                or (isinstance(node, ast.Constant) and node.value == "O"))

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                and node.args):
            dtypes.append(node.args[0])
        if any(is_object(n) for d in dtypes for n in ast.walk(d)):
            found.append(f"line {node.lineno}: object array")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_object_arrays(path):
    assert _object_arrays(ast.parse(path.read_text(), str(path))) == []


def test_object_rule_catches_every_form():
    tree = ast.parse("np.asarray(g, dtype=object)\nnp.empty(3, dtype='O')\n"
                     "x.astype(object)\nx.astype('O')\n"
                     "np.asarray(g, dtype=object if huge else np.int64)\n"
                     "np.asarray(g, dtype=np.int64)\nx.astype(np.int64)\n")
    assert _object_arrays(tree) == [f"line {i}: object array"
                                    for i in (1, 2, 3, 4, 5)]


def _unraised(trees: list[ast.AST]) -> list[str]:
    """Exception classes defined in the trees that none of them raises: a
    class counts as an exception when a base name ends in Error or
    Exception, and as raised when a raise statement names it, bare, called
    or as a module attribute."""
    raised = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.attr if isinstance(exc, ast.Attribute)
                       else getattr(exc, "id", None))
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name not in raised
                  and any(isinstance(base, ast.Name)
                          and base.id.endswith(("Error", "Exception"))
                          for base in node.bases))


def test_every_exception_class_is_raised():
    assert _unraised([ast.parse(p.read_text(), str(p)) for p in SOURCES]) == []


def test_raised_rule_catches_a_dead_class():
    defined = ast.parse("class DeadError(ValueError):\n    pass\n"
                        "class CalledError(ValueError):\n    pass\n"
                        "class BareError(CalledError):\n    pass\n"
                        "class QualifiedError(Exception):\n    pass\n"
                        "class Plain:\n    pass\n")
    raising = ast.parse("raise CalledError('x')\nraise BareError\n"
                        "raise mod.QualifiedError('y') from None\n")
    assert _unraised([defined, raising]) == ["DeadError"]
    assert _unraised([defined]) == ["BareError", "CalledError", "DeadError",
                                    "QualifiedError"]


def _reads(tree: ast.AST) -> set[str]:
    """Names a tree reads: loaded bare, taken as an attribute, or imported."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def _uncalled(public: list[str], trees: list[ast.AST]) -> list[str]:
    """Public names that none of the trees reads (_reads); a definition or
    an assignment alone does not count."""
    return sorted(set(public) - set().union(*map(_reads, trees)))


def test_every_public_name_has_a_caller():
    public = [name for name in qcatmap.__all__ if name != "__version__"]
    trees = [ast.parse(p.read_text(), str(p)) for p in CALLERS]
    assert _uncalled(public, trees) == []


def test_caller_rule_catches_an_uncalled_name():
    defined = ast.parse("def dead():\n    pass\nclass Dead:\n    pass\n"
                        "DEAD_TOL = 1.0\ndef called():\n    pass\n"
                        "def imported():\n    pass\nLIVE_TOL = 2.0\n")
    calling = ast.parse("from .m import imported as alias\ncalled()\n"
                        "print(m.LIVE_TOL)\n")
    public = ["dead", "Dead", "DEAD_TOL", "called", "imported", "LIVE_TOL"]
    assert _uncalled(public, [defined, calling]) == ["DEAD_TOL", "Dead", "dead"]
    assert _uncalled(public, [defined]) == sorted(public)


def _unread_public(modules: dict[str, ast.Module], callers: list[ast.Module],
                   sweeps) -> list[str]:
    """Public top-level functions of the modules, as module.name, that no
    top-level statement of the callers reads outside the function's own
    definition, and that are not among the sweeps: a name counts as read
    as in _uncalled, and a string that names it does not count."""
    reads = [(stmt, _reads(stmt)) for tree in callers for stmt in tree.body]
    return sorted(f"{mod}.{stmt.name}" for mod, tree in modules.items()
                  for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef)
                  and not stmt.name.startswith("_") and stmt.name not in sweeps
                  and not any(stmt.name in names
                              for other, names in reads if other is not stmt))


def test_every_public_function_is_read():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    callers = [modules[p.stem] if p in SOURCES else ast.parse(p.read_text(), str(p))
               for p in CALLERS]
    sweeps = {sweep for sweep, _ in suites.CHECKS.values()}
    assert _unread_public(modules, callers, sweeps) == []


def test_public_rule_catches_an_unread_function():
    defining = ast.parse("def dead():\n    return 'live'\n"
                         "def recursive(k):\n    return recursive(k - 1)\n"
                         "def live():\n    pass\n"
                         "def sweep():\n    pass\n"
                         "def _private():\n    pass\n"
                         "class Dead:\n    pass\n")
    reading = ast.parse("from .m import live\nx = 'dead'\n")
    modules = {"m": defining}
    assert _unread_public(modules, [defining, reading], {"sweep"}) == [
        "m.dead", "m.recursive"]
    assert _unread_public(modules, [defining], set()) == [
        "m.dead", "m.live", "m.recursive", "m.sweep"]


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function's or a class's,
    or every name an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unread_private(modules: dict[str, ast.Module]) -> list[str]:
    """Private module-level names (one leading underscore) that no statement
    reads outside the one defining them, as module.name: a name counts as
    read when its own module loads it bare, or a module takes it as an
    attribute of the defining module's name or imports it from there."""
    reads = []
    for mod, tree in modules.items():
        for stmt in tree.body:
            keys = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    keys.add((mod, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    keys.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    keys.update((node.module.rpartition(".")[2], alias.name)
                                for alias in node.names)
            reads.append((stmt, keys))
    return sorted(f"{mod}.{name}" for mod, tree in modules.items()
                  for stmt in tree.body for name in _defined(stmt)
                  if name.startswith("_") and not name.startswith("__")
                  and not any((mod, name) in keys
                              for other, keys in reads if other is not stmt))


def test_every_private_name_is_read():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert _unread_private(modules) == []


def test_private_rule_catches_an_unread_name():
    defining = ast.parse("__version__ = '1'\n_LIVE, _DEAD = 1, 2\n"
                         "def _recursive(k):\n    return _recursive(k - 1)\n"
                         "def _called():\n    return _LIVE\n"
                         "def _imported():\n    pass\n"
                         "class _Taken:\n    pass\n"
                         "def _other_module():\n    pass\n"
                         "def public():\n    return _called()\n")
    reading = ast.parse("from .m import _imported\nm._Taken()\nx._other_module()\n"
                        "def _other_module():\n    pass\n_other_module()\n")
    modules = {"m": defining, "r": reading}
    assert _unread_private(modules) == ["m._DEAD", "m._other_module", "m._recursive"]
    assert _unread_private({"m": defining}) == [
        "m._DEAD", "m._Taken", "m._imported", "m._other_module", "m._recursive"]
