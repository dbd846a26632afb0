"""Source rules that `python -O` and a bare RuntimeError would break.

Every check in the package must survive `python -O`, which strips `assert`
statements, and every failure must be a typed error: a ValueError subclass
for bad input, or a RuntimeError subclass such as UnitarityError, never a
bare RuntimeError.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qcatmap")
                 .glob("*.py"))


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
