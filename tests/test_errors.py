"""The exit-code contract as the source states it: every raise names a class
that ``cli.main`` maps to exactly one exit code, so no exception escapes it
as a traceback."""

import ast
from pathlib import Path

import stealthdeg

SRC = Path(stealthdeg.__file__).parent

# ValidationError and CaseSyntaxError exit 2, SingularityError exits 3,
# FileNotFoundError (a missing case file) is an OSError and exits 2, and the
# CLI's _UsageError exits 1.
RAISABLE = {"ValidationError", "CaseSyntaxError", "SingularityError",
            "FileNotFoundError", "_UsageError"}


def _raised(path):
    """(line, name) of every raise in ``path``; a bare raise names None."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, None if exc is None else ast.unparse(exc)


def test_every_raise_names_a_class_with_an_exit_code():
    stray = [(path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _raised(path) if name not in RAISABLE]
    assert stray == []


def test_errors_defines_one_class_per_exit_code():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["StealthdegError", "CaseSyntaxError", "ValidationError",
                       "SingularityError"]
