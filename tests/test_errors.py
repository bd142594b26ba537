"""Every ``raise`` in ``src/`` names a class from ``costsense.errors``.

A check raises a typed ``CostSenseError``, which ``cli.main`` reports as one
line with exit status 1 or 2; ``cli.main`` does not catch builtin errors, so a
builtin raise that a command-line input reaches ends in a traceback. The one
builtin allowed is ``SystemExit``. A re-raise that keeps the type of the error
it caught, ``raise type(err)(...)``, names no class and passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import costsense
from costsense import errors

_SRC = Path(costsense.__file__).parent
_ALLOWED = {name for name, value in vars(errors).items() if isinstance(value, type)} | {"SystemExit"}


def _raised_name(exc) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def _untyped_raises(tree) -> list[tuple[int, str]]:
    """Line and class name of each ``raise Name``, ``raise module.Name`` or a
    call of either under ``tree`` whose class is not allowed."""
    return sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  and (name := _raised_name(node.exc)) is not None and name not in _ALLOWED)


def test_every_raise_in_src_names_a_costsense_error():
    found = {
        path.name: raises
        for path in sorted(_SRC.glob("*.py"))
        if (raises := _untyped_raises(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_raise_walker_finds_a_builtin_raise():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise type(x)('kept')\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise KeyError\n"
        "        raise errors.ConfigError('typed')\n"
        "        raise np.linalg.LinAlgError()\n"
    )
    assert _untyped_raises(tree) == [(3, "ValueError"), (7, "KeyError"), (9, "LinAlgError")]
