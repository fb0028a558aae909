"""Module boundaries inside the package.

A module's private names (a leading underscore) are its own.  The only
private names another module may import are the shared float helpers of
``semigroupinv._numerics``; a dunder such as ``__version__`` is not private.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semigroupinv"
SHARED = "_numerics"


def _private_imports(path: Path) -> list[str]:
    """``from .x import _name`` of ``path``, as "x._name", except from the shared module and of dunders."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module != SHARED:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.append(f"{node.module or ''}.{alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert _private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import __version__\n"
        "from ._numerics import _split\n"
        "from .spectral import _tridiagonal, norm\n"
        "def f():\n    from .inversion import _energy_active\n",
        encoding="utf-8",
    )
    assert _private_imports(module) == ["spectral._tridiagonal", "inversion._energy_active"]
