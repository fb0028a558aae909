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


# Each input format has one reader: only ``artifacts`` opens a file, and only
# ``models``, which owns the model file, parses JSON.
CALL_OWNERS = {"open": "artifacts", "json.loads": "models"}


def _owned_calls(path: Path) -> list[str]:
    """The calls of ``path`` to ``open`` (a name or an ``.open`` attribute) and ``json.loads``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute) and func.attr == "open":
            found.append("open")
        elif isinstance(func, ast.Attribute) and func.attr == "loads" and ast.unparse(func.value) == "json":
            found.append("json.loads")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_owner_of_a_format_opens_or_parses_it(path):
    assert [call for call in _owned_calls(path) if CALL_OWNERS[call] != path.stem] == []


def test_the_ownership_check_sees_open_and_json_loads(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import io, json\n"
        "def f(path):\n"
        "    with open(path) as fh, io.open(path) as gh, path.open() as hh:\n"
        "        return json.loads(fh.read()), json.dumps({})\n",
        encoding="utf-8",
    )
    assert _owned_calls(module) == ["open", "open", "open", "json.loads"]


def _sibling_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports from: ``from .x import ...`` and ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_cli_reaches_the_bessel_twins_through_inversion_only():
    # each twin builds its own multipliers, so the CLI holds no quadrature call of its own
    assert "bessel" not in _sibling_imports(PACKAGE / "cli.py")


def test_the_sibling_check_sees_both_import_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json\nfrom . import bessel\nfrom .inversion import invert_bessel\n", encoding="utf-8")
    assert _sibling_imports(module) == {"bessel", "inversion"}
