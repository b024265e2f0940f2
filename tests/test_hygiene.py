"""Source hygiene: no module imports a name it never uses, and no package
module imports another one's underscore names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))


def _unused_imports(tree):
    """Imported names that are neither referenced nor listed in __all__."""
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom re import match, sub\n__all__ = ['sub']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "match")]


def _private_imports(tree):
    """Underscore names imported from an lbldg module, relatively or by name."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "lbldg")
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports_across_modules(path):
    private = _private_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not private, ", ".join(f"line {line}: {name}" for line, name in private)


def test_the_check_sees_a_private_import():
    tree = ast.parse(
        "from .building import _provably_zero, trop\n"
        "from os import _exit\n"
        "from lbldg.rootsys import _as_root\n"
        "from ._backend import kernel_mul\n"
    )
    assert _private_imports(tree) == [(1, "_provably_zero"), (3, "_as_root")]
