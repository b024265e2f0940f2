"""Source hygiene: no module imports a name it never uses, no package
module imports another one's underscore names, and every public definition
in the package is reachable from a suite, a command or a benchmark workload."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


# --- reachability -------------------------------------------------------------


def _names_in(node):
    """Every bare name and attribute name read anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _targets(node):
    """Names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)
    ]


def _definitions(modules):
    """({(module, name): node} for every module-level def, class and
    assigned name, the names read by every other module-level statement)."""
    defs = {}
    loose = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _targets(node):
                    defs[(mod, name)] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                loose |= _names_in(node)
    return defs, loose


def _roots(defs):
    """Definitions the package is run through: the suite registries
    (AXIOMS, THEOREMS) and every click command or group of the CLI."""
    roots = set()
    for (mod, name), node in defs.items():
        if name in ("AXIOMS", "THEOREMS"):
            roots.add((mod, name))
        elif mod.endswith(".cli") and isinstance(node, ast.FunctionDef):
            if any({"command", "group"} & _names_in(d) for d in node.decorator_list):
                roots.add((mod, name))
    return roots


def _unreachable(modules, names):
    """Public definitions that neither a root nor a name in names reaches,
    where a definition reaches every definition, in any module, named by a
    name it reads.  Resolving by name alone may keep too much, never too
    little."""
    defs, loose = _definitions(modules)
    roots = _roots(defs)
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    seen = set(roots)
    todo = set(names) | loose
    for key in roots:
        todo |= _names_in(defs[key])
    while todo:
        for key in by_name.get(todo.pop(), ()):
            if key not in seen:
                seen.add(key)
                todo |= _names_in(defs[key])
    return sorted(
        f"{mod}.{name}"
        for mod, name in defs
        if (mod, name) not in seen and not name.startswith("_")
    )


def _package_modules(src):
    return {
        ".".join(path.relative_to(src).with_suffix("").parts): ast.parse(
            path.read_text(), filename=str(path)
        )
        for path in sorted(src.rglob("*.py"))
    }


def test_every_public_definition_is_reachable():
    modules = _package_modules(ROOT / "src")
    names = _names_in(ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS)))
    dead = _unreachable(modules, names)
    assert not dead, "reached by no suite, command or workload: " + ", ".join(dead)


def test_the_check_sees_an_unreachable_definition():
    modules = {
        "pkg.harness.axioms": ast.parse(
            "from ..geo import used\n"
            "def _check(cfg):\n    return used(cfg)\n"
            "AXIOMS = {'X': _check}\n"
        ),
        "pkg.harness.cli": ast.parse(
            "import click\n"
            "@click.group()\ndef main():\n    pass\n"
            "@main.command()\ndef show():\n    print(Shape().area())\n"
            "def helper():\n    pass\n"
        ),
        "pkg.geo": ast.parse(
            "LIMIT = 3\nSPARE = 4\n__version__ = '1'\n"
            "def used(x):\n    return _inner(x) + LIMIT\n"
            "def _inner(x):\n    return x\n"
            "def planted(x):\n    return _lonely(x)\n"
            "def _lonely(x):\n    return x\n"
            "def from_bench():\n    return 0\n"
            "class Shape:\n    def area(self):\n        return measure()\n"
            "def measure():\n    return 1\n"
        ),
    }
    dead = _unreachable(modules, {"from_bench"})
    assert dead == ["pkg.geo.SPARE", "pkg.geo.planted", "pkg.harness.cli.helper"]
