"""Source hygiene: no module imports a name it never uses, no package
module imports another one's underscore names or builds a tuple from a
generator, and every public definition in the package is reachable from a
suite, a command or a benchmark workload."""

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


def _tuple_generators(tree):
    """Lines that build a tuple from a generator, tuple(x for x in xs):
    series.py's convention builds every tuple from a list, since
    tuple(generator) frees its result onto another length's free list."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_tuple_built_from_a_generator(path):
    lines = _tuple_generators(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, ", ".join(f"line {line}: tuple(<generator>)" for line in lines)


def test_the_check_sees_a_tuple_built_from_a_generator():
    tree = ast.parse(
        "a = tuple(x for x in range(3))\n"
        "b = tuple([x for x in range(3)])\n"
        "c = tuple(range(3))\n"
        "d = sum(x for x in range(3))\n"
        "e = [tuple(\n    y for y in row\n) for row in rows]\n"
    )
    assert _tuple_generators(tree) == [1, 5]


# --- reachability -------------------------------------------------------------


def _module_key(modules, name):
    """The key of module name in modules (a package is keyed by its
    __init__), or None for a module from outside them."""
    for key in (name, name + ".__init__"):
        if key in modules:
            return key
    return None


def _imports(mod, tree, modules):
    """{bound name: (module, name)} for what mod imports from modules, with
    name None where the bound name is a module itself."""
    if mod.endswith(".__init__"):
        package = mod[: -len(".__init__")]
    else:
        package = mod.rpartition(".")[0]
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name if alias.asname else alias.name.split(".")[0]
                key = _module_key(modules, name)
                if key:
                    out[alias.asname or name] = (key, None)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1] + ([base] if base else []))
            source = _module_key(modules, base)
            for alias in node.names:
                key = _module_key(modules, f"{base}.{alias.name}")
                if key:
                    out[alias.asname or alias.name] = (key, None)
                elif source:
                    out[alias.asname or alias.name] = (source, alias.name)
    return out


def _targets(node):
    """Names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)
    ]


def _definitions(modules):
    """({(module, name): node} for every module-level def, class and
    assigned name, {module: [every other module-level statement]})."""
    defs = {}
    loose = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _targets(node):
                    defs[(mod, name)] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                loose.setdefault(mod, []).append(node)
    return defs, loose


class _Resolver:
    """The definitions a piece of code reads.  A bare name resolves to its
    own module's definition or, through the module's imports and any
    re-exports, to its source; an attribute of a module alias, such as
    fs.mul, to that module's definition.  Only an attribute of some other
    object resolves by name alone, to every definition so named."""

    def __init__(self, defs, imports):
        self.defs = defs
        self.imports = imports
        self.by_name = {}
        for key in defs:
            self.by_name.setdefault(key[1], []).append(key)

    def follow(self, key):
        """The definition key names, or None for a module or a name from
        outside the package."""
        for _ in range(len(self.imports) + 1):
            if key in self.defs:
                return key
            key = self.imports.get(key[0], {}).get(key[1])
            if key is None or key[1] is None:
                return None
        return None

    def references(self, mod, node):
        table = self.imports.get(mod, {})
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(self.follow((mod, sub.id)))
            elif isinstance(sub, ast.Attribute):
                base = table.get(sub.value.id) if isinstance(sub.value, ast.Name) else None
                if base is not None and base[1] is None:
                    out.add(self.follow((base[0], sub.attr)))
                else:
                    out.update(self.by_name.get(sub.attr, ()))
        out.discard(None)
        return out


def _roots(defs):
    """Definitions the package is run through: the suite registries
    (AXIOMS, THEOREMS) and every click command or group of the CLI."""
    roots = set()
    for (mod, name), node in defs.items():
        if name in ("AXIOMS", "THEOREMS"):
            roots.add((mod, name))
        elif mod.endswith(".cli") and isinstance(node, ast.FunctionDef):
            if any(
                isinstance(sub, ast.Attribute) and sub.attr in ("command", "group")
                for d in node.decorator_list
                for sub in ast.walk(d)
            ):
                roots.add((mod, name))
    return roots


def _unreachable(modules, entries):
    """Public definitions of modules that neither a root nor the code of
    entries, outside modules that run the package, reaches, where a
    definition reaches every definition it reads (see _Resolver).
    Resolving attributes of objects by name alone may keep too much, never
    too little."""
    defs, loose = _definitions(modules)
    everything = {**modules, **entries}
    imports = {mod: _imports(mod, tree, everything) for mod, tree in everything.items()}
    resolver = _Resolver(defs, imports)
    seen = _roots(defs)
    todo = set(seen)
    for mod, tree in entries.items():
        todo |= resolver.references(mod, tree)
    for mod, nodes in loose.items():
        for node in nodes:
            todo |= resolver.references(mod, node)
    while todo:
        key = todo.pop()
        seen.add(key)
        todo |= resolver.references(key[0], defs[key]) - seen
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
    entries = {"workloads": ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))}
    dead = _unreachable(modules, entries)
    assert not dead, "reached by no suite, command or workload: " + ", ".join(dead)


def test_the_check_sees_an_unreachable_definition():
    modules = {
        "pkg.harness.axioms": ast.parse(
            "from ..geo import used\n"
            "def _check(cfg):\n    return used(cfg)\n"
            "AXIOMS = {'X': _check}\n"
        ),
        "pkg.harness.cli": ast.parse(
            "import click\nfrom .. import geo\n"
            "@click.group()\ndef main():\n    pass\n"
            "@main.command()\ndef show():\n    print(geo.Shape().area())\n"
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
        # dead twins of live names: resolved through imports, not by name
        "pkg.spare": ast.parse(
            "LIMIT = 5\n"
            "def used(x):\n    return x\n"
            "class Shape:\n    pass\n"
        ),
        "pkg.__init__": ast.parse("from .geo import from_bench\n"),
    }
    entries = {"bench": ast.parse("import pkg\n\ndef run():\n    return pkg.from_bench()\n")}
    dead = _unreachable(modules, entries)
    assert dead == [
        "pkg.geo.SPARE",
        "pkg.geo.planted",
        "pkg.harness.cli.helper",
        "pkg.spare.LIMIT",
        "pkg.spare.Shape",
        "pkg.spare.used",
    ]
