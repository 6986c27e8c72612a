"""Code that only tests reach is code nobody runs.

A static **reachability census** over ``src/repro``: every top-level
function and class, and every method of a reached class, must be reached
from an entry point a user's run starts at.  Tests do not count.  A
definition that fails is deleted, or listed in :data:`KEPT_AGAINST_THE_RULE`
with the reason it stays.

The census is an approximation by name, and it decides:

* **roots** — ``src/repro/bench/cli.py`` (every ``python -m repro.bench``
  subcommand), ``perf/*.py``, ``benchmarks/*.py``, ``scripts/*.py`` and
  ``examples/*.py``, plus the listed exceptions;
* **a use** — a name used as an identifier, as an attribute, or as a token
  of a dotted string (``Wrap("repro.core.memory", "Memory.get", ...)``),
  inside a root, a reached definition's body, or the top-level code of a
  module one of whose definitions is reached;
* **not a use** — import statements and ``__all__``: otherwise every
  package ``__init__`` would reach everything it re-exports;
* **decorators** — a definition decorated by a function of a reached
  module is reached: the decorator runs at import and files it in a
  registry that module reads (the scenario generators' ``@register(...)``);
* **methods** — in a reached class, a dunder method is reached with the
  class and any other method when its name is used.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Definitions kept although no entry point reaches them, with the reason.
#: A key is ``module`` (everything in it) or ``module:qualname``; each entry
#: is itself a root.
KEPT_AGAINST_THE_RULE = {
    "repro.manual": (
        "the paper's Listing 1: an independent TGAT written without the "
        "framework, the reference tests/test_manual_tgat.py compares the "
        "framework's TGAT against"
    ),
    "repro.core.op.scatter:edge_softmax": (
        "an operator of the paper's operator table, built on "
        "tensor.segment_softmax, which tests/reference.py uses as the "
        "attention reference"
    ),
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def roots(top: pathlib.Path = ROOT) -> List[pathlib.Path]:
    files = [top / "src" / "repro" / "bench" / "cli.py"]
    for d in ("perf", "benchmarks", "scripts", "examples"):
        files += sorted((top / d).glob("*.py"))
    return files


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _uses(nodes: Iterable[ast.AST]) -> Iterator[str]:
    """Every name *nodes* use, skipping imports and ``__all__``."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for dotted in _DOTTED.findall(node.value):
                yield from dotted.split(".")
        stack.extend(ast.iter_child_nodes(node))


def _decorator_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class _Def:
    module: str
    qualname: str
    node: ast.AST
    owner: Optional["_Def"] = None
    members: List["_Def"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")

    def body_uses(self) -> Iterator[str]:
        """A class's own code (and its dunders'); a function's whole node."""
        if not isinstance(self.node, ast.ClassDef):
            return _uses([self.node])
        n = self.node
        own = [s for s in n.body if not isinstance(s, _DEFS)]
        own += [m.node for m in self.members if m.dunder]
        return _uses([*n.bases, *n.keywords, *n.decorator_list, *own])


def _top_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module statements, looking inside top-level ``if`` / ``try`` blocks."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", []),
                          *[h.body for h in getattr(stmt, "handlers", [])]):
                yield from _top_level(block)
        else:
            yield stmt


def _module_name(package: pathlib.Path, path: pathlib.Path) -> str:
    parts = [package.name, *path.relative_to(package).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def census(package: pathlib.Path, root_files: Iterable[pathlib.Path],
           kept: Iterable[str] = ()) -> List[str]:
    """``module:qualname`` of every definition under *package* no root reaches."""
    defs: List[_Def] = []
    top_code: Dict[str, List[ast.AST]] = {}
    root_files = {p.resolve() for p in root_files}
    root_modules = set()
    for path in sorted(package.rglob("*.py")):
        module = _module_name(package, path)
        body = ast.parse(path.read_text(), str(path)).body
        top_code[module] = [s for s in _top_level(body) if not isinstance(s, _DEFS)]
        if path.resolve() in root_files:
            root_modules.add(module)
        for stmt in _top_level(body):
            if not isinstance(stmt, _DEFS):
                continue
            d = _Def(module, stmt.name, stmt)
            defs.append(d)
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, _DEFS):
                        m = _Def(module, f"{stmt.name}.{member.name}", member, owner=d)
                        d.members.append(m)
                        defs.append(m)

    names: Set[str] = set()
    for path in root_files:
        if path.is_relative_to(package.resolve()):
            continue
        names.update(_uses(ast.parse(path.read_text(), str(path)).body))

    kept = set(kept)
    reached: Set[_Def] = set()
    reached_modules: Set[str] = set()
    decorators: Set[str] = set()

    def is_root(d: _Def) -> bool:
        return (d.module in root_modules or d.module in kept
                or any(d.module.startswith(k + ".") for k in kept)
                or f"{d.module}:{d.qualname}" in kept)

    def reachable(d: _Def) -> bool:
        if is_root(d):
            return True
        if d.owner is not None and d.owner not in reached:
            return False
        if d.owner is not None and d.dunder:
            return True
        return d.name in names or any(
            _decorator_name(x) in decorators for x in d.node.decorator_list)

    changed = True
    while changed:
        changed = False
        for d in defs:
            if d in reached or not reachable(d):
                continue
            reached.add(d)
            changed = True
            names.update(d.body_uses())
            if d.module not in reached_modules:
                reached_modules.add(d.module)
                names.update(_uses(top_code[d.module]))
                decorators.update(t.name for t in defs
                                  if t.module == d.module and t.owner is None)
    return sorted(f"{d.module}:{d.qualname}" for d in defs if d not in reached)


def _definitions(package: pathlib.Path) -> Set[str]:
    found = set()
    for path in package.rglob("*.py"):
        module = _module_name(package, path)
        found.add(module)
        for stmt in _top_level(ast.parse(path.read_text()).body):
            if isinstance(stmt, _DEFS):
                found.add(f"{module}:{stmt.name}")
    return found


def test_every_definition_under_src_repro_is_reached_from_an_entry_point():
    unreached = census(PACKAGE, roots(), KEPT_AGAINST_THE_RULE)
    assert unreached == [], (
        f"{unreached}: no entry point (python -m repro.bench, perf/, "
        "benchmarks/, scripts/, examples/) reaches these; code only tests "
        "reach is deleted, or listed with a reason in KEPT_AGAINST_THE_RULE"
    )


def test_the_exemption_list_names_live_definitions_only():
    assert len(KEPT_AGAINST_THE_RULE) <= 5
    assert set(KEPT_AGAINST_THE_RULE) <= _definitions(PACKAGE)


# ---- the census on a synthetic package ------------------------------------------


def _tree(tmp_path, files: Dict[str, str]) -> pathlib.Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path / "pkg"


SYNTHETIC = {
    "pkg/__init__.py": (
        "from .core import used, orphan, only_exported, Thing\n"
        "__all__ = ['used', 'orphan', 'only_exported', 'Thing', 'named_in_string']\n"
    ),
    "pkg/core.py": (
        "from .other import only_imported\n"
        "def used():\n    return Thing().called()\n"
        "def orphan():\n    return 1\n"
        "def only_exported():\n    return 2\n"
        "def named_in_string():\n    return 3\n"
        "def kept_by_name():\n    return 4\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.x = 0\n"
        "    def called(self):\n        return self.x\n"
        "    def never_called(self):\n        return -1\n"
    ),
    "pkg/other.py": "def only_imported():\n    return 5\n",
    "pkg/gen.py": (
        "REGISTRY = {}\n"
        "def register(name):\n"
        "    def wrap(fn):\n        REGISTRY[name] = fn\n        return fn\n"
        "    return wrap\n"
        "@register('a')\ndef generator_a():\n    return 6\n"
        "def build(name):\n    return REGISTRY[name]()\n"
    ),
    "examples/run.py": (
        "from pkg import used\nfrom pkg.gen import build\n"
        "used()\nbuild('a')\nWRAPS = ['pkg.core.named_in_string']\n"
    ),
}


def test_census_flags_unreferenced_functions_and_uncalled_methods(tmp_path):
    package = _tree(tmp_path, SYNTHETIC)
    unreached = census(package, [tmp_path / "examples" / "run.py"],
                       kept={"pkg.core:kept_by_name"})
    assert unreached == [
        "pkg.core:Thing.never_called",
        "pkg.core:only_exported",
        "pkg.core:orphan",
        "pkg.other:only_imported",
    ]


def test_census_follows_strings_decorators_and_exceptions(tmp_path):
    package = _tree(tmp_path, SYNTHETIC)
    unreached = census(package, [tmp_path / "examples" / "run.py"],
                       kept={"pkg.core:kept_by_name"})
    for name in ("pkg.core:named_in_string", "pkg.gen:generator_a",
                 "pkg.core:kept_by_name", "pkg.core:Thing.called",
                 "pkg.core:Thing.__init__", "pkg.core:used"):
        assert name not in unreached
    assert "pkg.core:kept_by_name" in census(package, [tmp_path / "examples" / "run.py"])
