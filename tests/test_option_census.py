"""An option nobody sets is a constant.

Two guards on the configuration surface of ``src/repro``:

* an exhaustive **option census** — one AST pass, each file parsed once.
  An *option* is a defaulted parameter of a public function, method or
  constructor under ``src/repro``, or a defaulted field of a dataclass.
  Every option must be set by a call a user's run can reach: a call in
  ``src/`` (the declaring module included), ``perf/``, ``benchmarks/``,
  ``scripts/`` or ``examples/`` that passes it by keyword or by position.
  Tests do not count.  An option that fails is a constant of the component
  that uses it, or is listed in :data:`KEPT_AGAINST_THE_RULE` with a reason.
* **pinned fault logs** — the seeded chaos runs of both serving CLIs must
  fire exactly the faults, in exactly the order, that they fired before the
  ``FaultInjector`` constructor shrank to ``rates=`` / ``schedules=``.

The census matches calls by name, and it decides:

* **a call of a callable** — ``f(...)`` or ``x.f(...)`` for a function;
  ``x.m(...)`` for a method (positions count after ``self`` / ``cls``);
  ``C(...)`` for a constructor, also through a subclass that inherits it,
  ``cls(...)`` inside a classmethod of ``C`` and ``super().__init__(...)``
  inside a subclass of ``C``;
* **``*`` / ``**``** — a call that passes them sets every parameter, unless
  it forwards the enclosing function's own ``*args`` / ``**kwargs``: then
  the callee receives whatever the calls of the enclosing function pass
  beyond its named parameters (``ServeRuntime(..., max_queue=...)`` sets
  ``ServeEngine.max_queue`` through ``super().__init__(..., **engine)``);
* **``dataclasses.replace(obj, k=...)``** sets ``k`` of every dataclass;
* **records are not options** — a dataclass with a ``default_factory``
  field, or one that is itself some field's ``default_factory``, is a
  result or state record, and none of its fields is an option.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import pathlib
import textwrap
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

import repro.resilience
from repro.bench.cli import main
from repro.resilience import FaultInjector

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Options kept although nothing outside tests sets them, with the reason.
#: A key is ``Owner.option`` (a constructor or dataclass field),
#: ``Owner.method.option`` / ``function.option``, a whole callable
#: (``Owner.method`` / ``function``) or a module (``repro.manual``).
KEPT_AGAINST_THE_RULE = {
    "FaultInjector.transient": (
        "transient=False is the only way to make a fault persist, which is "
        "what the retry-exhaustion and degrade-to-reference tests drive"
    ),
    "FaultInjector.mem_flip_tier": (
        "the mem.flip site can rot three tiers and the scrubber must catch "
        "each; the tier is part of the fault, not a tuning value"
    ),
    "StoreConfig.hot_capacity": (
        "the row-exact spelling of the ring size: it sizes a layer's memo "
        "ring before the row width is known, and 0 is the off switch"
    ),
    "TContext.time_window": (
        "the only way into the precomputed-time table's quantising path; "
        "ROADMAP item 3 decides it together with the paper's time table"
    ),
    "repro.manual": (
        "the paper's Listing 1: an independent TGAT written without the "
        "framework, the reference tests/test_manual_tgat.py compares the "
        "framework's TGAT against"
    ),
    "temporal_sample": (
        "reached only through a variable: TSampler.sample_arrays calls it "
        "as kernel(...), with the sampler's strategy, seed and pass index, "
        "which a census by call name cannot see"
    ),
}

_SETTER_DIRS = ("perf", "benchmarks", "scripts", "examples")


def setter_files(top: pathlib.Path = ROOT) -> List[pathlib.Path]:
    """Every file whose calls count: all of ``src/`` and the root dirs."""
    files = sorted((top / "src").rglob("*.py"))
    for d in _SETTER_DIRS:
        files += sorted((top / d).glob("*.py"))
    return files


# --------------------------------------------------------------- declarations


@dataclass(eq=False)
class _Callable:
    """One public function, method or constructor (or a dataclass's fields)."""

    module: str
    owner: Optional[str]  # class name, None for a module-level function
    name: str  # "__init__" for a constructor
    positional: List[str]  # parameters a position can reach, after self / cls
    options: List[str]  # the defaulted ones

    @property
    def qualname(self) -> str:
        if self.owner is None:
            return self.name
        return self.owner if self.name == "__init__" else f"{self.owner}.{self.name}"

    @property
    def surface(self) -> str:
        return self.owner or self.name


def _decorator_names(node) -> Set[str]:
    out = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        out.add(d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
    return out


def _signature(module, owner, fn) -> _Callable:
    args = fn.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]]
    bound = owner is not None and "staticmethod" not in _decorator_names(fn)
    if bound:
        positional = positional[1:]
    with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
    options = with_default + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return _Callable(module, owner, fn.name, positional, options)


def _factory(value) -> Optional[ast.expr]:
    """The ``default_factory`` of a ``field(...)`` default, if any."""
    if isinstance(value, ast.Call):
        for kw in value.keywords:
            if kw.arg == "default_factory":
                return kw.value
    return None


def _dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, Optional[ast.expr]]]:
    out = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        if isinstance(stmt.value, ast.Call) and any(
                kw.arg == "init" for kw in stmt.value.keywords):
            continue
        out.append((stmt.target.id, stmt.value))
    return out


def _module_name(package: pathlib.Path, path: pathlib.Path) -> str:
    parts = [package.name, *path.relative_to(package).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@dataclass
class _Declarations:
    callables: List[_Callable] = field(default_factory=list)
    bases: Dict[str, List[str]] = field(default_factory=dict)
    dataclasses: Set[str] = field(default_factory=set)


def declarations(package: pathlib.Path, trees: Dict[pathlib.Path, ast.Module]) -> _Declarations:
    out = _Declarations()
    records: Set[str] = set()
    factories: Set[str] = set()
    fields_of: Dict[str, List[Tuple[str, Optional[ast.expr]]]] = {}
    modules: Dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        module = _module_name(package, path)
        for stmt in trees[path].body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    out.callables.append(_signature(module, None, stmt))
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            out.bases[stmt.name] = [ast.unparse(b).split(".")[-1] for b in stmt.bases]
            if "dataclass" in _decorator_names(stmt):
                out.dataclasses.add(stmt.name)
                fields_of[stmt.name] = _dataclass_fields(stmt)
                modules[stmt.name] = module
                for _, value in fields_of[stmt.name]:
                    made = _factory(value)
                    if made is not None:
                        records.add(stmt.name)
                        if isinstance(made, ast.Name):
                            factories.add(made.id)
            for member in stmt.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (member.name == "__init__" or not member.name.startswith("_"))
                        and "property" not in _decorator_names(member)
                        and not _decorator_names(member) & {"setter", "deleter"}):
                    out.callables.append(_signature(module, stmt.name, member))
    for name, fields in fields_of.items():
        inherited = []
        for base in out.bases[name]:
            inherited += [f for f, _ in fields_of.get(base, [])]
        names = inherited + [f for f, _ in fields]
        options = [] if name in records | factories else [
            f for f, value in fields if value is not None]
        out.callables.append(_Callable(modules[name], name, "__init__", names, options))
    return out


# -------------------------------------------------------------------- setters


@dataclass
class _Passed:
    """What the calls of one callee pass."""

    positions: int = 0  # the most positional arguments any call passes
    keywords: Set[str] = field(default_factory=set)
    everything: bool = False

    def state(self):
        return self.positions, len(self.keywords), self.everything


_REPLACE = ("replace", "")
#: names a module calls without defining or importing them may be builtins
_BUILTINS = frozenset(dir(builtins))


def _calls(tree: ast.Module) -> List[Tuple[ast.Call, Optional[str], List[ast.AST]]]:
    """Every call with its enclosing class name and enclosing functions."""
    out: List = []

    def visit(node, cls, fns):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, [])
                continue
            if isinstance(child, ast.Call):
                out.append((child, cls, fns))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, cls, [*fns, child])
            else:
                visit(child, cls, fns)

    visit(tree, None, [])
    return out


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name *tree* defines, imports or assigns, at any depth — but a
    method, which a bare-name call cannot reach."""
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if id(node) not in methods:
                out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def _callee(call: ast.Call, cls: Optional[str], fns: List[ast.AST],
            bound: Set[str]) -> Optional[Tuple[str, str]]:
    """``("class", C)`` for ``cls(...)`` in a classmethod of ``C``,
    ``("super", C)`` for ``super().__init__(...)`` in ``C``, None for a
    builtin (``max(a, b)``) the module does not rebind, else ``("name",
    callee name)``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _BUILTINS and func.id not in bound:
        return None
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return ("super", cls) if cls else None
    if isinstance(func, ast.Name):
        fn = fns[-1] if fns else None
        if (func.id == "cls" and cls and isinstance(fn, ast.FunctionDef)
                and "classmethod" in _decorator_names(fn)):
            return ("class", cls)
        return ("name", func.id)
    if isinstance(func, ast.Attribute):
        return ("name", func.attr)
    return None


def _forwarder(star: ast.expr, fns: List[ast.AST], attr: str) -> Optional[ast.AST]:
    """The enclosing function whose own ``*args`` / ``**kwargs`` *star* is."""
    if not isinstance(star, ast.Name):
        return None
    for fn in reversed(fns):
        own = getattr(fn.args, attr)
        if own is not None and own.arg == star.id:
            return fn
    return None


@dataclass
class _Census:
    decls: _Declarations
    passed: Dict[Tuple[str, str], _Passed]

    def _ctor_owner(self, name: str) -> Optional[str]:
        """The class whose ``__init__`` a call of class *name* runs."""
        seen = set()
        while name in self.decls.bases and name not in seen:
            seen.add(name)
            if any(c.owner == name and c.name == "__init__" for c in self.decls.callables):
                return name
            bases = [b for b in self.decls.bases[name] if b in self.decls.bases]
            if not bases:
                return None
            name = bases[0]
        return None

    def keys_of(self, c: _Callable) -> List[Tuple[str, str]]:
        """The callee keys whose calls reach *c*."""
        if c.name != "__init__":
            return [("name", c.name)]
        keys = [("class", c.owner), ("name", c.owner)]
        for sub, bases in self.decls.bases.items():
            if sub != c.owner and self._ctor_owner(sub) == c.owner:
                keys += [("class", sub), ("name", sub)]
            if c.owner in bases:
                keys.append(("super", sub))
        return keys

    def set_options(self, c: _Callable) -> Set[str]:
        out: Set[str] = set()
        for key in self.keys_of(c):
            p = self.passed.get(key)
            if p is None:
                continue
            if p.everything:
                return set(c.options)
            out |= set(c.positional[:p.positions]) | p.keywords
        if c.name == "__init__" and c.owner in self.decls.dataclasses:
            out |= self.passed.get(_REPLACE, _Passed()).keywords
        return out & set(c.options)


def _scan(trees: Iterable[ast.Module], decls: _Declarations) -> _Census:
    passed: Dict[Tuple[str, str], _Passed] = defaultdict(_Passed)
    forwards = []  # (callee key, forwarder's signature, its parameter names, "vararg" | "kwarg")
    for tree in trees:
        bound = _bound_names(tree)
        for call, cls, fns in _calls(tree):
            key = _callee(call, cls, fns, bound)
            if key is None:
                continue
            keywords = {kw.arg for kw in call.keywords if kw.arg}
            if key == ("name", "replace"):
                passed[_REPLACE].keywords |= keywords
            p = passed[key]
            p.positions = max(p.positions, sum(
                not isinstance(a, ast.Starred) for a in call.args))
            p.keywords |= keywords
            stars = [(a.value, "vararg") for a in call.args if isinstance(a, ast.Starred)]
            stars += [(kw.value, "kwarg") for kw in call.keywords if kw.arg is None]
            for star, attr in stars:
                fn = _forwarder(star, fns, attr)
                if fn is None or isinstance(fn, ast.Lambda):
                    p.everything = True
                else:
                    owner = cls if fn is fns[0] else None
                    named = {a.arg for a in [*fn.args.posonlyargs, *fn.args.args,
                                             *fn.args.kwonlyargs]}
                    forwards.append((key, _signature("", owner, fn), named, attr))
    census = _Census(decls, passed)
    # a forwarded *args / **kwargs passes what the forwarder's own calls pass
    # beyond its named parameters; repeat until nothing new flows
    changed = True
    while changed:
        changed = False
        for key, sig, named, attr in forwards:
            p = passed[key]
            before = p.state()
            for source in census.keys_of(sig):
                got = passed.get(source)
                if got is None:
                    continue
                p.everything |= got.everything
                if attr == "kwarg":
                    p.keywords |= got.keywords - named
                else:
                    p.positions = max(p.positions, got.positions - len(sig.positional))
            changed |= p.state() != before
    return census


def _kept(name: str, module: str, kept: Iterable[str]) -> bool:
    """Whether a ``kept`` key covers option *name* of *module*."""
    return any(name == k or name.startswith(k + ".") or module == k
               or module.startswith(k + ".") for k in kept)


@dataclass
class CensusResult:
    #: ``(module, surface, option id)`` of every option in scope
    options: List[Tuple[str, str, str]] = field(default_factory=list)
    #: ids of the options no call sets
    unset: Set[str] = field(default_factory=set)

    def failing(self, kept: Iterable[str]) -> List[Tuple[str, str, str]]:
        """The unset options no *kept* key covers."""
        return [(m, s, n) for m, s, n in self.options
                if n in self.unset and not _kept(n, m, kept)]


def census(top: pathlib.Path) -> CensusResult:
    """Parse *top*'s ``src/repro`` and setter files once; report every option."""
    files = setter_files(top)
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    decls = declarations(top / "src" / "repro", trees)
    setters = _scan(trees.values(), decls)
    result = CensusResult()
    for c in decls.callables:
        got = setters.set_options(c)
        for option in c.options:
            name = f"{c.qualname}.{option}"
            result.options.append((c.module, c.surface, name))
            if option not in got:
                result.unset.add(name)
    return result


@lru_cache(maxsize=None)
def _repo_census() -> CensusResult:
    return census(ROOT)


def _surfaces() -> Dict[str, Tuple[str, str]]:
    """Test id -> ``(module, surface)``; a name two modules declare is qualified."""
    pairs = sorted({(m, s) for m, s, _ in _repo_census().options})
    clashes = {s for _, s in pairs if sum(s == t for _, t in pairs) > 1}
    return {f"{m}:{s}" if s in clashes else s: (m, s) for m, s in pairs}


SURFACES = _surfaces()


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_every_option_has_a_setter_outside_tests(surface):
    unset = [name for m, s, name in _repo_census().failing(KEPT_AGAINST_THE_RULE)
             if (m, s) == SURFACES[surface]]
    assert unset == [], (
        f"{unset}: no call under src/, perf/, benchmarks/, scripts/ or "
        "examples/ passes these; an option nobody sets is a constant of the "
        "component that uses it"
    )


def test_the_exemption_list_names_live_options_only():
    """Each entry still covers an option nobody sets, or it has no reason left."""
    result = _repo_census()
    for key in KEPT_AGAINST_THE_RULE:
        assert any(_kept(n, m, [key]) for m, _, n in result.options if n in result.unset), key


def _write(top: pathlib.Path, rel: str, text: str) -> None:
    path = top / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_the_census_flags_exactly_the_one_unset_option(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/lib.py", """
        import dataclasses

        class Base:
            def __init__(self, width=4, depth=2):
                self.width, self.depth = width, depth

            @classmethod
            def wide(cls):
                return cls(width=8)

        class Child(Base):
            def __init__(self, *, leak=0.1):
                super().__init__(depth=3)
                self.leak = leak

        class Engine:
            def __init__(self, queue=8, burst=2):
                pass

        class Runtime(Engine):
            def __init__(self, **engine):
                super().__init__(**engine)

        @dataclasses.dataclass
        class Config:
            shards: int = 1
            factor: int = 1

        @dataclasses.dataclass
        class Result:
            rows: list = dataclasses.field(default_factory=list)
            ok: bool = True

        def scale(x, factor=2.0, offset=0.0):
            return x * factor + offset

        def forward(*args):
            return scale(*args)
    """)
    _write(tmp_path, "tests/test_lib.py", """
        from repro.lib import Engine
        Engine(burst=1)
    """)
    _write(tmp_path, "examples/use.py", """
        import dataclasses
        from repro.lib import Base, Child, Config, Runtime, forward
        Base.wide()
        Child(leak=0.2)
        Runtime(queue=4)
        dataclasses.replace(Config(2), factor=3)
        forward(1.0, 3.0, 1.0)
    """)
    result = census(tmp_path)
    # set: a position (Config(2); scale's two through *args), cls(...),
    # super().__init__, Runtime's queue= through **engine, replace(...);
    # Result is a record; a test's call sets nothing
    assert result.unset == {"Engine.burst"}
    assert result.failing(["Engine"]) == result.failing(["repro.lib"]) == []
    assert [n for *_, n in result.failing(["Engine.queue"])] == ["Engine.burst"]


def test_a_star_that_forwards_nothing_sets_everything(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/lib.py", """
        def scale(x, factor=2.0, offset=0.0):
            return x * factor + offset

        def tilt(x, angle=0.0):
            return x + angle
    """)
    _write(tmp_path, "scripts/use.py", """
        from repro.lib import scale, tilt
        HYPER = {"factor": 1.0}
        scale(1.0, **HYPER)
        tilt(1.0)
    """)
    assert census(tmp_path).unset == {"tilt.angle"}


def test_a_builtin_call_sets_nothing(tmp_path):
    """``max(a, b)`` is the builtin unless the module binds ``max`` itself;
    a method named ``max`` does not, since a bare name cannot reach it."""
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/lib.py", """
        class Tensor:
            def max(self, dim=None, keepdim=False):
                return max(self.dim, 0, 1)

            def min(self, dim=None, keepdim=False):
                return self

            def sum(self, dim=None, keepdim=False):
                return self
    """)
    _write(tmp_path, "examples/use.py", """
        from repro.lib import Tensor
        max(1, 2)
        Tensor().max(0)
    """)
    _write(tmp_path, "scripts/own.py", """
        def min(a, b, c=0):
            return a

        min(1, 2)
        sum = lambda *xs: 0
        sum(1, 2)
    """)
    # the builtin max sets nothing (Tensor.max's own call included); the
    # script's own min and its rebound sum are counted, by position
    assert census(tmp_path).unset == {"Tensor.max.keepdim"}


@pytest.mark.parametrize("argv, digest", [
    (["serve", "--events", "4000", "--load", "4", "--chaos"],
     "272a8f34cc470771473c27d549462b09c5eb1ec699743d99f65d3a9366b15261"),
    (["serve-cluster", "--replication-factor", "3", "--events", "4000",
      "--load", "16", "--kill-shard", "1", "--chaos"],
     "f3a761da198a1b24c492edfb352fca0742a0bdecd625c74e0ee78450db70ea06"),
], ids=["serve", "serve-cluster"])
def test_seeded_chaos_fires_the_pinned_fault_log(argv, digest, monkeypatch, capsys):
    """Digests recorded at the commit before the constructor change.

    The serve-cluster digest was re-recorded when a request's reads became
    one gather wave: fewer read RPCs draw fewer ``rpc.*`` decisions, and
    a stall charges one wave, so the faults that fire moved with them."""
    made = []

    class Recording(FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(repro.resilience, "FaultInjector", Recording)
    assert main(argv) == 0
    capsys.readouterr()
    (injector,) = made
    log = [(e.site, e.epoch, e.batch, e.detail) for e in injector.log]
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
