"""An option nobody sets is a constant.

Two guards on the configuration surfaces of the growth layers:

* an **option census** — every field of ``ClusterConfig`` / ``StoreConfig``
  and every optional constructor parameter of ``FaultInjector``,
  ``ResilientTrainer``, ``DegradationLadder`` and the serving stack's
  classes (RPC channel, supervisor, scrubber, replicas, WAL, ingest,
  admission, commit, digest, and the engine with its two backends) must be
  passed, by keyword, to a call of its class somewhere a user's run can
  reach: under ``src/`` outside the module that declares it, or in
  ``perf/``, ``scripts/`` or ``benchmarks/``.  Tests and examples do not
  count.  An option that fails is a constant: move it to the component
  that uses it.
* **pinned fault logs** — the seeded chaos runs of both serving CLIs must
  fire exactly the faults, in exactly the order, that they fired before the
  ``FaultInjector`` constructor shrank to ``rates=`` / ``schedules=``.
"""

import ast
import dataclasses
import hashlib
import inspect
import pathlib

import pytest

import repro.resilience
from repro.bench import ResilientTrainer
from repro.bench.cli import main
from repro.cluster import (
    ClusterConfig,
    ReplicaGroup,
    ServeCluster,
    ShardReplica,
    SimRpc,
    Supervisor,
)
from repro.durable import DurableStateStore, WALCursor, WriteAheadLog
from repro.integrity import ChunkedDigest, Scrubber
from repro.resilience import FaultInjector
from repro.serve import (
    AdmissionController,
    DegradationLadder,
    IngestPipeline,
    ServeEngine,
    ServeRuntime,
    StateCommitter,
)
from repro.store import StoreConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Options kept although nothing outside tests sets them, with the reason.
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
}


def _options(cls):
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [p.name for p in params if p.default is not p.empty]


SURFACES = [
    ClusterConfig, StoreConfig, FaultInjector, ResilientTrainer, DegradationLadder,
    SimRpc, Supervisor, Scrubber, ReplicaGroup, ShardReplica, DurableStateStore,
    WriteAheadLog, WALCursor, IngestPipeline, AdmissionController, StateCommitter,
    ChunkedDigest, ServeRuntime, ServeCluster, ServeEngine,
]

def _callee(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _keywords_passed_to(names, declaring_module):
    """Every ``keyword=`` of a call to one of *names* in the files a run can reach."""
    declaring = pathlib.Path(inspect.getsourcefile(declaring_module)).resolve()
    found = set()
    for top in ("src", "perf", "scripts", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == declaring:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _callee(node) in names:
                    found.update(kw.arg for kw in node.keywords if kw.arg)
    return found


@pytest.mark.parametrize("cls", SURFACES, ids=lambda cls: cls.__name__)
def test_every_option_has_a_setter_outside_tests(cls):
    names = {cls.__name__}
    if cls is ServeEngine:
        # the engine's knobs reach it as the backends' ``**engine``
        names |= {ServeRuntime.__name__, ServeCluster.__name__}
    set_somewhere = _keywords_passed_to(names, inspect.getmodule(cls))
    unset = [
        f"{cls.__name__}.{name}" for name in _options(cls)
        if name not in set_somewhere
        and f"{cls.__name__}.{name}" not in KEPT_AGAINST_THE_RULE
    ]
    assert unset == [], (
        f"{unset}: no call under src/ (outside the declaring module), perf/, "
        "scripts/ or benchmarks/ passes these; an option nobody sets is a "
        "constant of the component that uses it"
    )


def test_the_exemption_list_names_live_options_only():
    live = {f"{cls.__name__}.{name}" for cls in SURFACES for name in _options(cls)}
    assert set(KEPT_AGAINST_THE_RULE) <= live


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
