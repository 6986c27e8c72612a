"""An option nobody sets is a constant.

Two guards on the configuration surfaces of the growth layers:

* an **option census** — every field of ``ClusterConfig`` / ``StoreConfig``
  and every optional constructor parameter of ``FaultInjector``,
  ``ResilientTrainer`` and ``DegradationLadder`` must be set, by keyword,
  somewhere a user's run can reach: under ``src/`` outside the module that
  declares it, or in ``perf/``, ``scripts/`` or ``benchmarks/``.  Tests and
  examples do not count.  An option that fails is a constant: move it to
  the component that uses it.
* **pinned fault logs** — the seeded chaos runs of both serving CLIs must
  fire exactly the faults, in exactly the order, that they fired before the
  ``FaultInjector`` constructor shrank to ``rates=`` / ``schedules=``.
"""

import dataclasses
import hashlib
import inspect
import pathlib
import re

import pytest

import repro.resilience
from repro.bench import ResilientTrainer
from repro.bench.cli import main
from repro.cluster import ClusterConfig
from repro.resilience import FaultInjector
from repro.serve import DegradationLadder
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
        "the row-exact spelling of the hot-tier size: it sizes a space "
        "before its row width is known, and 0 is the off switch"
    ),
}


def _options(cls):
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [p.name for p in params if p.default is not p.empty]


def _keywords_used_beside(name, declaring_module):
    """Every ``keyword=`` in the files a run can reach that mention *name*."""
    declaring = pathlib.Path(inspect.getsourcefile(declaring_module)).resolve()
    found = set()
    for top in ("src", "perf", "scripts", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            if path.resolve() != declaring and re.search(rf"\b{name}\b", text):
                found.update(re.findall(r"\b(\w+)\s*=(?!=)", text))
    return found


@pytest.mark.parametrize("cls", [
    ClusterConfig, StoreConfig, FaultInjector, ResilientTrainer, DegradationLadder,
], ids=lambda cls: cls.__name__)
def test_every_option_has_a_setter_outside_tests(cls):
    set_somewhere = _keywords_used_beside(cls.__name__, inspect.getmodule(cls))
    unset = [
        f"{cls.__name__}.{name}" for name in _options(cls)
        if name not in set_somewhere
        and f"{cls.__name__}.{name}" not in KEPT_AGAINST_THE_RULE
    ]
    assert unset == [], (
        f"{unset}: nothing under src/ (outside the declaring module), perf/, "
        "scripts/ or benchmarks/ sets these; an option nobody sets is a "
        "constant of the component that uses it"
    )


def test_the_exemption_list_names_live_options_only():
    live = {
        f"{cls.__name__}.{name}"
        for cls in (ClusterConfig, StoreConfig, FaultInjector,
                    ResilientTrainer, DegradationLadder)
        for name in _options(cls)
    }
    assert set(KEPT_AGAINST_THE_RULE) <= live


@pytest.mark.parametrize("argv, digest", [
    (["serve", "--events", "4000", "--load", "4", "--chaos"],
     "272a8f34cc470771473c27d549462b09c5eb1ec699743d99f65d3a9366b15261"),
    (["serve-cluster", "--replication-factor", "3", "--events", "4000",
      "--load", "16", "--kill-shard", "1", "--chaos"],
     "f1b2f9eda302fec8217a249a24f5d581f38ed90642406eb43ef8230ad7feaad2"),
], ids=["serve", "serve-cluster"])
def test_seeded_chaos_fires_the_pinned_fault_log(argv, digest, monkeypatch, capsys):
    """Digests recorded at the commit before the constructor change."""
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
