"""Every component name resolves from one table fixed at import.

The conformance canaries (``canary-unsafe``, ``canary-hoarder``) are named
like any other collector: a fresh interpreter accepts them in every run
document and replays their artifacts with no set-up call, while the default
grids, built from :func:`~repro.gc.registry.available_collectors`, never
sweep them.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.explore import ExploreConfig, replay_counterexample, ring_program
from repro.fuzz import Corpus, fuzz, replay_corpus_entry
from repro.gc.base import GarbageCollector
from repro.gc.canaries import CANARY_NAMES
from repro.gc.registry import _COLLECTORS, available_collectors
from repro.protocols.base import CheckpointingProtocol
from repro.protocols.registry import _PROTOCOLS
from repro.scenarios.experiments import explore_sweep_configs
from repro.simulation.channels import _CHANNELS, ChannelModel
from repro.simulation.workloads import _WORKLOADS, Workload

#: Each name table with the attribute its keys come from and the base its
#: entries derive from.
_TABLES = (
    (_COLLECTORS, "name", GarbageCollector),
    (_PROTOCOLS, "name", CheckpointingProtocol),
    (_WORKLOADS, "name", Workload),
    (_CHANNELS, "kind", ChannelModel),
)

_TABLE_MODULES = (
    "repro.gc.registry",
    "repro.protocols.registry",
    "repro.simulation.workloads",
    "repro.simulation.channels",
)


@pytest.mark.parametrize(
    "key, cls, attribute, base",
    [
        pytest.param(key, cls, attribute, base, id=f"{base.__name__}:{key}")
        for table, attribute, base in _TABLES
        for key, cls in table.items()
    ],
)
def test_every_entry_is_keyed_by_the_name_its_class_declares(key, cls, attribute, base):
    """A class that inherited its parent's name would silently replace the
    parent's entry in the literal, so every entry declares its own."""
    assert issubclass(cls, base)
    assert attribute in vars(cls)
    assert getattr(cls, attribute) == key


@pytest.mark.parametrize("module", _TABLE_MODULES)
def test_no_table_offers_a_registration_entry_point(module):
    names = vars(importlib.import_module(module))
    assert not [name for name in names if name.startswith(("register_", "unregister_"))]


def test_only_the_canaries_carry_the_canary_marker():
    marked = {name for name, cls in _COLLECTORS.items() if cls.canary}
    assert marked == set(CANARY_NAMES)

_FRESH_INTERPRETER = """
import json, sys
from repro import api
from repro.explore.program import ExploreConfig
from repro.fuzz.fuzzer import FuzzSpec
from repro.simulation import SimulationConfig

name = sys.argv[1]
explore = api.load_spec({"kind": "explore", "num_processes": 2,
                         "program": [["send", 0, 1], ["checkpoint", 1]],
                         "collector": name})
simulation = api.load_spec({"num_processes": 2, "duration": 5.0, "collector": name})
inline_fuzz = api.load_spec({"kind": "fuzz", "num_processes": 2, "budget": 5,
                             "program": [["send", 0, 1], ["checkpoint", 1]],
                             "collector": name})
assert isinstance(explore, ExploreConfig) and explore.collector == name
assert isinstance(simulation, SimulationConfig) and simulation.collector == name
assert isinstance(inline_fuzz, FuzzSpec) and inline_fuzz.target.config.collector == name
print(json.dumps([explore.collector, simulation.collector,
                  inline_fuzz.target.config.collector]))
"""


@pytest.mark.parametrize("name", CANARY_NAMES)
def test_a_fresh_interpreter_loads_canary_documents(name):
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, name],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [name] * 3


def test_canary_artifacts_replay_byte_for_byte(tmp_path):
    """A canary run's counterexample (``explore replay``) and its clean corpus
    entries (``fuzz replay``) re-execute with no set-up call."""
    root = str(tmp_path / "corpus")
    result = fuzz("canary-unsafe", budget=200, seed=1, corpus=root, stop_after_findings=1)
    (finding,) = result.findings
    replay = replay_counterexample(finding.artifact)
    assert replay.byte_identical
    assert replay.replayed_violation.kind == "safety"
    entries = Corpus.load(root).ordered()
    assert entries
    for entry in entries:
        path = os.path.join(root, "entries", f"{entry.entry_id}.trace.jsonl")
        assert replay_corpus_entry(path).byte_identical


def test_canaries_resolve_but_no_default_grid_sweeps_them():
    for name in CANARY_NAMES:
        config = ExploreConfig(num_processes=2, program=ring_program(2, 2), collector=name)
        assert config.collector == name
    assert not set(CANARY_NAMES) & set(available_collectors())
    swept = {config.collector for config in explore_sweep_configs(messages=2)}
    assert swept == set(available_collectors())
