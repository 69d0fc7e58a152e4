"""The façade loads the campaign fabric only for campaigns.

``repro.api`` parses every document kind, and a simulation's document goes
through the campaign spec parser (``config_from_mapping``).  Importing that
module must not drag in the campaign executor, the SQL store, the aggregate
and the queries — and with them ``sqlite3`` and ``multiprocessing`` — which
no simulation, explore or fuzz run uses: the two package ``__init__``\\ s
resolve their re-exports on first access.  Each check runs in a fresh
interpreter, since this test process has long imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_FABRIC = (
    "sqlite3",
    "multiprocessing",
    "repro.scenarios.campaign.executor",
    "repro.scenarios.campaign.sqlstore",
    "repro.scenarios.campaign.aggregate",
    "repro.scenarios.campaign.queries",
)

_NON_CAMPAIGN_RUNS = """
import json, sys
from repro import api

program = [["send", 0, 1], ["checkpoint", 1]]
documents = {
    "simulation": {"num_processes": 3, "duration": 20.0, "seed": 1},
    "explore": {"kind": "explore", "num_processes": 2, "program": program},
    "fuzz": {"kind": "fuzz", "num_processes": 2, "budget": 5, "program": program},
}
api.run(api.load_spec(documents[sys.argv[1]]))
print(json.dumps(sorted(name for name in json.loads(sys.argv[2]) if name in sys.modules)))
"""

_CAMPAIGN_AND_QUERY = """
import json, os, sys
from repro import api

store = os.path.join(sys.argv[1], "store.sqlite")
spec = api.load_spec({"kind": "campaign", "name": "imports", "num_processes": 3,
                      "duration": 10.0, "seeds": 1})
run = api.run(spec, store=store)
summary = api.query(store)
rows = api.query(store, "collector-table")
print(json.dumps([run.executed, run.cell_count, bool(summary.to_json()), len(rows)]))
"""

_EVERY_EXPORT = """
import importlib, json
missing = []
for package in ("repro.scenarios", "repro.scenarios.campaign"):
    module = importlib.import_module(package)
    missing += [f"{package}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert set(module.__all__) <= set(dir(module))
from repro.scenarios import *  # noqa: F401,F403
from repro.scenarios.campaign import *  # noqa: F401,F403
from repro.scenarios import experiments, figures  # submodules still import by name
print(json.dumps(missing))
"""


def _fresh(script: str, *arguments: str) -> object:
    result = subprocess.run(
        [sys.executable, "-c", script, *arguments],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("kind", ["simulation", "explore", "fuzz"])
def test_a_non_campaign_run_leaves_the_campaign_fabric_unloaded(kind):
    assert _fresh(_NON_CAMPAIGN_RUNS, kind, json.dumps(_FABRIC)) == []


def test_a_campaign_and_its_queries_still_run(tmp_path):
    executed, cells, summarised, rows = _fresh(_CAMPAIGN_AND_QUERY, str(tmp_path))
    assert executed == cells > 0 and summarised and rows > 0


def test_every_exported_name_still_resolves():
    assert _fresh(_EVERY_EXPORT) == []
