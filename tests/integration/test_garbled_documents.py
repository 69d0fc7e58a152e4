"""Garbled run documents: ``api.load_spec`` returns a typed configuration or
raises ``SpecValidationError`` naming a key path of the document — never
anything else.

A valid document of each kind is mutated once — a key dropped, a value
retyped, an unknown key added, a list entry truncated — and a document's JSON
text is cut short.  Whatever the mutation, the refusal is the door's one
error, and its ``field`` leads back into the document.
"""

import copy
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.explore.program import ExploreConfig
from repro.fuzz.fuzzer import FuzzSpec
from repro.scenarios.campaign.spec import CampaignSpec
from repro.simulation import SimulationConfig

_RUN = {
    "num_processes": 4,
    "duration": 20.0,
    "workload": {"name": "ring", "params": {"period": 2.0}},
    "protocol": "fdas",
    "collector": "rdt-lgc",
    "collector_options": {},
    "network": {"base_latency": 1.0, "jitter": 0.5, "drop_probability": 0.0},
    "failures": [[5.0, 1]],
    "seed": 3,
    "sample_interval": 2.0,
    "audit": "safety",
    "trace": "unused.trace.jsonl",
}
_PROGRAM = [["send", 0, 1], {"op": "checkpoint", "pid": 1}, ["crash", 0]]

VALID_DOCUMENTS = [
    {
        "kind": "simulation",
        **_RUN,
        "membership": {"joins": [[2.0, 3]], "leaves": [[12.0, 2]]},
        "backend": "sim",
    },
    {"kind": "live", **_RUN},
    {
        "kind": "campaign",
        "name": "garbled",
        "num_processes": 3,
        "duration": 10.0,
        "protocols": ["fdas"],
        "collectors": ["rdt-lgc", {"name": "wang-coordinated", "options": {"period": 5.0}}],
        "workloads": ["uniform-random", {"name": "ring", "params": {"period": 2.0}}],
        "failure_counts": [0, {"model": "churn", "hazard_rate": 0.05}],
        "networks": [{}, {"fifo": True}],
        "seeds": [0, 1],
        "base_seed": 1,
        "audit": "off",
        "backends": ["sim"],
        "memberships": ["static", {"joins": [[2.0, 2]]}],
    },
    {
        "kind": "explore",
        "num_processes": 2,
        "program": _PROGRAM,
        "protocol": "fdas",
        "collector": "rdt-lgc",
        "collector_options": {},
        "seed": 0,
        "step_gap": 1.0,
    },
    {
        "kind": "fuzz",
        "target": "ring",
        "budget": 10,
        "seed": 1,
        "corpus": "corpus-dir",
        "guided": True,
        "minimize": False,
    },
    {"kind": "fuzz", "program": _PROGRAM, "collector": "rdt-lgc", "budget": 5},
]

#: Values of every JSON type (and a few the parsers must not coerce).
RETYPED = [None, True, False, -1, 0, 2.5, "x", "no", [], [1], {}, {"x": 1}]

TYPED = (CampaignSpec, SimulationConfig, ExploreConfig, FuzzSpec)


def _paths(node, prefix=()):
    """Every path to a value inside ``node`` (the root excluded)."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def garbled(draw):
    """A valid document of some kind after one mutation."""
    original = draw(st.sampled_from(VALID_DOCUMENTS))
    document = copy.deepcopy(original)
    paths = list(_paths(document))
    lists = [p for p in paths if isinstance(_at(document, p), list) and _at(document, p)]
    mutation = draw(st.sampled_from(["drop", "retype", "add"] + ["truncate"] * bool(lists)))
    if mutation == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(document, p[:-1]), dict)]))
        del _at(document, path[:-1])[path[-1]]
    elif mutation == "retype":
        path = draw(st.sampled_from(paths))
        _at(document, path[:-1])[path[-1]] = draw(st.sampled_from(RETYPED))
    elif mutation == "add":
        mappings = [()] + [p for p in paths if isinstance(_at(document, p), dict)]
        _at(document, draw(st.sampled_from(mappings)))["zzz"] = 1
    else:
        _at(document, draw(st.sampled_from(lists))).pop()
    return original, document


#: Keys a document of some kind cannot do without (a campaign's ``name``, an
#: explore spec's ``program``, a fuzz spec's ``target`` or inline program).
REQUIRED = ("name", "program", "target")


def assert_names_a_key_path(field, document, original):
    """``field`` (``collectors[1].name``) leads into ``document`` — or names a
    key the valid ``original`` had and the mutation dropped, or a required
    key the document lacks."""
    if field in ("source", "kind") or field in REQUIRED:
        return
    parts = re.findall(r"\[\d+\]|[^.\[\]]+", field)
    rebuilt = "".join(p if p.startswith("[") or i == 0 else "." + p for i, p in enumerate(parts))
    assert rebuilt == field, field
    head = parts[0]
    assert head in document or head in original, field
    node = document.get(head, original.get(head))
    for part in parts[1:]:
        if part.startswith("["):
            assert isinstance(node, list) and int(part[1:-1]) < len(node), field
            node = node[int(part[1:-1])]
        else:
            node = node.get(part) if isinstance(node, dict) else None


@settings(max_examples=150, deadline=None)
@given(garbled())
def test_a_garbled_document_is_a_config_or_a_named_refusal(case):
    original, document = case
    try:
        loaded = api.load_spec(copy.deepcopy(document))
    except api.SpecValidationError as refusal:
        assert_names_a_key_path(refusal.field, document, original)
        assert str(refusal).startswith(f"{refusal.field}: ")
    else:
        assert isinstance(loaded, TYPED)


@settings(max_examples=25, deadline=None)
@given(document=st.sampled_from(VALID_DOCUMENTS), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_a_truncated_json_file_is_refused_as_the_source(document, cut, tmp_path_factory):
    text = json.dumps(document)
    path = tmp_path_factory.mktemp("garbled") / "spec.json"
    path.write_text(text[: int(cut * len(text))], encoding="utf-8")
    try:
        api.load_spec(str(path))
    except api.SpecValidationError as refusal:
        assert refusal.field == "source"
    else:
        raise AssertionError("a truncated document loaded")


def test_every_valid_document_loads():
    for document in VALID_DOCUMENTS:
        assert isinstance(api.load_spec(copy.deepcopy(document)), TYPED)
