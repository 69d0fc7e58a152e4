"""The interpreter belongs to the host program: the library never tunes its collector.

A long history costs the cyclic garbage collector nothing because the event
log stores records the collector untracks (``tests/causality/
test_untracked_history.py``), not because the library switches the collector
off or retunes it.  ``gc.freeze``, ``gc.disable`` and ``gc.set_threshold``
change the whole process, so no module under ``src/repro`` calls them — by
attribute (``gc.disable()``) or by a name imported from ``gc``.  Nor does it
call ``gc.collect``: a finished run's history is freed by reference counting
because no cycle holds it (``tests/simulation/test_run_release.py``), not
because the library pays for a full pass of the host's collector.
"""

import ast
import pathlib

import repro

FORBIDDEN = {"freeze", "disable", "set_threshold", "collect"}


def _gc_tuning_calls(source: str):
    """``(line, name)`` of every call to a forbidden ``gc`` function in ``source``."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gc"
        for alias in node.names
        if alias.name in FORBIDDEN
    }
    gc_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "gc"
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr in FORBIDDEN
            and isinstance(callee.value, ast.Name)
            and callee.value.id in gc_names
        ) or (isinstance(callee, ast.Name) and callee.id in imported):
            calls.append((node.lineno, ast.unparse(callee)))
    return calls


def test_no_module_of_the_library_tunes_the_collector():
    root = pathlib.Path(repro.__file__).parent
    found = {
        path.relative_to(root).as_posix(): calls
        for path in sorted(root.rglob("*.py"))
        if (calls := _gc_tuning_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_scan_sees_each_spelling():
    source = (
        "import gc\nimport gc as collector\nfrom gc import freeze as f, set_threshold\n"
        "gc.disable()\ncollector.freeze()\nf()\nset_threshold(1)\ngc.collect()\n"
    )
    assert _gc_tuning_calls(source) == [
        (4, "gc.disable"),
        (5, "collector.freeze"),
        (6, "f"),
        (7, "set_threshold"),
        (8, "gc.collect"),
    ]
