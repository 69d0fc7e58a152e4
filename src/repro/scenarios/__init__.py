"""Ready-made scenarios: the paper's figures as executable objects.

The figures of the paper are small, hand-drawn checkpoint-and-communication
patterns.  This subpackage encodes them once, so that tests, examples and the
figure-reproduction benchmarks all work from the same source:

* :func:`figure1_builder` / :func:`figure1_ccp` — the example CCP of Figure 1;
* :func:`figure2_builder` / :func:`figure2_ccp` — the domino-effect pattern of
  Figure 2;
* :func:`figure3_builder` / :func:`figure3_ccp` — a 4-process scenario with the
  structure of Figure 3 (the exact message pattern is not recoverable from the
  paper's text; see the module docstring of :mod:`repro.scenarios.figures`);
* :func:`drive_figure4` and :data:`FIGURE4_ANNOTATIONS` — the fully annotated
  RDT-LGC execution of Figure 4, reproduced value for value;
* :func:`figure4_ccp` — that execution's recording as a CCP for the offline oracles.

The :mod:`repro.scenarios.campaign` subpackage runs *grids* of experiments —
the paper's evaluation study — declaratively, resumably and in parallel; the
spec builders (:func:`paper_campaign_spec`, :func:`smoke_campaign_spec`) live
in :mod:`repro.scenarios.experiments`.
"""

import importlib
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # the re-exports for type checkers; at run time __getattr__ loads them
    from repro.scenarios.campaign import (
        CampaignCell,
        CampaignRun,
        CampaignSpec,
        CampaignSummary,
        CollectorSpec,
        WorkloadSpec,
        aggregate_campaign,
        run_campaign,
    )
    from repro.scenarios.experiments import (
        paper_campaign_spec,
        random_run_config,
        run_collector_comparison,
        run_random_simulation,
        run_worst_case,
        smoke_campaign_spec,
    )
    from repro.scenarios.figures import (
        FIGURE4_ANNOTATIONS,
        FIGURE4_EXPECTED_FINAL,
        drive_figure4,
        figure1_builder,
        figure1_ccp,
        figure2_builder,
        figure2_ccp,
        figure3_builder,
        figure3_ccp,
        figure4_ccp,
    )

#: The submodule each re-exported name lives in.  A name is imported on its
#: first access (PEP 562), so importing one submodule — the campaign spec
#: parser a single simulation's document goes through, say — loads neither
#: the campaign executor and its SQL store nor the experiments behind them.
_SOURCES = {
    name: f"{__name__}.{module}"
    for module, names in {
        "campaign": (
            "CampaignCell",
            "CampaignRun",
            "CampaignSpec",
            "CampaignSummary",
            "CollectorSpec",
            "WorkloadSpec",
            "aggregate_campaign",
            "run_campaign",
        ),
        "experiments": (
            "paper_campaign_spec",
            "random_run_config",
            "run_collector_comparison",
            "run_random_simulation",
            "run_worst_case",
            "smoke_campaign_spec",
        ),
        "figures": (
            "FIGURE4_ANNOTATIONS",
            "FIGURE4_EXPECTED_FINAL",
            "drive_figure4",
            "figure1_builder",
            "figure1_ccp",
            "figure2_builder",
            "figure2_ccp",
            "figure3_builder",
            "figure3_ccp",
            "figure4_ccp",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str) -> Any:
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SOURCES[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "CampaignCell",
    "CampaignRun",
    "CampaignSpec",
    "CampaignSummary",
    "CollectorSpec",
    "FIGURE4_ANNOTATIONS",
    "FIGURE4_EXPECTED_FINAL",
    "WorkloadSpec",
    "aggregate_campaign",
    "drive_figure4",
    "figure1_builder",
    "figure1_ccp",
    "figure2_builder",
    "figure2_ccp",
    "figure3_builder",
    "figure3_ccp",
    "figure4_ccp",
    "paper_campaign_spec",
    "random_run_config",
    "run_campaign",
    "run_collector_comparison",
    "run_random_simulation",
    "run_worst_case",
    "smoke_campaign_spec",
]
