"""Aggregation of campaign results into per-group statistics tables.

Per-cell metrics (:data:`repro.simulation.runner.METRIC_NAMES`, the keys of
:meth:`~repro.simulation.runner.SimulationResult.metrics_dict`) are grouped
by declarative axes — collector, workload, failure count, … — and each
group's metric lists are folded through
:func:`repro.analysis.metrics.aggregate` into :class:`AggregateStats`.

Everything here is deterministic in the grid-expansion order of the records,
never in completion order, so the rendered text/CSV/JSON tables of a spec are
byte-identical whether the sweep ran in-process, in worker processes, or
resumed from a partially filled store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import AggregateStats, aggregate
from repro.analysis.tables import TextTable

#: Default grouping: the paper's tables are per-workload sections with one
#: row per (collector, failure level).
DEFAULT_GROUP_BY: Tuple[str, ...] = ("workload", "collector", "failures")

#: Default metric columns of the rendered tables.
DEFAULT_METRICS: Tuple[str, ...] = (
    "peak_retained",
    "final_retained",
    "max_per_process",
    "collection_ratio",
    "control",
    "forced",
    "recoveries",
)


def _axis_value(params: Mapping[str, Any], axis: str) -> Any:
    """The value of one grouping axis, compacted to a scalar for table keys."""
    value = params[axis]
    if axis == "network":
        if value.get("channel"):
            # A fault-model channel supersedes the scalar fields; the label
            # carries its non-default parameters so two severities of the
            # same model never pool into one group.
            from repro.simulation.channels import channel_label

            label = f"ch={channel_label(value['channel'])}"
        else:
            label = (
                f"lat={value['base_latency']}/jit={value['jitter']}"
                f"/drop={value['drop_probability']}"
            )
        for partition in value.get("partitions") or ():
            groups = ";".join(
                ",".join(str(pid) for pid in group) for group in partition["groups"]
            )
            label += f"/part[{partition['start']:g},{partition['end']:g})g{groups}"
        if value.get("fifo"):
            label += "/fifo"
        return label
    if isinstance(value, Mapping):
        return json.dumps(value, sort_keys=True)
    return value


@dataclass(frozen=True)
class GroupStats:
    """Aggregate statistics of one group of cells.

    ``count`` is the number of *successful* runs folded into ``stats``;
    ``failed`` counts cells of this group whose simulation raised (e.g. an
    unsafe collector breaking recovery — a finding, not an aggregation input).
    """

    key: Tuple[Any, ...]
    count: int
    stats: Dict[str, AggregateStats]
    failed: int = 0


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregated view of a campaign: one :class:`GroupStats` per group."""

    campaign: str
    group_by: Tuple[str, ...]
    metrics: Tuple[str, ...]
    groups: Tuple[GroupStats, ...]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self, *, title: Optional[str] = None) -> TextTable:
        """A display table: one row per group, ``mean ± sd`` per metric."""
        columns = (
            list(self.group_by)
            + [f"{m} (mean±sd)" for m in self.metrics]
            + ["runs", "failed"]
        )
        table = TextTable(
            columns,
            title=title if title is not None else f"Campaign: {self.campaign}",
        )
        for group in self.groups:
            cells = [
                f"{group.stats[m].mean:.2f}±{group.stats[m].stdev:.2f}"
                if m in group.stats
                else "-"
                for m in self.metrics
            ]
            table.add_row(*group.key, *cells, group.count, group.failed)
        return table

    def tables_by(self, axis: str) -> List[Tuple[Any, TextTable]]:
        """One table per distinct value of ``axis`` (which must be a group
        axis), with that axis dropped from the rows — the paper's
        per-workload presentation."""
        if axis not in self.group_by:
            raise ValueError(f"{axis!r} is not a grouping axis of this summary")
        position = self.group_by.index(axis)
        remaining = tuple(a for a in self.group_by if a != axis)
        sections: Dict[Any, List[GroupStats]] = {}
        for group in self.groups:
            sections.setdefault(group.key[position], []).append(group)
        tables: List[Tuple[Any, TextTable]] = []
        for value, groups in sections.items():
            sub = CampaignSummary(
                campaign=self.campaign,
                group_by=remaining,
                metrics=self.metrics,
                groups=tuple(
                    GroupStats(
                        key=tuple(k for i, k in enumerate(g.key) if i != position),
                        count=g.count,
                        stats=g.stats,
                        failed=g.failed,
                    )
                    for g in groups
                ),
            )
            tables.append(
                (value, sub.table(title=f"Campaign: {self.campaign} — {axis}={value}"))
            )
        return tables

    def to_csv(self) -> str:
        """Full-precision CSV: group axes, then mean/stdev/min/max per metric.

        Values are pre-rendered with ``repr`` (exact float round-trip) and the
        serialization itself goes through :meth:`TextTable.render_csv`.
        """
        header = list(self.group_by)
        for metric in self.metrics:
            header += [f"{metric}_mean", f"{metric}_stdev", f"{metric}_min", f"{metric}_max"]
        header += ["runs", "failed"]
        table = TextTable(header)
        for group in self.groups:
            row: List[Any] = [str(k) for k in group.key]
            for metric in self.metrics:
                stats = group.stats.get(metric)
                if stats is None:
                    row += ["", "", "", ""]
                else:
                    row += [
                        repr(stats.mean),
                        repr(stats.stdev),
                        repr(stats.minimum),
                        repr(stats.maximum),
                    ]
            row += [str(group.count), str(group.failed)]
            table.add_row(*row)
        return table.render_csv()

    def to_json(self) -> str:
        """Full-precision JSON document of the grouped statistics."""
        groups = []
        for group in self.groups:
            entry: Dict[str, Any] = {
                axis: key for axis, key in zip(self.group_by, group.key)
            }
            entry["runs"] = group.count
            entry["failed"] = group.failed
            entry["stats"] = {
                metric: {
                    "mean": stats.mean,
                    "stdev": stats.stdev,
                    "min": stats.minimum,
                    "max": stats.maximum,
                    "count": stats.count,
                }
                for metric, stats in group.stats.items()
            }
            groups.append(entry)
        return json.dumps(
            {
                "campaign": self.campaign,
                "group_by": list(self.group_by),
                "metrics": list(self.metrics),
                "groups": groups,
            },
            indent=2,
        )

    def write(self, directory: str, *, unnamed: str = "aggregate") -> Tuple[str, str]:
        """Write ``<campaign>.csv`` / ``<campaign>.json`` into ``directory``
        (created if missing; ``unnamed`` names a summary without a campaign)
        and return the two paths."""
        os.makedirs(directory, exist_ok=True)
        stem = os.path.join(directory, self.campaign or unnamed)
        for path, text in ((f"{stem}.csv", self.to_csv()), (f"{stem}.json", self.to_json())):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return f"{stem}.csv", f"{stem}.json"


def check_group_by(group_by: Sequence[str], params: Mapping[str, Any]) -> None:
    """Refuse grouping axes that the cells' ``params`` do not have."""
    unknown = [axis for axis in group_by if axis not in params]
    if unknown:
        raise ValueError(
            f"unknown --group-by axis {', '.join(unknown)}; "
            f"available: {', '.join(sorted(params))}"
        )


def aggregate_campaign(
    records: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Optional[Sequence[str]] = None,
) -> CampaignSummary:
    """Fold per-cell records into a :class:`CampaignSummary`.

    ``records`` are store records (``{"cell_id", "params", "metrics"}``) in
    grid-expansion order — pass ``CampaignRun.records``.  (To aggregate a
    store file, run the campaign against it: completed cells resume instead
    of re-executing, and the run re-orders them to expansion order.)
    ``group_by`` names cell parameters (:func:`check_group_by` refuses any
    other name with a ``ValueError``); ``metrics`` names cell metrics
    (default: every metric present in the first record, in
    :data:`DEFAULT_METRICS` order first).
    """
    materialised = list(records)
    if not materialised:
        raise ValueError("cannot aggregate an empty campaign")
    check_group_by(group_by, materialised[0]["params"])
    succeeded = [r for r in materialised if r.get("status", "ok") == "ok"]
    if not succeeded:
        raise ValueError("cannot aggregate a campaign in which every cell failed")
    available = list(succeeded[0]["metrics"])
    if metrics is None:
        # Default metrics first, then the rest alphabetically: the order must
        # not depend on whether records came from memory (extractor order) or
        # from a result store (row order).
        chosen = [m for m in DEFAULT_METRICS if m in available]
        chosen += sorted(m for m in available if m not in chosen)
    else:
        missing = [m for m in metrics if m not in available]
        if missing:
            raise KeyError(f"unknown campaign metrics: {', '.join(missing)}")
        chosen = list(metrics)
    campaign = str(materialised[0]["params"].get("campaign", ""))

    grouped: Dict[Tuple[Any, ...], List[Mapping[str, Any]]] = {}
    failed_by_key: Dict[Tuple[Any, ...], int] = {}
    for record in materialised:
        key = tuple(_axis_value(record["params"], axis) for axis in group_by)
        grouped.setdefault(key, [])
        failed_by_key.setdefault(key, 0)
        if record.get("status", "ok") == "ok":
            grouped[key].append(record)
        else:
            failed_by_key[key] += 1

    groups = tuple(
        GroupStats(
            key=key,
            count=len(members),
            stats={
                metric: aggregate(member["metrics"][metric] for member in members)
                for metric in chosen
            }
            if members
            else {},
            failed=failed_by_key[key],
        )
        for key, members in grouped.items()
    )
    return CampaignSummary(
        campaign=campaign,
        group_by=tuple(group_by),
        metrics=tuple(chosen),
        groups=groups,
    )
