"""The garbage collectors, keyed by name: a table fixed at import.

Benchmarks and examples sweep over collectors by name; collector-specific
options (coordination period, time window) are passed as keyword arguments.
Every name a document, a configuration or a trace may carry resolves here,
the conformance canaries of :mod:`repro.gc.canaries` included; nothing is
registered at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Type

from repro.gc.all_process_line import AllProcessLineCollector
from repro.gc.base import GarbageCollector
from repro.gc.canaries import HoarderCanaryCollector, UnsafeCanaryCollector
from repro.gc.manivannan_singhal import ManivannanSinghalCollector
from repro.gc.none_gc import NoGarbageCollector
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.gc.wang_coordinated import WangCoordinatedCollector
from repro.storage.stable import StableStorage
from repro.validation import Options, SpecValidationError, freeze_options, naming, registry_entry

_COLLECTORS: Dict[str, Type[GarbageCollector]] = {
    cls.name: cls
    for cls in (
        NoGarbageCollector,
        RdtLgcCollector,
        AllProcessLineCollector,
        WangCoordinatedCollector,
        ManivannanSinghalCollector,
        UnsafeCanaryCollector,
        HoarderCanaryCollector,
    )
}


def available_collectors(*, asynchronous_only: bool = False) -> List[str]:
    """Names of the collectors to sweep (optionally only asynchronous ones):
    every collector but the canaries."""
    return [
        name
        for name, cls in sorted(_COLLECTORS.items())
        if not cls.canary and (not asynchronous_only or cls.asynchronous)
    ]


def check_collector(field: str, name: Any) -> None:
    """Refuse ``name`` under ``field`` unless a collector, canaries included,
    has it; the refusal lists :func:`available_collectors`."""
    if not (isinstance(name, str) and name in _COLLECTORS):
        raise SpecValidationError(
            field, f"unknown value {name!r}", accepted=available_collectors()
        )


def collector_class(name: str) -> Type[GarbageCollector]:
    """The collector class named ``name``."""
    try:
        return _COLLECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown garbage collector {name!r}; "
            f"available: {', '.join(available_collectors())}"
        ) from None


def make_collector(
    name: str, pid: int, num_processes: int, storage: StableStorage, **options: object
) -> GarbageCollector:
    """Instantiate the collector named ``name`` for one process."""
    return collector_class(name)(pid, num_processes, storage, **options)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CollectorSpec:
    """A garbage collector by name plus its construction options."""

    name: str
    options: Options = ()

    @classmethod
    def of(
        cls,
        name: str,
        options: Optional[Mapping[str, Any]] = None,
        *,
        field: str = "name",
        options_field: str = "options",
    ) -> "CollectorSpec":
        """A checked spec: an unknown name is refused under ``field`` and a
        bad option under ``options_field``, here and not as per-cell failure
        records mid-sweep."""
        check_collector(field, name)
        with naming(options_field):
            spec = cls(name, freeze_options(options))
            make_collector(name, 0, 2, StableStorage(0), **spec.options_dict())
        return spec

    @classmethod
    def from_entry(cls, entry: Any) -> "CollectorSpec":
        """A document entry: a bare name or ``{"name": ..., "options": {...}}``."""
        name, options = registry_entry(entry, "options")
        return cls.of(name, options, field="", options_field="")

    def options_dict(self) -> Dict[str, Any]:
        """The options as a plain dict (keyword arguments of the collector)."""
        return dict(self.options)
