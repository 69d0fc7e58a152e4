"""Registry of garbage collectors, keyed by name.

Benchmarks and examples sweep over collectors by name; collector-specific
options (coordination period, time window) are passed as keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Type

from repro.gc.all_process_line import AllProcessLineCollector
from repro.gc.base import GarbageCollector
from repro.gc.manivannan_singhal import ManivannanSinghalCollector
from repro.gc.none_gc import NoGarbageCollector
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.gc.wang_coordinated import WangCoordinatedCollector
from repro.storage.stable import StableStorage
from repro.validation import Options, check_choice, freeze_options, naming, registry_entry

_COLLECTORS: Dict[str, Type[GarbageCollector]] = {
    cls.name: cls
    for cls in (
        NoGarbageCollector,
        RdtLgcCollector,
        AllProcessLineCollector,
        WangCoordinatedCollector,
        ManivannanSinghalCollector,
    )
}


def available_collectors(*, asynchronous_only: bool = False) -> List[str]:
    """Names of all registered collectors (optionally only asynchronous ones)."""
    return [
        name
        for name, cls in sorted(_COLLECTORS.items())
        if not asynchronous_only or cls.asynchronous
    ]


def collector_class(name: str) -> Type[GarbageCollector]:
    """The collector class registered under ``name``."""
    try:
        return _COLLECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown garbage collector {name!r}; "
            f"available: {', '.join(sorted(_COLLECTORS))}"
        ) from None


def make_collector(
    name: str, pid: int, num_processes: int, storage: StableStorage, **options: object
) -> GarbageCollector:
    """Instantiate the collector registered under ``name`` for one process."""
    return collector_class(name)(pid, num_processes, storage, **options)  # type: ignore[arg-type]


def register_collector(cls: Type[GarbageCollector]) -> Type[GarbageCollector]:
    """Register a custom collector class (usable as a decorator)."""
    if not issubclass(cls, GarbageCollector):
        raise TypeError("collectors must subclass GarbageCollector")
    _COLLECTORS[cls.name] = cls
    return cls


def unregister_collector(name: str) -> None:
    """Remove a previously registered custom collector (no-op if absent)."""
    _COLLECTORS.pop(name, None)


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
        check_choice(field, name, available_collectors())
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
