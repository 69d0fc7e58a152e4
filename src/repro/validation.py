"""The one error a run document raises, and the readers that raise it.

Every rule about a run document lives in the type that owns it
(``SimulationConfig``, ``CampaignSpec``, ``ExploreConfig``, ``FuzzSpec`` and
the entry parsers beneath them), which refuses a value by raising
:class:`SpecValidationError` naming the field.  This leaf module, importable
from every layer, holds that error, the typed readers of JSON values, and
:func:`naming`, which places an entry's refusal under the entry's position
in the document (``collectors[1]``, ``network``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Collection, Iterator, Mapping, Optional, Sequence, Tuple

#: Options are stored as sorted ``(key, value)`` tuples: hashable, picklable
#: and with a canonical order so equal option sets hash identically.
Options = Tuple[Tuple[str, Any], ...]


class SpecValidationError(ValueError):
    """A specification document failed validation.

    ``field`` names the offending entry as a key path of the document
    (``"duration"``, ``"collectors[1]"``, ``"program[0].op"``; empty while an
    entry parser does not know where its entry sits); ``accepted`` (when the
    domain is enumerable) lists the values that would have been valid.  The
    rendered message carries both, so the exception is actionable even when
    only its string surfaces (CLI wrappers, logs).
    """

    def __init__(
        self, field: str, message: str, *, accepted: Optional[Sequence[Any]] = None
    ) -> None:
        """Record ``field``/``accepted`` and render the combined message."""
        self.field = field
        self.reason = message
        self.accepted = list(accepted) if accepted is not None else None
        rendered = f"{field}: {message}" if field else message
        if self.accepted is not None:
            rendered += f" (accepted: {', '.join(str(a) for a in self.accepted)})"
        super().__init__(rendered)

    def under(self, prefix: str) -> "SpecValidationError":
        """The same refusal, with its field placed under ``prefix``."""
        if not prefix:
            return self
        field = self.field if not self.field or self.field.startswith("[") else "." + self.field
        return SpecValidationError(prefix + field, self.reason, accepted=self.accepted)


@contextmanager
def naming(field: str) -> Iterator[None]:
    """Name ``field`` on any refusal raised inside the block: a
    :class:`SpecValidationError` is placed under it, and the ``ValueError`` /
    ``TypeError`` / ``LookupError`` of a layer beneath the document (a
    constructor taking keyword options, a registry) becomes one naming it."""
    try:
        yield
    except SpecValidationError as exc:
        raise exc.under(field) from None
    except (LookupError, TypeError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise SpecValidationError(field, str(message)) from exc


def check_choice(field: str, value: Any, accepted: Sequence[Any]) -> None:
    """Refuse ``value`` unless it is one of ``accepted``."""
    if value not in accepted:
        raise SpecValidationError(field, f"unknown value {value!r}", accepted=accepted)


def check_keys(document: Mapping[Any, Any], known: Collection[str], what: str) -> None:
    """Refuse a key of ``document`` outside ``known``, naming the first one."""
    unknown = sorted((key for key in document if key not in known), key=str)
    if unknown:
        raise SpecValidationError(str(unknown[0]), f"unknown {what} key", accepted=sorted(known))


def integer(field: str, value: Any) -> int:
    """``value`` if it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(field, f"expected an integer, got {value!r}")
    return value


def number(field: str, value: Any) -> float:
    """``value`` as a float if it is a number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(field, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond any float
        raise SpecValidationError(field, f"{value!r} is too large") from None


def flag(field: str, value: Any) -> bool:
    """``value`` if it is a JSON boolean (``"no"`` is not false)."""
    if not isinstance(value, bool):
        raise SpecValidationError(field, f"expected true or false, got {value!r}")
    return value


def text(field: str, value: Any) -> str:
    """``value`` if it is a string."""
    if not isinstance(value, str):
        raise SpecValidationError(field, f"expected a string, got {value!r}")
    return value


def freeze_options(options: Optional[Mapping[str, Any]]) -> Options:
    """Keyword options in their frozen :data:`Options` form; only scalar
    values, since a nested container would break the hashability."""
    if not options:
        return ()
    if not isinstance(options, Mapping):
        raise SpecValidationError("", f"expected a mapping of options, got {options!r}")
    for key, value in options.items():
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise SpecValidationError(
                "", f"option {key!r} must be a scalar, got {type(value).__name__}"
            )
    return tuple(sorted((str(key), value) for key, value in options.items()))


def registry_entry(entry: Any, options_key: str) -> Tuple[Any, Any]:
    """The ``(name, options)`` of a registry entry in a document: a bare
    name, or a mapping with a ``"name"`` and an optional ``options_key``."""
    if isinstance(entry, str):
        return entry, None
    if not isinstance(entry, Mapping):
        raise SpecValidationError(
            "", f"expected a name or {{'name': ..., {options_key!r}: {{...}}}}, got {entry!r}"
        )
    check_keys(entry, ("name", options_key), "entry")
    if "name" not in entry:
        raise SpecValidationError("name", "the entry needs a name")
    return entry["name"], entry.get(options_key)
