"""Input validation shared by every service entry point.

The CLI flags (``--threshold``, ``--weights``), the batch-manifest
parser and the HTTP API all accept the same user-supplied knobs, and all
must fail the same way: a :class:`ValidationError` carrying a one-line
human message, no traceback.  The CLI maps it to exit code 2, the
manifest parser prefixes the offending entry, the HTTP server returns a
400 -- but the checks live here exactly once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.weights import AxisWeights


class ValidationError(ValueError):
    """A user-supplied parameter failed validation (clean CLI error)."""


def validate_threshold(value, field: str = "threshold") -> float:
    """Coerce ``value`` to a float in [0, 1] or raise ValidationError."""
    if isinstance(value, bool):
        raise ValidationError(
            f"invalid {field} {value!r}: expected a number in [0, 1]"
        )
    try:
        threshold = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"invalid {field} {value!r}: expected a number in [0, 1]"
        ) from None
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(
            f"invalid {field} {threshold!r}: must be in [0, 1]"
        )
    return threshold


#: Canonical axis order and the aliases the named weight forms accept.
#: The four paper axes are required in named form; ``instance`` (the
#: optional fifth, instance-evidence axis) defaults to 0 when omitted.
AXIS_ORDER = ("label", "properties", "level", "children")
OPTIONAL_AXES = ("instance",)
_AXIS_ALIASES = {
    "label": "label", "l": "label",
    "properties": "properties", "props": "properties", "p": "properties",
    "level": "level", "h": "level",
    "children": "children", "c": "children",
    "instance": "instance", "i": "instance",
}


def _axis_key(raw, field, value) -> str:
    key = str(raw).strip().lower()
    axis = _AXIS_ALIASES.get(key)
    if axis is None:
        raise ValidationError(
            f"invalid {field} {value!r}: unknown axis key {raw!r} "
            f"(expected one of {', '.join(AXIS_ORDER + OPTIONAL_AXES)})"
        )
    return axis


def _named_weights(pairs, field, value) -> AxisWeights:
    """Build weights from (key, number) pairs; duplicates rejected."""
    named: dict[str, float] = {}
    for raw_key, raw_number in pairs:
        axis = _axis_key(raw_key, field, value)
        if axis in named:
            raise ValidationError(
                f"invalid {field} {value!r}: duplicate axis key "
                f"{str(raw_key).strip()!r} ({axis} was already given)"
            )
        try:
            named[axis] = float(raw_number)
        except (TypeError, ValueError):
            raise ValidationError(
                f"invalid {field} {value!r}: {axis} must be a number, "
                f"got {raw_number!r}"
            ) from None
    missing = [axis for axis in AXIS_ORDER if axis not in named]
    if missing:
        raise ValidationError(
            f"invalid {field} {value!r}: missing axis "
            f"key{'s' if len(missing) > 1 else ''} {', '.join(missing)}"
        )
    numbers = [named[axis] for axis in AXIS_ORDER]
    numbers.append(named.get("instance", 0.0))
    if any(number < 0 for number in numbers):
        raise ValidationError(
            f"invalid {field} {value!r}: weights must be non-negative"
        )
    if sum(numbers) <= 0:
        raise ValidationError(
            f"invalid {field} {value!r}: at least one weight must be positive"
        )
    return AxisWeights.normalized(*numbers)


def validate_weights(value: Union[str, Sequence, dict, None],
                     field: str = "weights") -> Optional[AxisWeights]:
    """Parse axis weights from a CLI/manifest/HTTP value.

    Accepts ``None`` (pass through), a positional ``"L,P,H,C"`` string
    (optionally ``"L,P,H,C,I"`` with the instance weight appended), a
    named ``"label=3,properties=2,level=1,children=4"`` string
    (single-letter aliases L/P/H/C plus ``instance``/``i`` work too), a
    4- or 5-sequence of numbers, or a mapping carrying the four axis
    keys (plus optionally ``instance``); magnitudes are normalized to
    sum to 1.  The four paper axes are always required; ``instance``
    defaults to 0 when omitted.  Malformed input -- trailing commas,
    empty entries, duplicate or unknown axis keys -- is rejected with a
    precise message rather than silently coerced.
    """
    if value is None:
        return None
    if isinstance(value, AxisWeights):
        return value
    if isinstance(value, dict):
        return _named_weights(value.items(), field, value)
    if isinstance(value, str):
        if not value.strip():
            raise ValidationError(
                f"invalid {field} {value!r}: empty "
                "(expected four comma-separated values)"
            )
        parts = value.split(",")
        if any(not part.strip() for part in parts):
            where = (
                "trailing comma" if not parts[-1].strip() else "empty entry"
            )
            raise ValidationError(
                f"invalid {field} {value!r}: {where} "
                "(expected four comma-separated values)"
            )
        if any("=" in part for part in parts):
            if not all("=" in part for part in parts):
                raise ValidationError(
                    f"invalid {field} {value!r}: mixes named (key=value) "
                    "and positional entries"
                )
            return _named_weights(
                (part.split("=", 1) for part in parts), field, value
            )
    else:
        try:
            parts = list(value)
        except TypeError:
            raise ValidationError(
                f"invalid {field} {value!r}: expected four comma-separated "
                "numbers (label, properties, level, children)"
            ) from None
    try:
        numbers = [float(part) for part in parts]
    except (TypeError, ValueError):
        raise ValidationError(
            f"invalid {field} {value!r}: expected four numbers "
            "(label, properties, level, children)"
        ) from None
    if len(numbers) not in (4, 5):
        raise ValidationError(
            f"invalid {field} {value!r}: expected four numbers "
            f"(label, properties, level, children) or five (plus "
            f"instance), got {len(numbers)}"
        )
    if any(number < 0 for number in numbers):
        raise ValidationError(
            f"invalid {field} {value!r}: weights must be non-negative"
        )
    if sum(numbers) <= 0:
        raise ValidationError(
            f"invalid {field} {value!r}: at least one weight must be positive"
        )
    return AxisWeights.normalized(*numbers)


def validate_algorithm(name, registry=None,
                       field: str = "algorithm") -> str:
    """Check ``name`` against the matcher registry and return it."""
    from repro.engine.registry import DEFAULT_REGISTRY

    registry = registry or DEFAULT_REGISTRY
    if not isinstance(name, str) or name not in registry:
        raise ValidationError(
            f"invalid {field} {name!r}: expected one of {registry.names()}"
        )
    return name


def validate_strategy(name, field: str = "strategy") -> Optional[str]:
    """Check a selection strategy name; ``None`` (the algorithm's own
    strategy) passes through."""
    from repro.matching.selection import STRATEGY_NAMES

    if name is not None and name not in STRATEGY_NAMES:
        raise ValidationError(
            f"invalid {field} {name!r}: expected one of "
            f"{', '.join(STRATEGY_NAMES)}"
        )
    return name


def validate_positive(value, field: str, allow_none: bool = False,
                      allow_zero: bool = False) -> Optional[float]:
    """Coerce a positive number (timeouts, worker counts, backoffs)."""
    if value is None and allow_none:
        return None
    if isinstance(value, bool):
        raise ValidationError(
            f"invalid {field} {value!r}: expected a positive number"
        )
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"invalid {field} {value!r}: expected a positive number"
        ) from None
    if number < 0 or (number == 0 and not allow_zero):
        raise ValidationError(
            f"invalid {field} {number!r}: must be "
            f"{'>= 0' if allow_zero else '> 0'}"
        )
    return number


def validate_search_budget(k, candidates=None,
                           k_field: str = "k",
                           candidates_field: str = "candidates",
                           ) -> tuple[int, Optional[int]]:
    """Validate the top-k / candidate-budget pair of a search request.

    One shared check for ``qmatch search --k/--candidates`` and the HTTP
    ``POST /search`` body (pass ``--k``/``--candidates`` as the field
    names for CLI-flavoured messages).  Enforces the relationship the
    two-stage searcher silently truncated before: the rerank budget must
    cover the requested ``k``, otherwise the top-k cut can never fill.
    """
    try:
        k_value = int(k)
    except (TypeError, ValueError):
        raise ValidationError(
            f"invalid {k_field} {k!r}: expected a positive integer"
        ) from None
    if k_value < 1:
        raise ValidationError(f"invalid {k_field} {k_value}: must be >= 1")
    if candidates is None:
        return k_value, None
    try:
        budget = int(candidates)
    except (TypeError, ValueError):
        raise ValidationError(
            f"invalid {candidates_field} {candidates!r}: "
            "expected a positive integer"
        ) from None
    if budget < 1:
        raise ValidationError(
            f"invalid {candidates_field} {budget}: must be >= 1"
        )
    if budget < k_value:
        raise ValidationError(
            f"{candidates_field} ({budget}) must be >= {k_field} "
            f"({k_value}): the rerank budget caps how many hits can be "
            "returned"
        )
    return k_value, budget
