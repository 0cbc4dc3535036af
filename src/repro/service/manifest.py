"""Batch-manifest parsing for ``qmatch batch``.

A manifest is a JSON file describing a corpus of match jobs::

    {
      "defaults": {"algorithm": "qmatch", "threshold": 0.5},
      "pairs": [
        {"source": "schemas/po1.xsd", "target": "schemas/po2.xsd"},
        {"source": "builtin:Article", "target": "builtin:Book",
         "algorithm": "cupid", "label": "books"},
        {"source": "a.xsd", "target": "b.xsd",
         "weights": "0.3,0.2,0.1,0.4", "strategy": "stable",
         "timeout": 30}
      ]
    }

``defaults`` applies to every pair unless the pair overrides it.
Schema references are either file paths (resolved relative to the
manifest) or ``builtin:<Name>`` for the bundled paper schemas of
:mod:`repro.datasets.registry` -- which is how the evaluation corpus is
batch-matched without exporting files first.

Every schema is parsed once at load time and re-serialized to canonical
XSD text, so job specs are self-contained (safe to ship to worker
processes) and content hashes are format-independent.  All parameter
validation goes through :mod:`repro.service.validation` -- the same
helpers the CLI flags use -- and problems raise
:class:`~repro.service.validation.ValidationError` naming the offending
pair.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.service.jobs import MatchJobSpec
from repro.service.validation import (
    ValidationError,
    validate_algorithm,
    validate_positive,
    validate_strategy,
    validate_threshold,
    validate_weights,
)

#: Prefix selecting a bundled schema from the dataset registry.
BUILTIN_PREFIX = "builtin:"

#: Keys a manifest pair entry (or ``defaults``) may carry.
_PAIR_KEYS = frozenset((
    "source", "target", "algorithm", "threshold", "strategy", "weights",
    "timeout", "label",
))
_DEFAULTABLE_KEYS = frozenset(
    ("algorithm", "threshold", "strategy", "weights", "timeout")
)


def _load_schema_text(ref: str, base_dir: Path) -> tuple[str, str]:
    """Resolve one schema reference to (canonical XSD text, name)."""
    from repro.xsd.serializer import to_xsd

    if ref.startswith(BUILTIN_PREFIX):
        from repro.datasets import registry

        name = ref[len(BUILTIN_PREFIX):]
        try:
            tree = registry.load_schema(name)
        except KeyError as exc:
            raise ValidationError(str(exc)) from None
        return to_xsd(tree), tree.name
    from repro.xsd.parser import parse_xsd_file

    path = Path(ref)
    if not path.is_absolute():
        path = base_dir / path
    tree = parse_xsd_file(path)
    return to_xsd(tree), tree.name


def _build_spec(entry: dict, defaults: dict, base_dir: Path,
                index: int) -> MatchJobSpec:
    if not isinstance(entry, dict):
        raise ValidationError(f"pair #{index} must be an object, got {entry!r}")
    unknown = set(entry) - _PAIR_KEYS
    if unknown:
        raise ValidationError(
            f"pair #{index} has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_PAIR_KEYS)}"
        )
    merged = dict(defaults)
    merged.update(entry)
    for required in ("source", "target"):
        if not merged.get(required):
            raise ValidationError(f"pair #{index} is missing {required!r}")
    algorithm = validate_algorithm(merged.get("algorithm", "qmatch"))
    threshold = validate_threshold(merged.get("threshold", 0.5))
    weights = validate_weights(merged.get("weights"))
    if weights is not None and algorithm != "qmatch":
        raise ValidationError(
            f"pair #{index}: weights only apply to the qmatch algorithm, "
            f"not {algorithm!r}"
        )
    timeout = validate_positive(
        merged.get("timeout"), "timeout", allow_none=True
    )
    source_xsd, source_name = _load_schema_text(merged["source"], base_dir)
    target_xsd, target_name = _load_schema_text(merged["target"], base_dir)
    return MatchJobSpec(
        source_xsd=source_xsd,
        target_xsd=target_xsd,
        algorithm=algorithm,
        threshold=threshold,
        strategy=validate_strategy(merged.get("strategy")),
        weights=weights.as_tuple() if weights is not None else None,
        timeout=timeout,
        label=str(merged.get("label", "")),
        source_name=source_name,
        target_name=target_name,
    )


def parse_manifest(data: dict, base_dir: Union[str, Path] = ".",
                   ) -> list[MatchJobSpec]:
    """Turn a parsed manifest dict into job specs (validated)."""
    if not isinstance(data, dict) or "pairs" not in data:
        raise ValidationError(
            'manifest must be a JSON object with a "pairs" array'
        )
    pairs = data["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise ValidationError('manifest "pairs" must be a non-empty array')
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValidationError('manifest "defaults" must be an object')
    unknown = set(defaults) - _DEFAULTABLE_KEYS
    if unknown:
        raise ValidationError(
            f"manifest defaults has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_DEFAULTABLE_KEYS)}"
        )
    base_dir = Path(base_dir)
    specs = []
    for index, entry in enumerate(pairs):
        try:
            specs.append(_build_spec(entry, defaults, base_dir, index))
        except ValidationError:
            raise
        except Exception as exc:  # schema file problems, parse errors
            raise ValidationError(f"pair #{index}: {exc}") from exc
    return specs


def load_manifest(path: Union[str, Path],
                  base_dir: Optional[Union[str, Path]] = None,
                  ) -> list[MatchJobSpec]:
    """Load and validate a manifest file into job specs.

    Relative schema paths resolve against the manifest's directory
    unless ``base_dir`` overrides that.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {path} is not valid JSON: {exc}") from None
    return parse_manifest(data, base_dir if base_dir is not None else path.parent)
