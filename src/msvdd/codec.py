"""Plain-data conversion of the config dataclasses, driven by their fields.

`to_dict` gives JSON-ready data; `from_dict` is where a JSON payload enters
the system, so an unknown or missing key fails there as `InputError`.
"""

from __future__ import annotations

import dataclasses
import enum
import json

from .errors import InputError


def to_dict(obj):
    """Nested dataclasses become dicts, tuples lists and enums their values."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: to_dict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_dict(value) for value in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def from_dict(cls, payload):
    """Build ``cls`` from a dict keyed by its field names.

    Missing keys take their field defaults and list values become tuples.
    A key that is not a field, a missing required key, or a value that
    ``cls`` rejects with TypeError or ValueError is an `InputError`.
    """
    if not isinstance(payload, dict):
        raise InputError(f"{cls.__name__} needs a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InputError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from None


def write_json(payload, path):
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
