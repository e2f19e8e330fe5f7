"""Config dataclasses built from parsed JSON, every key and value checked.

One checker serves the run config (with its nested sections) and the
synthetic scenario spec, so both reject a bad value with ConfigError
(exit 2) naming its dotted key.  Range checks run in each config's
__post_init__, so a bad value fails at load, before any training.
"""

from __future__ import annotations

from dataclasses import is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


def from_dict(cls, data, name: str, prefix: str = ""):
    """Build dataclass `cls` from a JSON object named `name` in messages.

    A dataclass-typed field is built recursively from a nested object; a
    dict[str, T] field needs an object with string keys and values of T.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    types = get_type_hints(cls)
    kwargs = dict(data)
    for key, value in data.items():
        label = prefix + key
        hint = types[key]
        if is_dataclass(hint):
            kwargs[key] = from_dict(hint, value, label, label + ".")
        elif get_origin(hint) is dict:
            if not (isinstance(value, dict) and all(isinstance(k, str) for k in value)):
                raise ConfigError(f"{label} must be an object with string keys, "
                                  f"got {value!r}")
            for k, v in value.items():
                _check(v, (get_args(hint)[1],), f"{label}.{k}")
        else:
            _check(value, get_args(hint) or (hint,), label)
    return cls(**kwargs)


def _check(value, allowed: tuple, label: str) -> None:
    """Type check of a JSON value: a bool is not an int; an int is a float."""
    if isinstance(value, bool):
        ok = bool in allowed
    else:
        ok = isinstance(value, allowed) or (isinstance(value, int) and float in allowed)
    if not ok:
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ConfigError(f"{label} must be {names}, got {value!r}")


def check_ranges(config, prefix: str, at_least_one=(), positive=(),
                 unit=()) -> None:
    """Range checks for a config's __post_init__: each `at_least_one` field
    must be >= 1, each `positive` field > 0 and each `unit` field in
    [0, 1).  A failure is a ConfigError naming `prefix + field`; NaN fails
    every check."""
    for names, ok, bound in ((at_least_one, lambda v: v >= 1, ">= 1"),
                             (positive, lambda v: v > 0.0, "> 0"),
                             (unit, lambda v: 0.0 <= v < 1.0, "in [0, 1)")):
        for name in names:
            value = getattr(config, name)
            if not ok(value):
                raise ConfigError(f"{prefix}{name} must be {bound}, got {value}")
