"""One reader for dataclass records given as plain data: YAML config sections
and the JSON metadata of checkpoints."""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from typing import Any

__all__ = ["fits", "from_mapping"]

_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}
_hints = functools.cache(typing.get_type_hints)


def fits(value: Any, scalar: type) -> bool:
    """The scalar rule: a bool is no count or number; a float takes an int."""
    if isinstance(value, bool) or scalar is bool:
        return scalar is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if scalar is float else scalar)


def _read(value: Any, hint: Any, path: str, complete: bool) -> Any:
    """``value`` checked against ``hint``; lists become tuples, mappings records."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # always `X | None`
        return None if value is None else _read(value, args[0], path, complete)
    if dataclasses.is_dataclass(hint):
        return from_mapping(hint, value, complete=complete, path=path)
    if origin is tuple:  # always `tuple[X, ...]`
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list")
        return tuple(_read(v, args[0], f"{path}[{i}]", complete) for i, v in enumerate(value))
    if origin is Mapping and isinstance(value, Mapping):
        return {_read(k, args[0], f"{path} key", complete):
                _read(v, args[1], f"{path}[{k!r}]", complete) for k, v in value.items()}
    if not (fits(value, hint) if hint in _SCALARS else isinstance(value, origin or hint)):
        expected = _SCALARS.get(hint) or f"a {(origin or hint).__name__}"
        raise ValueError(f"{path} must be {expected}, got {value!r}")
    return float(value) if hint is float else value


def from_mapping(cls: type, raw: Any, *, fixed: Mapping[str, Any] = {},
                 complete: bool = False, path: str = "") -> Any:
    """Build dataclass ``cls`` from a mapping of its init fields, other than
    the caller's ``fixed`` ones (all of them if ``complete``); any problem,
    the dataclass's own included, is one ValueError naming its key."""
    where = f"{path}: " if path else ""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{path} must be a mapping" if path else "must be a mapping")
    names = {f.name for f in dataclasses.fields(cls) if f.init} - set(fixed)
    for problem, keys in (("unknown", set(raw) - names),
                          ("missing", names - set(raw) if complete else ())):
        if keys:
            raise ValueError(f"{where}{problem} key(s) {sorted(keys, key=str)}")
    values = {k: _read(v, _hints(cls)[k], f"{path}.{k}" if path else k, complete)
              for k, v in raw.items()}
    try:
        return cls(**fixed, **values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}{exc}") from None
