"""The one JSON encoding of a simulation config, walked off its dataclasses.

A :class:`~repro.backends.SimulationConfig` and the specs it nests — the
:mod:`repro.core.params` dataclasses and
:class:`~repro.workload.OwnerActivityTrace` — are their own schema:
:func:`to_json` and :func:`from_json` walk ``dataclasses.fields`` and the
fields' type hints, so a field added to any of them is encoded, decoded and
fingerprinted without anyone editing a codec.  The sweep service's wire
format (:func:`config_to_json` / :func:`config_from_json`), the result
cache's key (:func:`repro.engine.cache.config_fingerprint`) and the
service's job records (:class:`repro.service.JobRecord`) are all this walk.
A field whose dataclass defines its own ``to_json`` / ``from_json`` is coded
by them: a job's submission spec, whose JSON depends on its kind.

Encoding is canonical: tuples become lists, a ``dict[str, float]`` becomes a
key-sorted map, floats pass through ``float()`` (JSON's ``repr`` round-trips
them exactly, so a decoded config fingerprints and simulates bitwise like
the original), ints through ``int()``, strings through ``str()``, and
``None`` stays ``null``.

Decoding is strict, because the payloads come from outside the program: a
missing key takes the dataclass default, but an unknown key, a missing
required key, a value of the wrong JSON type or a non-integral number for an
int field raises ``ValueError``.  The dataclasses' own ``__post_init__``
checks then run as for any other construction.  A field whose type hint the
walker does not know raises ``TypeError`` the first time its class is
walked; nothing is ever coerced through ``str()`` by default.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable, TypeVar, cast

from ..backends import SimulationConfig
from ..workload import OwnerActivityTrace

__all__ = ["to_json", "from_json", "config_to_json", "config_from_json"]

T = TypeVar("T")
_Coerce = Callable[[Any], Any]

#: Names the spec modules import only under ``TYPE_CHECKING`` (to avoid an
#: import cycle) but still mention in string annotations.
_FORWARD_REFS: dict[str, Any] = {"OwnerActivityTrace": OwnerActivityTrace}


def to_json(obj: Any) -> dict[str, Any]:
    """Encode a spec dataclass instance as JSON-safe data."""
    encode, _ = _dataclass_codec(type(obj))
    return cast(dict[str, Any], encode(obj))


def from_json(cls: type[T], payload: Any) -> T:
    """Decode (and validate) a payload produced by :func:`to_json`."""
    _, decode = _dataclass_codec(cls)
    return cast(T, decode(payload))


#: The service's wire codec of one simulation point.
config_to_json = to_json


def config_from_json(payload: Any) -> SimulationConfig:
    """Decode one simulation point encoded by :func:`config_to_json`."""
    return from_json(SimulationConfig, payload)


@functools.cache
def _dataclass_codec(cls: type) -> tuple[_Coerce, _Coerce]:
    """The ``(encode, decode)`` pair of a dataclass, built once per class."""
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise TypeError(f"the config codec walks dataclasses, not {cls!r}")
    hints = typing.get_type_hints(cls, localns=_FORWARD_REFS)
    fields = dataclasses.fields(cls)
    codecs = {
        f.name: _codec(hints[f.name], f"{cls.__name__}.{f.name}") for f in fields
    }
    encoders = tuple((name, enc) for name, (enc, _) in codecs.items())
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }

    def encode(obj: Any) -> dict[str, Any]:
        return {name: enc(getattr(obj, name)) for name, enc in encoders}

    def decode(payload: Any) -> Any:
        unknown = _object(payload, cls.__name__).keys() - codecs.keys()
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} key(s) {sorted(unknown)!r}; "
                f"expected a subset of {sorted(codecs)!r}"
            )
        missing = required - payload.keys()
        if missing:
            raise ValueError(
                f"{cls.__name__} is missing required key(s) {sorted(missing)!r}"
            )
        return cls(**{key: codecs[key][1](value) for key, value in payload.items()})

    return encode, decode


def _codec(hint: Any, where: str) -> tuple[_Coerce, _Coerce]:
    """The ``(encode, decode)`` pair of one field type hint."""
    if hint is float:
        return float, lambda value: float(_number(value, where))
    if hint is int:
        return int, lambda value: _integer(value, where)
    if hint is str:
        return str, lambda value: _string(value, where)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        if "to_json" in vars(hint) and "from_json" in vars(hint):
            return hint.to_json, hint.from_json
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    optional = origin in (typing.Union, types.UnionType) and len(args) == 2
    if optional and type(None) in args:
        enc, dec = _codec(args[1] if args[0] is type(None) else args[0], where)
        return (
            lambda value: None if value is None else enc(value),
            lambda value: None if value is None else dec(value),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0], f"{where}[]")
        return (
            lambda value: [enc(item) for item in value],
            lambda value: tuple(dec(item) for item in _array(value, where)),
        )
    if origin is tuple and args:
        items = [_codec(arg, f"{where}[]") for arg in args]
        return (
            lambda value: [enc(v) for (enc, _), v in zip(items, value, strict=True)],
            lambda value: tuple(
                dec(v) for (_, dec), v in zip(items, _array(value, where, len(args)))
            ),
        )
    if origin is dict and args == (str, float):
        return (
            lambda value: {str(key): float(v) for key, v in sorted(value.items())},
            lambda value: {
                _string(key, f"{where} key"): float(_number(v, where))
                for key, v in _object(value, where).items()
            },
        )
    raise TypeError(f"the config codec does not know type hint {hint!r} ({where})")


def _number(value: Any, where: str) -> numbers.Real:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an integer beyond a float's range
        raise ValueError(f"{where} is out of range, got {value!r}") from None
    return value


def _integer(value: Any, where: str) -> int:
    number = _number(value, where)
    if not isinstance(number, numbers.Integral) and not float(number).is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def _array(
    value: Any, where: str, length: int | None = None
) -> list[Any] | tuple[Any, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a JSON array, got {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"{where} must hold {length} items, got {value!r}")
    return value


def _object(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    return value
