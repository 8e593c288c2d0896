"""JSON codec for the package's dataclasses, compiled from their annotations.

`to_json(obj)` encodes a dataclass instance; `from_json(cls, data)` decodes
JSON data as `cls`. Each type's encoder and decoder are built once from its
annotations and cached. A dataclass becomes a row: a JSON list of its field
values in declaration order, a nested dataclass a row in its slot.
`tuple[X, ...]` and `list[X]` become lists; `dict[str, X]` stays an object;
`X | None` admits null. A field annotated as a bare `dict`, `list` or
scalar already holds JSON and passes through. `from_json` raises
`SchemaMismatch` when a dataclass value is not a list of exactly as many
values as the class has fields, a `str`, `int`, `float` or `bool` field (or
such a field that admits null) holds another JSON type, a sequence is not a
list, an item of a `tuple[X, ...]` or `list[X]` of such scalars (also as a
`dict` value) holds another JSON type, or a bare `dict` or `list` field
holds another JSON type. An `int` or `bool` field takes only its own type;
a `float` field takes an `int` or a `float`, never a `bool`.
"""

from __future__ import annotations

import reprlib
import types
import typing
from dataclasses import fields, is_dataclass

from .errors import SchemaMismatch

_PLAIN = (dict, list, str, int, float, bool)
# the Python types of the JSON values a scalar field admits
_SCALARS = {str: (str,), int: (int,), float: (float, int), bool: (bool,)}

# A compiled codec is a one-argument function, or None where the value passes
# through unchanged, so that containers of scalars need no per-item call.
_encoders: dict = {}
_decoders: dict = {}


def to_json(obj):
    """JSON data for a dataclass instance."""
    return _codec(type(obj), True)(obj)


def from_json(cls, data):
    """Decode JSON data as `cls`, a dataclass or a container annotation."""
    decode = _codec(cls, False)
    return data if decode is None else decode(data)


def _codec(tp, encoding: bool):
    cache = _encoders if encoding else _decoders
    if tp not in cache:
        shape, args = _shape(tp)
        if shape == "dataclass":
            # Until compiled, calls resolve through the cache, so that a field
            # may name its own class (`StageTemplate.alternates`).
            cache[tp] = lambda value: cache[tp](value)
            try:
                cache[tp] = _compile(tp, encoding)
            except TypeError:
                del cache[tp]
                raise
        else:
            item = _codec(args[0], encoding) if args else None
            cache[tp] = (_encoder if encoding else _decoder)(tp, shape, args, item)
    return cache[tp]


def _shape(tp) -> tuple[str, tuple]:
    """Classify an annotation as dataclass, seq, dict, optional or plain,
    with the annotations it is made of."""
    if isinstance(tp, type) and is_dataclass(tp):
        return "dataclass", ()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        return "seq", args[:1]
    if origin is dict and args[:1] == (str,):
        return "dict", args[1:]
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return "optional", tuple(a for a in args if a is not type(None))
    if tp in _PLAIN:
        return "plain", ()
    raise TypeError(f"no JSON codec for {tp!r}")


def _encoder(tp, shape: str, args: tuple, item):
    if item is None:
        return {"seq": list, "dict": dict}.get(shape)
    if shape == "seq":
        return lambda value: [item(x) for x in value]
    if shape == "dict":
        return lambda value: {k: item(x) for k, x in value.items()}
    return lambda value: None if value is None else item(value)


def _decoder(tp, shape: str, args: tuple, item):
    build = typing.get_origin(tp)
    if shape == "seq" and args[0] in _SCALARS:
        admitted = frozenset(_SCALARS[args[0]])
        return lambda data: build(
            data if type(data) is list and admitted.issuperset(map(type, data)) else _items(data, tp)
        )
    if shape == "seq" and item is None:
        return lambda data: build(_check(data, list, tp))
    if shape == "seq":
        return lambda data: build([item(x) for x in _check(data, list, tp)])
    if shape == "dict" and item is None:
        return lambda data: dict(_check(data, dict, tp))
    if shape == "dict":
        return lambda data: {k: item(x) for k, x in _check(data, dict, tp).items()}
    if shape == "optional" and item is not None:
        return lambda data: None if data is None else item(data)
    if tp in (dict, list):
        return lambda data: _check(data, tp, tp)
    return None


def _compile(cls, encoding: bool):
    """A dataclass's encoder or decoder as generated source: one list display
    or one constructor call over the fields, as fast as a hand-written
    method. Field names are identifiers, so the source holds no data."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    scalars = {i: (name, types) for i, name in enumerate(names) if (types := _scalar_types(hints[name]))}
    env = {"cls": cls, "names": names, "scalars": scalars, "mismatch": _mismatch}
    parts, checks = [], []
    for i, name in enumerate(names):
        env[f"f{i}"] = codec = _codec(hints[name], encoding)
        value = f"obj.{name}" if encoding else f"data[{i}]"
        parts.append(value if codec is None else f"f{i}({value})")
        if i in scalars:
            env[f"t{i}"] = scalars[i][1]
            checks.append(f" or type(data[{i}]) not in t{i}")
    if encoding:
        source = f"def encode(obj):\n    return [{', '.join(parts)}]\n"
    else:
        source = (
            "def decode(data):\n"
            f"    if type(data) is not list or len(data) != {len(names)}{''.join(checks)}:\n"
            "        mismatch(cls, names, scalars, data)\n"
            f"    return cls({', '.join(parts)})\n"
        )
    exec(source, env)
    return env["encode" if encoding else "decode"]


def _scalar_types(tp) -> tuple[type, ...] | None:
    """The types `_SCALARS` admits for a scalar or optional scalar field."""
    shape, args = _shape(tp)
    if shape == "optional" and args[0] in _SCALARS:
        return _SCALARS[args[0]] + (type(None),)
    return _SCALARS.get(tp)


def _mismatch(cls, names, scalars, data):
    if type(data) is list and len(data) == len(names):
        for i, (name, admitted) in scalars.items():
            if type(data[i]) not in admitted:
                wanted = " or ".join("null" if t is type(None) else t.__name__ for t in admitted)
                raise SchemaMismatch(f"{cls.__name__}.{name} needs {wanted}: {reprlib.repr(data[i])}")
    wanted = f"a row of {len(names)} values {list(names)}"
    raise SchemaMismatch(f"{cls.__name__} needs {wanted}: {reprlib.repr(data)}")


def _items(data, tp):
    """`SchemaMismatch` for a sequence that is not a list of the right items."""
    _check(data, list, tp)
    raise SchemaMismatch(f"{tp} holds a wrongly typed item: {reprlib.repr(data)}")


def _check(data, kind: type, tp):
    """`data`, if it is a JSON list or object as `kind` says; else
    `SchemaMismatch`."""
    if not isinstance(data, kind):
        raise SchemaMismatch(f"{tp} needs a JSON {kind.__name__}: {reprlib.repr(data)}")
    return data
