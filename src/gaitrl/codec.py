"""One JSON codec for every document gaitrl writes.

:func:`encode` turns a dataclass into JSON values and :func:`decode` builds
it back, both driven by the dataclass's fields and their annotations
(``typing.get_type_hints``).  The documents, and how each stores its arrays:

- run config (``config.json``; a checkpoint's ``config``):
  ``config.RunConfig``, no arrays;
- checkpoint (``checkpoint_*.json``): ``trainer.Checkpoint``.  Every network
  is a ``DenseNet`` (a layer manifest plus its parameters as one packed flat
  array); ``log_std`` and the Adam moments are ``PackedArray``: the dtype
  and the base64 of the little-endian bytes, bit-exact.  A net and its Adam
  moments are float32, ``log_std`` and its moments float64 (the dtype rule
  of :mod:`gaitrl.nets`); a packed array decodes to the dtype it records.
  No observation normalizer is stored: the env writes normalized rows
  (``env.obs_scaling``);
- heightfield: ``terrain.Heightfield``, heights and void as nested lists;
- reference clip (``clip_*.json``): ``refmotion.ReferenceClip``, frames as
  nested lists;
- benchmark report (``report_*.json``): ``bench.BenchmarkReport``, no arrays;
- latent table (``latents.json``): ``policy.LatentTable``, nested lists;
- latent report (``latent_report.json``): ``bench.LatentReport``, coordinates
  and gate usage as nested lists.

The rules:

- a field annotated ``np.ndarray`` is written as nested lists and one
  annotated ``PackedArray`` packed;
- a class with a ``format_version`` class variable writes it, and decoding
  rejects any other value;
- a missing key takes the field's default, and a field without one is
  required;
- a field whose default is None is written only when it is set;
- an unknown key is an error;
- a field annotated ``int``, ``float``, ``str`` or ``bool`` takes only a
  JSON value of that kind; an int where ``float`` is annotated is kept as
  read (so a config's hash does not move), and a bool is not a number;
- a tuple field is annotated with its element types, ``tuple[int, ...]``
  or ``tuple[float, float]``, and each element follows the scalar rule
  above (``arch.critic_hidden[0]: expected int, got str``); a fixed-length
  tuple takes exactly that many values;
- a dict field's values follow the scalar rule too (``dict[str, float]``:
  ``rewards.weights.joint_vel: expected float, got str``);
- a dataclass declared ``init=False`` is filled field by field, without
  calling its ``__init__``;
- a field annotated ``Annotated[T, bound, ...]`` is coded as ``T``; each
  :class:`Bound` is a set its value must lie in, which a :class:`Bounded`
  config section checks as it is built (``ppo: iterations must be positive``,
  ``arch: critic_hidden[0] must be positive``).

Every decoding error is a ``ValueError`` that starts with the field's path,
e.g. ``policy.nets.trunk: missing``.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import types
import typing

import numpy as np

from .nets import NET_DTYPES, DenseNet, Layer, PackedArray

# 2: a packed array records its dtype, float32 or float64
NET_FORMAT_VERSION = 2
# the dtype a packed array records, little-endian, for each dtype it may hold
_PACKED_DTYPES = {dt.newbyteorder("<").str: dt for dt in NET_DTYPES}


def encode(obj, tp=None):
    """JSON values for ``obj``; ``tp`` is its annotation, which picks the array encoding."""
    tp = _unwrap_optional(tp)
    if isinstance(obj, DenseNet):
        return _encode_net(obj)
    if dataclasses.is_dataclass(obj):
        cls = type(obj)
        out = {}
        version = getattr(cls, "format_version", None)
        if version is not None:
            out["format_version"] = version
        hints = _hints(cls)
        for f in dataclasses.fields(cls):
            value = getattr(obj, f.name)
            if value is not None or f.default is not None:
                out[f.name] = encode(value, hints[f.name])
        return out
    if tp is PackedArray:
        return _pack(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    args = typing.get_args(tp)
    if isinstance(obj, (list, tuple)):
        return [encode(v, args[0] if args else None) for v in obj]
    if isinstance(obj, dict):
        return {k: encode(v, args[1] if args else None) for k, v in obj.items()}
    return obj


def decode(tp, data, path: str = ""):
    """Build a ``tp`` from the JSON values ``encode`` wrote; ``path`` names ``data`` in errors."""
    inner = _unwrap_optional(tp)
    if inner is not tp and data is None:
        return None
    tp = inner
    origin = typing.get_origin(tp) or tp
    args = typing.get_args(tp)
    if tp is DenseNet:
        return _decode_net(data, path)
    if tp is PackedArray:
        return _unpack(data, path)
    if tp is np.ndarray:
        return np.array(_expect(data, list, path))
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, data, path)
    if origin is list:
        items = _expect(data, list, path)
        return [decode(args[0] if args else None, v, f"{path}[{i}]") for i, v in enumerate(items)]
    if origin is tuple:
        items = _expect(data, list, path)
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise _error(path, f"expected {len(args)} values, got {len(items)}")
        return tuple(decode(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(args, items)))
    if origin is dict:
        entries = _expect(data, dict, path)
        return {k: decode(args[1] if args else None, v, _at(path, k)) for k, v in entries.items()}
    if tp in _SCALAR_KINDS:
        if not isinstance(data, _SCALAR_KINDS[tp]) or (tp is not bool and isinstance(data, bool)):
            raise _error(path, f"expected {tp.__name__}, got {type(data).__name__}")
    return data  # a scalar, or a value the annotation leaves untyped


class Bound(typing.NamedTuple):
    """A field's admissible set: ``holds(value)`` inside it; outside, the refusal is
    ``phrase`` formatted with ``name`` and ``value``, element by element if ``each``."""

    holds: typing.Callable[[typing.Any], bool]
    phrase: str
    each: bool = False


POSITIVE = Bound(lambda v: v > 0, "{name} must be positive")
NON_NEGATIVE = Bound(lambda v: v >= 0, "{name} must be non-negative")
EACH_POSITIVE, EACH_NON_NEGATIVE = (b._replace(each=True) for b in (POSITIVE, NON_NEGATIVE))
UNIT = Bound(lambda v: 0 <= v <= 1, "{name} must be in [0, 1]")
UNIT_OPEN = Bound(lambda v: 0 <= v < 1, "{name} must be in [0, 1)")
FINITE = Bound(np.isfinite, "{name} must be finite")
LOW_HIGH = Bound(lambda v: v[0] <= v[1],
                 "{name} must have low <= high, got [{value[0]}, {value[1]}]")


def one_of(values: tuple) -> Bound:
    return Bound(values.__contains__, f"{{name}} must be one of {values}, got {{value!r}}")


@functools.cache
def field_bounds(cls) -> tuple[tuple[str, Bound], ...]:
    """``(field, bound)`` for each bound ``cls``'s annotations declare, in field order."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((name, b) for name, tp in hints.items() for b in getattr(tp, "__metadata__", ()))


class Bounded:
    """A dataclass that checks each bound its fields declare as it is built; one
    with a cross-field rule checks that after calling this ``__post_init__``."""

    def __post_init__(self):
        for name, (holds, phrase, each) in field_bounds(type(self)):
            value = getattr(self, name)
            for i, v in enumerate(value if each else (value,)):
                if not holds(v):
                    raise ValueError(phrase.format(name=f"{name}[{i}]" if each else name, value=v))


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj``'s document to ``path``, keys sorted."""
    with open(path, "w") as f:
        json.dump(encode(obj), f, sort_keys=True, indent=indent)


def read_json(cls, path):
    """Read a ``cls`` document from ``path``."""
    with open(path) as f:
        return decode(cls, json.load(f))


# -- internals -------------------------------------------------------------------

# the JSON values each scalar annotation takes (a bool only where bool is annotated)
_SCALAR_KINDS = {int: int, float: (int, float), str: str, bool: bool}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _unwrap_optional(tp):
    """``X`` for an ``X | None`` annotation, else ``tp``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    return tp


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _error(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}" if path else message)


def _expect(data, kind: type, path: str):
    if not isinstance(data, kind):
        name = "an object" if kind is dict else "a list"
        raise _error(path, f"expected {name}, got {type(data).__name__}")
    return data


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise _error(_at(path, key), "missing")
    return data[key]


def _check_version(data: dict, version: int, path: str) -> None:
    found = _need(data, "format_version", path)
    if found != version:
        raise _error(_at(path, "format_version"),
                     f"unsupported version {found!r} (expected {version})")


def _default(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


def _decode_dataclass(cls, data, path: str):
    data = _expect(data, dict, path)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    version = getattr(cls, "format_version", None)
    unknown = sorted(set(data) - set(fields) - ({"format_version"} if version is not None else set()))
    if unknown:
        raise _error(path, f"unknown keys {unknown}")
    if version is not None:
        _check_version(data, version, path)
    hints = _hints(cls)
    values = {}
    for name, f in fields.items():
        if name not in data:
            values[name] = _default(f)
            if values[name] is dataclasses.MISSING:
                raise _error(_at(path, name), "missing")
            continue
        values[name] = decode(hints[name], data[name], _at(path, name))
    if not cls.__dataclass_params__.init:
        obj = cls.__new__(cls)
        obj.__dict__.update(values)
        return obj
    try:
        return cls(**values)
    except ValueError as e:  # a class's own check of its values
        raise _error(path, str(e)) from e


def _pack(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    if a.dtype not in NET_DTYPES:
        raise ValueError(f"a packed array is float32 or float64, not {a.dtype}")
    stored = a.dtype.newbyteorder("<")
    return {
        "shape": list(a.shape),
        "dtype": stored.str,
        "data": base64.b64encode(a.astype(stored, copy=False).tobytes()).decode("ascii"),
    }


def _unpack(data, path: str) -> np.ndarray:
    data = _expect(data, dict, path)
    shape, packed = _need(data, "shape", path), _need(data, "data", path)
    key = _need(data, "dtype", path)
    if key not in _PACKED_DTYPES:
        raise _error(_at(path, "dtype"), f"expected one of {sorted(_PACKED_DTYPES)}, got {key!r}")
    try:
        raw = base64.b64decode(packed)
        return np.frombuffer(raw, dtype=key).reshape(shape).astype(_PACKED_DTYPES[key])
    except (TypeError, ValueError) as e:
        raise _error(path, f"invalid packed array: {e}") from e


# A network is a shape manifest plus one flat array of its dtype in declared
# layer order (W0 row-major, b0, W1, b1, ...).


def _encode_net(net: DenseNet) -> dict:
    return {
        "manifest": {
            "format_version": NET_FORMAT_VERSION,
            "layers": [
                {"in": int(l.weight.shape[1]), "out": int(l.weight.shape[0]),
                 "activation": l.activation}
                for l in net.layers
            ],
        },
        "flat": _pack(np.concatenate([p.ravel() for p in net.params()])),
    }


def _decode_net(data, path: str) -> DenseNet:
    data = _expect(data, dict, path)
    manifest_path = _at(path, "manifest")
    manifest = _expect(_need(data, "manifest", path), dict, manifest_path)
    _check_version(manifest, NET_FORMAT_VERSION, manifest_path)
    flat = _unpack(_need(data, "flat", path), _at(path, "flat"))
    layers, pos = [], 0
    try:
        for spec in manifest["layers"]:
            n_in, n_out = spec["in"], spec["out"]
            w = flat[pos : pos + n_out * n_in].reshape(n_out, n_in).copy()
            pos += n_out * n_in
            b = flat[pos : pos + n_out].copy()
            pos += n_out
            layers.append(Layer(w, b, spec["activation"]))
        if pos != flat.size:
            raise ValueError(f"flat array has {flat.size} values, manifest expects {pos}")
        return DenseNet(layers)
    except (KeyError, TypeError, ValueError) as e:
        raise _error(path, f"invalid network: {e!r}") from e
