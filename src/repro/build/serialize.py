"""Stable, versioned serialization for build artifacts.

``UObject`` (the pre-link compilation unit) and ``Binary`` (the linked
program) both get a canonical byte representation through one codec
driven by the dataclasses' own field annotations:

* the envelope is canonical JSON (sorted keys, compact separators,
  ASCII): the artifact's fields plus a ``format`` version tag and a
  ``kind`` discriminator;
* a record (``BuildConfig``, ``IRGlobal``, ``ExternSig``, ``Mem``, ...)
  is an object of exactly its fields; an ISA instruction, whose
  annotation is only ``Insn``, is a tagged node ``{"$": <class>, "f":
  {<field>: <value>}}``, so the format tracks the ISA definition;
* taints are tagged (they must decode to real ``Taint`` members, which
  the linker compares by identity), byte strings are hex-encoded, and
  dicts are pair lists (the linker places globals in insertion order).

Decoding is typed: every value is checked against its field's
annotation (``int`` is never ``bool``; a ``Literal`` field holds one
of its values, so ``config.scheme`` is "mpx", "seg" or null; lists,
pair-list dicts, tuples, unions and nested records are checked element
by element), and a record must carry exactly its class's fields.  Any
mismatch raises :class:`SerializeError` naming its path
(``binary.code[17].f.mem.base``), so what ConfVerify and the loader read from :func:`load_binary` is
well-typed down to instruction operands.  A binary stores nothing a
reader can derive: its layout follows from ``config`` and the two
globals sizes (``Binary.layout``).

Canonical bytes give the project its equality oracle: two artifacts are
*bit-identical* iff their dumps compare equal, which is what the
cold/warm-cache determinism tests pin.

The same canonical encoding powers content addressing:
:func:`source_hash`, :func:`config_fingerprint`, and
:func:`object_cache_key` derive the cache key (format version, source
hash, config fingerprint, seed) used by
:class:`repro.build.cache.ObjectCache`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing

from ..backend import isa
from ..config import BuildConfig
from ..errors import ReproError
from ..link.objfile import Binary, UObject
from ..taint.lattice import Taint

#: Bump whenever the encoded shape of any artifact changes; cached
#: objects written under a different version are never read back.
#: v2: binaries carry the ``check_sites`` map (addr -> check category).
#: v3: BuildConfig gained the ``checkopt`` level (part of the config
#: fingerprint, so differently-checkopted units never share a cache
#: entry).
#: v4: artifacts drop every field a reader can compute: binaries lose
#: ``check_sites``, ``function_order`` and the externals table (its
#: address, contents and read-only range; the loader builds it), and
#: compiled functions lose ``entry_bits`` and ``n_args``.
#: v5: one typed codec: records are plain objects of their fields, dicts
#: pair lists; binaries keep only the two globals sizes of their layout,
#: and signatures lose their unread MiniC type.
FORMAT_VERSION = 5


class SerializeError(ReproError):
    """An artifact could not be encoded or decoded."""


#: The concrete instructions a field typed ``Insn`` may hold, by tag.
_INSNS = {
    cls.__name__: cls
    for cls in vars(isa).values()
    if isinstance(cls, type)
    and issubclass(cls, isa.Insn)
    and dataclasses.is_dataclass(cls)
}

_SCALARS = (int, str, bool, type(None))


@functools.cache
def _fields(cls: type) -> dict:
    """``cls``'s dataclass fields and their resolved annotations."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _enc(value):
    if isinstance(value, Taint):
        return {"$": "Taint", "v": int(value)}
    if isinstance(value, bytes):
        return {"$": "bytes", "h": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_enc(item) for item in value]
    if isinstance(value, dict):
        return [[key, _enc(item)] for key, item in value.items()]
    if dataclasses.is_dataclass(value):
        fields = {
            name: _enc(getattr(value, name)) for name in _fields(type(value))
        }
        if isinstance(value, isa.Insn):
            return {"$": type(value).__name__, "f": fields}
        return fields
    if isinstance(value, _SCALARS):
        return value
    raise SerializeError(
        f"cannot serialize {type(value).__name__}: {value!r}"
    )


def _node(value, key: str) -> tuple:
    """The ``(tag, payload)`` of a ``{"$": tag, key: payload}`` node."""
    if isinstance(value, dict) and value.keys() == {"$", key}:
        return value["$"], value[key]
    return None, None


def _dec(value, hint, path: str):
    """``value`` decoded as, and checked against, the annotation
    ``hint``; ``path`` names it in errors."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        # The arms differ in JSON shape: an object, one scalar type, or
        # literals of one scalar type.
        arms = [
            arm for arm in args
            if (arm not in _SCALARS if isinstance(value, dict)
                else type(value) in (arm, *map(type, typing.get_args(arm))))
        ]
        if arms:
            return _dec(value, arms[0], path)
    elif origin is typing.Literal:
        if any(type(value) is type(arm) and value == arm for arm in args):
            return value
    elif origin is list and type(value) is list:
        return [
            _dec(item, args[0], f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    elif origin is tuple and type(value) is list and len(value) == len(args):
        return tuple(
            _dec(item, arm, f"{path}[{index}]")
            for index, (item, arm) in enumerate(zip(value, args))
        )
    elif origin is dict and type(value) is list:
        pairs = _dec(value, list[tuple[args]], path)
        decoded = dict(pairs)
        if len(decoded) == len(pairs):
            return decoded
        raise SerializeError(f"{path}: duplicate key")
    elif hint is Taint:
        tag, bit = _node(value, "v")
        if tag == "Taint" and type(bit) is int and bit in tuple(Taint):
            return Taint(bit)
    elif hint is bytes:
        tag, digits = _node(value, "h")
        if tag == "bytes" and type(digits) is str:
            try:
                return bytes.fromhex(digits)
            except ValueError:
                pass
    elif hint is isa.Insn:
        tag, fields = _node(value, "f")
        if isinstance(tag, str) and tag in _INSNS:
            return _record(_INSNS[tag], fields, f"{path}.f")
    elif dataclasses.is_dataclass(hint):
        return _record(hint, value, path)
    elif hint in _SCALARS and type(value) is hint:
        return value
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise SerializeError(
        f"{path}: expected {name}, got {type(value).__name__}"
    )


def _record(cls: type, value, path: str):
    """An instance of the dataclass ``cls`` from an object of exactly
    its fields."""
    fields = _fields(cls)
    if not isinstance(value, dict):
        raise SerializeError(
            f"{path}: expected {cls.__name__}, got {type(value).__name__}"
        )
    if value.keys() != fields.keys():
        raise SerializeError(
            f"{path}: not the fields of {cls.__name__} (unknown "
            f"{sorted(value.keys() - fields.keys())}, missing "
            f"{sorted(fields.keys() - value.keys())})"
        )
    kwargs = {
        name: _dec(value[name], hint, f"{path}.{name}")
        for name, hint in fields.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as error:  # a __post_init__ check
        raise SerializeError(f"{path}: {error}") from None


# ---------------------------------------------------------------------------
# Canonical envelope.

def _canon(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _dump(kind: str, artifact) -> bytes:
    return _canon({"format": FORMAT_VERSION, "kind": kind, **_enc(artifact)})


def _load(data: bytes, kind: str, cls: type):
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as error:
        raise SerializeError(f"corrupt {kind} artifact: {error}") from None
    if not isinstance(doc, dict):
        raise SerializeError(f"corrupt {kind} artifact: not an object")
    version = doc.pop("format", None)
    if version != FORMAT_VERSION:
        raise SerializeError(
            f"unsupported {kind} format version {version!r} "
            f"(this toolchain writes v{FORMAT_VERSION})"
        )
    found = doc.pop("kind", None)
    if found != kind:
        raise SerializeError(
            f"artifact kind mismatch: expected {kind!r}, got {found!r}"
        )
    return _record(cls, doc, kind)


def dump_uobject(obj: UObject) -> bytes:
    """Serialize a pre-link compilation unit to canonical bytes."""
    return _dump("uobject", obj)


def load_uobject(data: bytes) -> UObject:
    """Reconstruct a compilation unit from :func:`dump_uobject` bytes."""
    return _load(data, "uobject", UObject)


def dump_binary(binary: Binary) -> bytes:
    """Serialize a linked binary to canonical bytes.

    Byte equality of two dumps is the determinism contract's definition
    of "bit-identical binaries".
    """
    return _dump("binary", binary)


def load_binary(data: bytes) -> Binary:
    """Reconstruct a linked, loadable binary from :func:`dump_binary`.

    Besides the typed decoding, each magic prefix ConfVerify starts from
    must fit in 59 bits."""
    binary = _load(data, "binary", Binary)
    for key in ("mcall_prefix", "mret_prefix"):
        prefix = getattr(binary, key)
        if not 0 <= prefix < 1 << isa.MAGIC_PREFIX_BITS:
            raise SerializeError(
                f"binary {key} is not a 59-bit int: {prefix!r}"
            )
    return binary


# ---------------------------------------------------------------------------
# Content addressing.

def _hexdigest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_hash(source: str) -> str:
    """Content hash of one compilation unit's source text."""
    return _hexdigest(source.encode())


def config_fingerprint(config: BuildConfig) -> str:
    """Content hash of every field of a build configuration."""
    return _hexdigest(_canon(_enc(config)))


def object_cache_key(
    source: str,
    config: BuildConfig,
    seed: int | None,
    allow_undefined: bool = False,
) -> str:
    """The content-addressed cache key for one compiled unit.

    Key components: serialization format version, source hash, config
    fingerprint, link seed, and the separate-compilation mode flag.
    Distinct configs and distinct seeds can never collide — each
    component is hashed into the digest.
    """
    parts = "\0".join(
        (
            f"v{FORMAT_VERSION}",
            source_hash(source),
            config_fingerprint(config),
            repr(seed),
            repr(bool(allow_undefined)),
        )
    )
    return _hexdigest(parts.encode())
