"""Versioned binary wire serialization for every protocol message.

A frame is ``b"RP"``, a wire-version byte and one tagged value: a tag
byte (``T_*``), then zigzag varint ints, varint-length UTF-8 strings,
varint-counted tuples/lists/sets/dicts/``CommandHistory`` items (sets
and dicts in canonical sorted order, so equal values encode to equal
bytes) or a message: its class *name* (1-byte length), a varint field
count and its ``__init__`` fields in order.  ``docs/transport.md`` has
the tag table.  Classes are named, not numbered, on the wire because
registration order differs between processes (``repro.net.node`` adds
the ``Ctl*`` messages when imported); :func:`register_message` builds
each class's encoder and decoder once.  Decoding calls the constructor,
so ``__post_init__`` validation runs on received data.  ``ANY``/``F_ANY``
encode by identity; ``CommandHistory`` is rebuilt against the receiver's
conflict relation (:class:`CodecContext`).  :func:`decode` raises
:class:`CodecError`, and nothing else, for any frame it cannot read.
"""

from __future__ import annotations

import struct
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable

from repro.core import checkpoint, liveness, messages, rounds, sessions
from repro.core.messages import ANY
from repro.cstruct import commands, cset, seq
from repro.cstruct.commands import ConflictRelation
from repro.cstruct.history import CommandHistory
from repro.protocols import classic, fast
from repro.protocols.fast import F_ANY
from repro.smr import instances

MAGIC = b"RP"
WIRE_VERSION = 2
HEADER = MAGIC + bytes([WIRE_VERSION])
HEADER_LEN = len(HEADER)
#: deepest container/message nesting a frame may carry (real traffic: < 10)
MAX_DEPTH = 64
#: longest varint: 70 bits, room for any zigzagged 64-bit digest
MAX_VARINT_BYTES = 10

T_NONE, T_FALSE, T_TRUE, T_INT, T_FLOAT, T_STR, T_ANY, T_F_ANY = range(8)
T_TUPLE, T_LIST, T_FROZENSET, T_SET, T_DICT, T_HISTORY, T_MSG = range(8, 15)

_DOUBLE = struct.Struct("!d")


class CodecError(ValueError):
    """Unknown type, malformed frame, or incompatible wire header."""


class CodecContext:
    """Receiver-side configuration the wire cannot carry: the conflict
    relation that rebuilds :class:`CommandHistory` payloads."""

    def __init__(self, conflict: ConflictRelation | None = None) -> None:
        self.conflict = conflict


_NO_CONTEXT = CodecContext()
_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {}
_CLASSES: dict[bytes, tuple[int, type]] = {}  # UTF-8 name -> (field count, class)
#: the last message encoded and its bytes.  A broadcast passes one object
#: to ``send`` per destination; sent messages are immutable (the simulator
#: shares them with every receiver), so identity implies equal bytes.
_LAST: tuple[Any, bytearray] = (None, bytearray())


# -- encoding ------------------------------------------------------------------


def _varint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put(obj: Any, out: bytearray) -> None:
    kind = type(obj)
    if kind is str:
        data = obj.encode()
        out.append(T_STR)
        _varint(out, len(data))
        out += data
    elif kind is int:
        zigzag = obj << 1 if obj >= 0 else ((-obj) << 1) - 1
        if zigzag >> (7 * MAX_VARINT_BYTES):
            raise CodecError(f"integer too large for the wire: {obj}")
        out.append(T_INT)
        _varint(out, zigzag)
    else:
        encoder = _ENCODERS.get(kind)
        if encoder is None:
            raise CodecError(f"no codec for {kind.__module__}.{kind.__name__}: {obj!r}")
        encoder(obj, out)


def _put_items(tag: int, items: Any, out: bytearray) -> None:
    out.append(tag)
    _varint(out, len(items))
    for item in items:
        _put(item, out)


def _sorted(items: Any) -> list:
    # Canonical order: never leak set/dict iteration order into bytes.
    return sorted(items, key=repr)  # protolint: ignore[determinism]


_ENCODERS.update({
    type(None): lambda obj, out: out.append(T_NONE),
    bool: lambda obj, out: out.append(T_TRUE if obj else T_FALSE),
    float: lambda obj, out: out.extend(bytes([T_FLOAT]) + _DOUBLE.pack(obj)),
    type(ANY): lambda obj, out: out.append(T_ANY),
    type(F_ANY): lambda obj, out: out.append(T_F_ANY),
    tuple: lambda obj, out: _put_items(T_TUPLE, obj, out),
    list: lambda obj, out: _put_items(T_LIST, obj, out),
    frozenset: lambda obj, out: _put_items(T_FROZENSET, _sorted(obj), out),
    set: lambda obj, out: _put_items(T_SET, _sorted(obj), out),
    dict: lambda obj, out: _put_items(T_DICT, [y for k in _sorted(obj) for y in (k, obj[k])], out),
    CommandHistory: lambda obj, out: _put_items(T_HISTORY, obj.linear_extension(), out),
})


# -- decoding ------------------------------------------------------------------


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = shift = 0
    for _ in range(MAX_VARINT_BYTES):
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
    raise CodecError(f"varint longer than {MAX_VARINT_BYTES} bytes")


def _dict_of(*flat: Any) -> dict:
    if len(flat) % 2:
        raise CodecError("dict with an odd number of keys and values")
    return dict(zip(flat[::2], flat[1::2]))


_CONSTANTS = {T_NONE: None, T_FALSE: False, T_TRUE: True, T_ANY: ANY, T_F_ANY: F_ANY}
#: container tag -> builder, called with the items spread (like a class)
_BUILDERS: dict[int, Callable[..., Any]] = {
    T_TUPLE: lambda *items: items,
    T_LIST: lambda *items: list(items),
    T_FROZENSET: lambda *items: frozenset(items),
    T_SET: lambda *items: set(items),
    T_DICT: _dict_of,
}


def _read_value(buf: bytes, pos: int, ctx: CodecContext) -> tuple[Any, int]:
    """The value at *pos* and the position after it.

    Iterative: open containers wait on an explicit stack, so a hostile
    frame hits :data:`MAX_DEPTH`, never the interpreter's recursion limit.
    One-byte varints, nearly all of them, are read inline.
    """
    size = len(buf)
    stack: list = []
    build: Callable[..., Any] | None = None  # innermost open container
    items: list = []
    left = arity = 0
    while True:
        tag = buf[pos]
        if tag == T_INT or tag == T_STR:  # a varint follows
            number = buf[pos + 1]
            pos += 2
            if number >= 0x80:
                number, pos = _read_varint(buf, pos - 1)
            if tag == T_INT:
                value = ~(number >> 1) if number & 1 else number >> 1
            else:
                if pos + number > size:
                    raise CodecError(f"string of {number} bytes overruns the frame")
                value = buf[pos : pos + number].decode()
                pos += number
        elif tag < T_TUPLE:  # a float or a constant
            if tag == T_FLOAT:
                (value,) = _DOUBLE.unpack_from(buf, pos + 1)
                pos += 9
            else:
                value = _CONSTANTS[tag]
                pos += 1
        else:  # a container or a message
            if tag == T_MSG:  # class names are under 128 bytes: 1-byte length
                end = pos + 2 + buf[pos + 1]
                label = buf[pos + 2 : end]
                if label not in _CLASSES:
                    raise CodecError(f"unknown message class {label!r}")
                arity, opened = _CLASSES[label]
                pos = end - 1
            elif tag in _BUILDERS:
                opened = _BUILDERS[tag]
            elif tag == T_HISTORY and ctx.conflict is not None:
                conflict = ctx.conflict
                opened = lambda *cmds: CommandHistory.of(conflict, *cmds)  # noqa: E731
            elif tag == T_HISTORY:
                raise CodecError("CommandHistory needs a CodecContext conflict relation")
            else:
                raise CodecError(f"unknown wire tag {tag} at offset {pos}")
            count = buf[pos + 1]
            pos += 2
            if count >= 0x80:
                count, pos = _read_varint(buf, pos - 1)
            if tag == T_MSG and count != arity:
                raise CodecError(f"{opened.__name__} carries {count} fields, not {arity}")
            if count > size - pos:
                raise CodecError(f"count {count} exceeds the {size - pos} bytes left")
            if len(stack) >= MAX_DEPTH:
                raise CodecError(f"nesting deeper than {MAX_DEPTH}")
            if count:
                stack.append((build, items, left))
                build, items, left = opened, [], count
                continue
            value = opened()
        # Hand the value to its container, closing every one it completes.
        while build is not None:
            items.append(value)
            left -= 1
            if left:
                break
            value = build(*items)
            build, items, left = stack.pop()
        else:
            return value, pos


# -- registration --------------------------------------------------------------


def register_message(cls: type) -> type:
    """Register one frozen dataclass for wire transport, by class name.

    The encoder built here writes a precomputed name/field-count head and
    then the ``__init__`` fields; the decoder checks the count and calls
    ``cls`` with the fields.
    """
    label = cls.__name__.encode()
    existing = _CLASSES.get(label, (0, cls))[1]
    if existing is not cls:
        raise CodecError(f"codec name collision: {cls.__name__} ({existing} vs {cls})")
    if len(label) >= 0x80:
        raise CodecError(f"class name too long for the wire: {cls.__name__}")
    names = [f.name for f in fields(cls) if f.init]
    if len(names) > 1:
        values = attrgetter(*names)
    else:
        values = lambda obj: tuple(getattr(obj, n) for n in names)  # noqa: E731
    head = bytearray([T_MSG, len(label)]) + label
    _varint(head, len(names))

    def encode_fields(obj: Any, out: bytearray) -> None:
        global _LAST
        last = _LAST
        if obj is last[0]:
            out += last[1]
            return
        start = len(out)
        out += head
        for value in values(obj):
            _put(value, out)
        _LAST = (obj, out[start:])

    _ENCODERS[cls] = encode_fields
    _CLASSES[label] = (len(names), cls)
    return cls


def register_module(module: Any) -> list[str]:
    """Register every frozen dataclass *defined* in *module*."""
    return [
        register_message(obj).__name__
        for _name, obj in sorted(vars(module).items())
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and is_dataclass(obj)
        and obj.__dataclass_params__.frozen
    ]


def registered_names() -> frozenset[str]:
    """Every type name the codec can put on the wire."""
    return frozenset(label.decode() for label in _CLASSES)


for _module in (messages, liveness, checkpoint, rounds, sessions, instances, classic, fast,
                commands, seq, cset):
    register_module(_module)


# -- framing-free encode/decode ------------------------------------------------


def encode(obj: Any) -> bytes:
    """One message object -> one versioned wire payload."""
    out = bytearray(HEADER)
    _put(obj, out)
    return bytes(out)


def decode(data: bytes, context: CodecContext | None = None) -> Any:
    """One wire payload -> the value it encodes; :class:`CodecError` if malformed."""
    if data[:HEADER_LEN] != HEADER:
        if data[: len(MAGIC)] != MAGIC or len(data) < HEADER_LEN:
            raise CodecError("bad magic: not a repro wire frame")
        raise CodecError(f"wire version {data[len(MAGIC)]} != supported {WIRE_VERSION}")
    try:
        value, pos = _read_value(data, HEADER_LEN, context or _NO_CONTEXT)
    except CodecError:
        raise
    except Exception as exc:  # noqa: BLE001 - truncation, or a class refusing its fields
        raise CodecError(f"malformed frame: {exc!r}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after the value")
    return value
