"""The wire codec of the wall runtime: tagged records of builtins.

A frame on a :class:`~repro.runtime.tcpnet.TcpChannel` socket is::

    4-byte big-endian length | 1 version byte | pickle.dumps(record, 5)

where the length counts the version byte and the pickle.  The record is
built from builtins only — None, bool, int, float, str, bytes, tuple,
list, dict, set, frozenset — by :func:`encode`:

* a builtin scalar, list, dict, set or frozenset travels as itself, and
  what it holds must be builtins too;
* a tuple travels as ``(TUPLE, item, ...)``, each item encoded in turn;
* an object of a registered type travels as ``(tag, field, ...)``.

:data:`WIRE_TYPES` is the one table of registered types.  A dataclass
sends all its fields in declaration order; the fields its entry names
may hold registered types or tuples and are encoded in turn, every other
field must hold builtins and travels as it is.  Decoding refills a new
instance's ``__dict__`` from the fields, as pickle itself rebuilds a
dataclass, without calling ``__init__``.  A ``NamedTuple`` sends each
field as a tuple sends its items and is rebuilt by ``_make``, so a
record with a field missing or extra raises.  A type listed with a pair
of functions instead sends the one builtin value the first returns and
is rebuilt by the second; durable types reuse their text forms
(``LogRecord.to_line`` / ``Checkpoint.to_json``), so every type has
exactly one encoding.  Sending anything else raises :class:`TypeError`
at the sender — a non-builtin inside a list, dict or set as well, since
the pickler refuses every object that is not a builtin.

Decoding never resolves a global: the unpickler's ``find_class`` refuses
every name, so no frame can reach a callable.  An unknown version, an
unknown tag, a global, or a record that does not rebuild raises, which
:class:`~repro.runtime.tcpnet.TcpNetwork` turns into a channel break.
The codec guarantees that no code runs on a peer's bytes and that every
malformed frame fails closed; it does not bound the work of decoding a
well-formed frame, so the peers themselves are trusted.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import struct
import threading
import types
from operator import attrgetter
from typing import Any, Callable

from repro.core.protocol import (
    CommitReq,
    CommitResp,
    DdlMessage,
    ExecuteReq,
    ExecuteResp,
    InquireReq,
    InquireResp,
    ProcMessage,
    ProcRequest,
    ProcResp,
    ReplicaStatus,
    RollbackReq,
    RollbackResp,
    SyncMessage,
    Transfer,
    WritesetMessage,
)
from repro.core.validation import Certifier, WsRecord
from repro.durable.checkpoint import Checkpoint
from repro.durable.log import LogRecord
from repro.gcs.multicast import Batch, Message, Multicast, ViewChange
from repro.obs.trace import TraceContext
from repro.storage.writeset import WriteOp, WriteSet

#: format version carried by every frame; bump it when a tag or a
#: type's fields change
VERSION = 5
#: tag of a plain tuple
TUPLE = 0

#: Every type that crosses a channel: type -> (tag, fields).  A
#: dataclass lists the fields that are encoded in turn (a NamedTuple
#: none: all are); any other type lists its pair of to-builtin /
#: from-builtin functions.  Tags are part of the format: never reuse one.
WIRE_TYPES: dict[type, tuple[int, tuple]] = {
    # the client protocol (core/protocol.py)
    ExecuteReq: (1, ("ctx",)),
    ExecuteResp: (2, ()),
    CommitReq: (3, ()),
    CommitResp: (4, ()),
    RollbackReq: (5, ()),
    RollbackResp: (6, ()),
    InquireReq: (7, ()),
    InquireResp: (8, ()),
    ProcRequest: (9, ()),
    ProcResp: (10, ()),
    Transfer: (12, ("records", "image", "pending")),  # 11 retired in version 5
    # group communication: member -> bus, and the ordered items back
    Multicast: (20, ("payload",)),
    Message: (21, ("payload",)),
    Batch: (22, ("entries",)),
    ViewChange: (23, ()),
    # the replication messages they carry (core/protocol.py)
    WritesetMessage: (24, ()),
    SyncMessage: (25, ()),
    DdlMessage: (26, ()),
    ProcMessage: (27, ()),
    # the control plane: what a replica reports (core/protocol.py)
    ReplicaStatus: (28, ()),
    # inside payloads
    WriteSet: (30, (WriteSet.to_wire, WriteSet.from_wire)),
    WriteOp: (31, ()),
    TraceContext: (32, ()),
    # inside recovery transfers
    WsRecord: (40, ("writeset",)),
    Certifier: (41, (Certifier.to_wire, Certifier.from_wire)),
    LogRecord: (42, (LogRecord.to_line, LogRecord.from_line)),
    Checkpoint: (43, (Checkpoint.to_json, Checkpoint.from_json)),
}

#: builtins that travel as themselves
_LEAVES = frozenset({
    type(None), bool, int, float, str, bytes, list, dict, set, frozenset,
})
_new = object.__new__


def encode(value: Any) -> Any:
    """``value`` as a record of builtins (see the module docstring)."""
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is tuple:
        return (TUPLE, *[
            item if type(item) in _LEAVES else encode(item) for item in value
        ])
    encoder = _ENCODERS.get(kind)
    if encoder is None:
        raise TypeError(f"{kind.__qualname__} is not a wire type")
    return encoder(value)


def _decode_tuple(record: tuple) -> tuple:
    return tuple([
        _DECODERS[item[0]](item) if type(item) is tuple else item
        for item in record[1:]
    ])


def _codecs(cls: type, tag: int, fields: tuple) -> tuple[Callable, Callable]:
    """The encoder and decoder of one :data:`WIRE_TYPES` entry."""
    if issubclass(cls, tuple):
        make = cls._make
        return (
            lambda obj: (tag, *[
                item if type(item) in _LEAVES else encode(item) for item in obj
            ]),
            lambda record: make(_decode_tuple(record)),
        )
    if fields and callable(fields[0]):
        to_builtin, from_builtin = fields
        return (
            lambda obj: (tag, to_builtin(obj)),
            lambda record: from_builtin(*record[1:]),
        )
    names = tuple(field.name for field in dataclasses.fields(cls))
    size = 1 + len(names)
    get = attrgetter(*names)
    if len(names) == 1:
        only = get
        get = lambda obj: (only(obj),)  # noqa: E731 - attrgetter of one name
    #: (record position, name) of each field encoded in turn
    nested = [(1 + names.index(name), name) for name in fields]

    def encode_fields(obj) -> tuple:
        if not nested:
            return (tag, *get(obj))
        values = [tag, *get(obj)]
        for index, _name in nested:
            value = values[index]
            if type(value) not in _LEAVES:
                values[index] = encode(value)
        return tuple(values)

    def decode_fields(record: tuple):
        if len(record) != size:
            raise ValueError(f"{cls.__name__} record of {len(record)} items")
        obj = _new(cls)
        attrs = obj.__dict__
        attrs.update(zip(names, record[1:]))
        for index, name in nested:
            value = record[index]
            if type(value) is tuple:
                attrs[name] = _DECODERS[value[0]](value)
        return obj

    return encode_fields, decode_fields


_ENCODERS: dict[type, Callable[[Any], tuple]] = {}
_DECODERS: dict[int, Callable[[tuple], Any]] = {TUPLE: _decode_tuple}
for _cls, (_tag, _fields) in WIRE_TYPES.items():
    if _tag in _DECODERS:
        raise ValueError(f"wire tag {_tag} used twice")
    _ENCODERS[_cls], _DECODERS[_tag] = _codecs(_cls, _tag, _fields)


# -- bytes ---------------------------------------------------------------------


class _Pickler(pickle.Pickler):
    """Pickles builtins only.

    The C pickler handles every builtin itself and consults
    ``reducer_override`` only for other objects, so this guard costs
    nothing until it fires.
    """

    def reducer_override(self, obj):
        raise TypeError(
            f"{type(obj).__qualname__} cannot travel inside a list, dict or"
            " set: only builtins can"
        )


class _Writer(threading.local):
    """One pickler per thread, reused: building a pickler costs more
    than pickling a small record.  It writes into a list, so taking the
    output is one join.  Nothing outlives a :func:`frame` call: the
    memo and the list are cleared before it returns or raises."""

    def __init__(self) -> None:
        chunks: list[bytes] = []
        sink = types.SimpleNamespace(write=chunks.append)
        self.state = (chunks, _Pickler(sink, 5))


_writer = _Writer()
_HEADER = struct.Struct(">IB")
_VERSION_BYTE = bytes([VERSION])


def frame(obj: Any) -> bytes:
    """The whole frame for ``obj``: length, version byte, pickled record."""
    encoder = _ENCODERS.get(type(obj))  # the common case skips encode()
    record = encode(obj) if encoder is None else encoder(obj)
    chunks, pickler = _writer.state
    try:
        pickler.dump(record)
        data = b"".join(chunks)
    finally:
        pickler.clear_memo()
        chunks.clear()
    return _HEADER.pack(len(data) + 1, VERSION) + data


class _Unpickler(pickle.Unpickler):
    """Loads builtins only: no frame can name a class or a function."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"global {module}.{name} refused")


def unframe(body) -> Any:
    """Decode one frame body (everything after the length header), given
    as any bytes-like object; nothing decoded refers to ``body``."""
    stream = io.BytesIO(body)
    if stream.read(1) != _VERSION_BYTE:
        raise ValueError(f"unknown codec version {bytes(body[:1])!r}")
    record = _Unpickler(stream).load()
    if type(record) is tuple:
        return _DECODERS[record[0]](record)
    return record
