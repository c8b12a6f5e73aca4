"""The wire codec: every registered type round-trips, bad frames fail closed.

:mod:`repro.runtime.codec` turns everything that crosses a
:class:`TcpChannel` into a tagged record of builtins and decodes frames
with an unpickler that resolves no global.  These tests hold it to that:

* every registered type, and nested builtins, round-trip field by field
  (Hypothesis), and so do real recovery transfers captured from a
  simulated cluster;
* truncated, bit-flipped and spliced frames either decode to a wire
  value or break the channel, freeing every I/O token, and nothing
  raises into the loop;
* a frame naming a global breaks the channel without the global ever
  being resolved, and an unknown tag or version breaks it too, as does a
  replication message with a field missing or extra;
* a fan-out encodes its item once and writes those bytes to every
  member, and every replication message arrives as its own type.
"""

import dataclasses
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.validation import Certifier, WsRecord
from repro.durable import DurabilityConfig
from repro.durable.checkpoint import Checkpoint
from repro.durable.log import LogRecord
from repro.gcs.multicast import Batch, Message, Multicast, ViewChange
from repro.net import ChannelClosed
from repro.obs.trace import TraceContext
from repro.runtime import TcpGroupBus, TcpNetwork, WallRuntime, codec, tcpnet
from repro.storage.writeset import WriteOp, WriteSet

WATCHDOG_S = 10.0


# -- comparing decoded values --------------------------------------------------


def same(a, b) -> bool:
    """Equal and of the same type, field by field; a ``WriteSet`` is
    compared by its ops and a ``Certifier`` by its decision state."""
    if type(a) is not type(b):
        return False
    if isinstance(a, WriteSet):
        return a.ops == b.ops
    if isinstance(a, Certifier):
        return a.to_wire() == b.to_wire()
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def roundtrip(obj):
    data = tcpnet._frame(obj)
    assert int.from_bytes(data[:4], "big") == len(data) - 4
    assert data[4] == codec.VERSION
    return codec.unframe(data[4:])


# -- strategies ----------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
hashables = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner), max_leaves=6
)
#: builtins as protocol code builds them: any nesting of containers
builtins = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.sets(hashables, max_size=4),
    ),
    max_leaves=12,
)
names = st.text(min_size=1, max_size=8)
keys = st.tuples(names, st.integers())
#: JSON-exact values, for what the durable text forms carry
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False,
    allow_infinity=False), st.text(max_size=8),
)
rows = st.dictionaries(names, json_scalars, max_size=4)

trace_contexts = st.builds(
    TraceContext, names, st.integers(), st.none() | st.integers()
)
write_ops = st.builds(
    WriteOp,
    names,
    st.integers() | names,
    st.sampled_from(["insert", "update", "delete"]),
    st.none() | rows,
)
writesets = st.lists(write_ops, max_size=5).map(WriteSet)
ws_records = st.builds(
    WsRecord,
    gid=names,
    writeset=writesets,
    cert=st.integers(),
    sender=names,
    tid=st.none() | st.integers(),
    readset=st.frozensets(keys, max_size=3),
    blind=st.frozensets(keys, max_size=3),
    salvaged=st.booleans(),
)


@st.composite
def certifiers(draw):
    certifier = Certifier(salvage=draw(st.booleans()))
    certifier.last_validated_tid = draw(st.integers(min_value=0))
    certifier._last_writer = draw(st.dictionaries(keys, st.integers(), max_size=4))
    certifier._deleted = draw(st.sets(keys, max_size=3))
    for counter in ("floor", "validated", "rejected", "salvaged",
                    "salvage_rejects", "gc_runs", "gc_collected", "floor_aborts"):
        setattr(certifier, counter, draw(st.integers(min_value=0)))
    return certifier


json_write_ops = st.builds(
    WriteOp, names, st.integers() | names,
    st.sampled_from(["insert", "update", "delete"]), st.none() | rows,
)
log_records = st.one_of(
    st.builds(LogRecord.ws, st.integers(), names, st.integers(), names,
              st.lists(json_write_ops, max_size=4)),
    st.builds(LogRecord.ddl, st.integers(), st.text(max_size=20)),
    st.builds(LogRecord.load, st.integers(), names, st.lists(rows, max_size=3)),
)
checkpoints = st.builds(
    Checkpoint,
    seq=st.integers(),
    cert_seq=st.integers(),
    applied_beyond=st.lists(st.integers(), max_size=3).map(tuple),
    csn=st.integers(),
    ddl=st.lists(st.text(max_size=20), max_size=2).map(tuple),
    rows=st.dictionaries(names, st.lists(rows, max_size=3), max_size=2),
    cert_tid=st.integers(),
    cert_last_writer=st.dictionaries(keys, st.integers(), max_size=3),
    outcomes=st.dictionaries(names, st.sampled_from(["committed", "aborted"])),
    nbytes=st.integers(min_value=0),
    cert_deleted=st.lists(keys, max_size=2).map(tuple),
    cert_floor=st.integers(),
)
#: the replication messages (core/protocol.py), one strategy per type
writeset_messages = st.builds(
    protocol.WritesetMessage, gid=names, writeset=writesets, cert=st.integers(),
    sender=names, ctx=st.none() | trace_contexts,
    readset=st.frozensets(keys, max_size=3), blind=st.frozensets(keys, max_size=3),
    rehome=st.booleans(), scount=st.integers(), acked=st.integers(),
)
sync_messages = st.builds(
    protocol.SyncMessage, target=names, donor=names,
    from_seq=st.none() | st.integers(),
)
ddl_messages = st.builds(
    protocol.DdlMessage, ddl_id=st.integers(), sender=names, sql=st.text(max_size=30),
)
proc_messages = st.builds(
    protocol.ProcMessage, rid=names, proc=names,
    params=st.lists(scalars, max_size=3).map(tuple), origin=names,
)
#: the control plane's status record: builtins only
replica_statuses = st.builds(protocol.ReplicaStatus, **{
    **dict.fromkeys(protocol.ReplicaStatus._fields, st.integers()),
    **dict.fromkeys(("alive", "recovered"), st.booleans()),
    **dict.fromkeys(
        ("group_commit_mean_size", "hole_wait_fraction", "cpu_utilization",
         "oldest_hole_age"),
        st.floats(allow_nan=False),
    ),
    "recovery": st.dictionaries(names, scalars, max_size=3),
    "can_replay": st.none() | st.booleans(),
    "checkpoints_unreadable": st.none() | st.lists(names, max_size=2).map(tuple),
})
#: what a multicast payload may hold: builtins, and wire types in tuples
payloads = st.recursive(
    builtins | writesets | trace_contexts | writeset_messages | sync_messages
    | ddl_messages | proc_messages,
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=8,
)
messages = st.builds(
    Message, st.integers(), names, payloads, st.integers(),
    st.floats(allow_nan=False), st.floats(allow_nan=False),
)
errors = st.none() | st.tuples(names, st.text(max_size=12))
member_tuples = st.lists(names, max_size=3).map(tuple)

#: one strategy per registered type
WIRE_STRATEGIES = {
    protocol.ExecuteReq: st.builds(
        protocol.ExecuteReq, st.integers(), st.text(max_size=30),
        st.lists(scalars, max_size=3).map(tuple), st.none() | names,
        st.none() | st.integers(), st.none() | trace_contexts,
    ),
    protocol.ExecuteResp: st.builds(
        protocol.ExecuteResp, st.integers(), st.booleans(), st.none() | names,
        st.none() | st.lists(rows, max_size=3),
        st.lists(names, max_size=3).map(tuple), st.integers(), errors,
        st.none() | st.integers(),
    ),
    protocol.CommitReq: st.builds(protocol.CommitReq, st.integers()),
    protocol.CommitResp: st.builds(
        protocol.CommitResp, st.integers(), st.sampled_from(["committed", "aborted"]),
        errors, st.booleans(), st.none() | st.integers(),
    ),
    protocol.RollbackReq: st.builds(protocol.RollbackReq, st.integers()),
    protocol.RollbackResp: st.builds(protocol.RollbackResp, st.integers()),
    protocol.InquireReq: st.builds(protocol.InquireReq, st.integers(), names, names),
    protocol.InquireResp: st.builds(
        protocol.InquireResp, st.integers(), names, errors
    ),
    protocol.ProcRequest: st.builds(
        protocol.ProcRequest, st.integers(), names,
        st.lists(scalars, max_size=3).map(tuple), st.booleans(),
    ),
    protocol.ProcResp: st.builds(
        protocol.ProcResp, st.integers(), names,
        st.none() | st.lists(rows, max_size=2), errors,
    ),
    protocol.StateTransfer: st.builds(
        protocol.StateTransfer, names, st.lists(st.text(max_size=20),
        max_size=2).map(tuple), st.dictionaries(names, st.lists(rows, max_size=2),
        max_size=2), certifiers(), st.lists(ws_records, max_size=2).map(tuple),
        st.dictionaries(names, names, max_size=2), st.integers(), st.integers(),
    ),
    protocol.DeltaTransfer: st.builds(
        protocol.DeltaTransfer, names, st.integers(),
        st.lists(log_records, max_size=3).map(tuple),
        st.dictionaries(names, names, max_size=2), st.none() | checkpoints,
    ),
    protocol.WritesetMessage: writeset_messages,
    protocol.SyncMessage: sync_messages,
    protocol.DdlMessage: ddl_messages,
    protocol.ProcMessage: proc_messages,
    protocol.ReplicaStatus: replica_statuses,
    Multicast: st.builds(
        Multicast, payloads, st.booleans(), st.floats(allow_nan=False)
    ),
    Message: messages,
    Batch: st.builds(
        Batch, st.lists(messages, min_size=1, max_size=3).map(tuple),
        st.integers(), st.floats(allow_nan=False), st.floats(allow_nan=False),
    ),
    ViewChange: st.builds(
        ViewChange, st.integers(), st.integers(), member_tuples,
        member_tuples, member_tuples,
    ),
    WriteSet: writesets,
    WriteOp: write_ops,
    TraceContext: trace_contexts,
    WsRecord: ws_records,
    Certifier: certifiers(),
    LogRecord: log_records,
    Checkpoint: checkpoints,
}


# -- (a) round trips -------------------------------------------------------------


def test_every_registered_type_has_a_strategy():
    assert set(WIRE_STRATEGIES) == set(codec.WIRE_TYPES)


def test_every_protocol_message_is_registered():
    """Every class core/protocol.py declares — the client protocol's
    dataclasses and the replication messages' NamedTuples — is a wire
    type."""
    declared = {
        value for value in vars(protocol).values()
        if isinstance(value, type) and value.__module__ == protocol.__name__
    }
    assert protocol.WritesetMessage in declared
    assert declared <= set(codec.WIRE_TYPES)


@pytest.mark.parametrize(
    "wire_type", sorted(WIRE_STRATEGIES, key=lambda t: t.__name__),
    ids=lambda t: t.__name__,
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_registered_type_roundtrips(wire_type, data):
    value = data.draw(WIRE_STRATEGIES[wire_type])
    decoded = roundtrip(value)
    assert same(decoded, value)
    assert decoded is not value


@settings(max_examples=150, deadline=None)
@given(value=builtins)
def test_nested_builtins_roundtrip(value):
    assert same(roundtrip(value), value)


@settings(max_examples=60, deadline=None)
@given(value=payloads)
def test_payload_tuples_roundtrip(value):
    assert same(roundtrip(value), value)


class NotAWireType:
    pass


@pytest.mark.parametrize("value", [
    NotAWireType(),
    (1, NotAWireType()),
    [NotAWireType()],
    {"k": NotAWireType()},
    protocol.ExecuteReq(1, "SELECT 1", params=(NotAWireType(),)),
    # a wire type travels as a field or inside a tuple, not inside a list
    [WriteSet()],
], ids=["bare", "in-tuple", "in-list", "in-dict", "in-raw-field", "wire-type-in-list"])
def test_unregistered_objects_are_refused_at_the_sender(value):
    with pytest.raises(TypeError):
        tcpnet._frame(value)


def test_send_raises_type_error_before_anything_is_written(rt):
    channel, _server = open_channel(rt)
    with pytest.raises(TypeError):
        channel.client_end.send(NotAWireType())
    assert channel.client_end._outstanding == 0


# -- (b) real recovery transfers ----------------------------------------------------


def captured_transfers(**scenario):
    """Every state transfer a donor ships while a simulated cluster
    recovers replica 0 (``scenario`` configures the cluster)."""
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster
    from repro.core.srca_rep import MiddlewareReplica

    mode = scenario.pop("mode", None)
    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=12, **scenario))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim
    shipped = []
    send_state = MiddlewareReplica._send_state

    def spy(self, target, state):
        shipped.append(state)
        return send_state(self, target, state)

    def writer(i):
        yield sim.sleep(0.3 + 0.05 * i)
        conn = yield from driver.connect(cluster.new_client_host(), address="R1")
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (100 + i, 1 + i % 5))
        yield from conn.commit()

    MiddlewareReplica._send_state = spy
    try:
        sim.call_at(0.2, lambda: cluster.crash(0))
        for i in range(30):
            sim.spawn(writer(i), name=f"w{i}")
        sim.call_at(4.0, lambda: cluster.recover_replica(0, mode=mode))
        sim.run()
        sim.run(until=sim.now + 4.0)
    finally:
        MiddlewareReplica._send_state = send_state
    assert cluster.replicas[0].recovered
    return shipped


def durability(truncation):
    return DurabilityConfig(
        checkpoint_interval=0.4, segment_records=4,
        truncation=truncation,
    )


@pytest.mark.parametrize("scenario, kind, with_checkpoint", [
    ({}, protocol.StateTransfer, None),
    ({"durability": DurabilityConfig(), "mode": "full"},
     protocol.StateTransfer, None),
    ({"durability": durability("conservative")},
     protocol.DeltaTransfer, False),
    ({"durability": durability("aggressive")},
     protocol.DeltaTransfer, True),
], ids=["full", "full-durable", "delta", "delta-checkpoint"])
def test_real_recovery_transfers_roundtrip(scenario, kind, with_checkpoint):
    (state,) = captured_transfers(**scenario)
    assert type(state) is kind
    if with_checkpoint is not None:
        assert (state.checkpoint is not None) is with_checkpoint
        assert state.records or with_checkpoint
    else:
        assert state.rows
    decoded = roundtrip(state)
    assert same(decoded, state)
    assert decoded.nbytes() == state.nbytes()


# -- channel helpers ------------------------------------------------------------------


@pytest.fixture
def rt():
    runtime = WallRuntime(seed=0)
    yield runtime
    runtime.stop()


def watchdog(rt):
    def expire():
        yield rt.sleep(WATCHDOG_S, weak=True)
        raise TimeoutError("channel never broke or never quiesced")

    rt.spawn(expire(), name="watchdog")


def open_channel(rt):
    net = TcpNetwork(rt)
    client = net.register("client")
    server = net.register("server")
    return net.connect(client, "server"), server


def receive_all(rt, server):
    def reader():
        end = yield server.accept()
        got = []
        try:
            while True:
                got.append((yield from end.recv()))
        except ChannelClosed:
            return got

    return rt.run_process(reader(), name="reader")


def deliver_raw(rt, monkeypatch, frame: bytes) -> list:
    """Send ``frame`` verbatim through ``send`` (so it holds an I/O
    token), then ``"after"``, then close: what did the server receive?
    Every token must be freed and nothing may raise into the loop."""
    monkeypatch.setattr(
        tcpnet, "_frame", lambda obj: frame if obj == "raw" else codec.frame(obj)
    )
    raised = []
    monkeypatch.setattr(
        rt, "_callback_failed", lambda callback, arg, err: raised.append(err)
    )
    channel, server = open_channel(rt)
    watchdog(rt)
    channel.client_end.send("raw")
    channel.client_end.send("after")
    channel.close()
    got = receive_all(rt, server)
    rt.run()
    assert rt._strong == 0
    assert raised == []
    return got


def with_header(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def is_wire_value(value) -> bool:
    try:
        codec.encode(value)
    except TypeError:
        return False
    return True


# -- (c) mutation fuzz -----------------------------------------------------------------


def sample_frames() -> list:
    """Real frames of every kind the commit path sends."""
    ws = WriteSet([
        WriteOp("small4", 296, "update", {"k": 296, "v": 37}),
        WriteOp("small5", 1433, "insert", {"k": 1433, "v": 5732}),
    ])
    payload = protocol.WritesetMessage(
        gid="R0:g1", writeset=ws, cert=3, sender="R0",
        ctx=TraceContext("R0:g1", 7, 6), blind=frozenset({("small4", 296)}),
        scount=1,
    )
    message = Message(4, "R0", payload, 1, 0.30, 0.31)
    return [tcpnet._frame(obj) for obj in (
        7,
        protocol.ExecuteReq(1, "UPDATE small6 SET v = ? WHERE k = ?", (7920, 1450)),
        protocol.ExecuteResp(1, True, "R0:g1", rows=[{"k": 1, "v": 2}], rowcount=1),
        protocol.CommitResp(3, "committed", replicated=True, csn=12),
        Multicast(payload, True, 0.29),
        message,
        Batch((message, message), 1, 0.29, 0.31),
        ViewChange(2, 2, ("R0", "R1", "R2"), joined=("R2",)),
    )]


FRAMES = sample_frames()


@st.composite
def mutants(draw):
    """A frame truncated, bit-flipped or spliced onto another; the length
    header is rewritten to fit the damaged body."""
    body = draw(st.sampled_from(FRAMES))[4:]
    how = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if how == "truncate":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif how == "flip":
        damaged = bytearray(body)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(damaged) - 1))
            damaged[at] ^= draw(st.integers(1, 255))
        body = bytes(damaged)
    else:
        other = draw(st.sampled_from(FRAMES))[4:]
        body = body[:draw(st.integers(0, len(body)))] + other[
            draw(st.integers(0, len(other))):]
    return body


@settings(max_examples=600, deadline=None)
@given(body=mutants())
def test_mutated_bodies_decode_to_wire_values_or_raise(body):
    try:
        value = codec.unframe(body)
    except Exception:  # noqa: BLE001 - what the receiver turns into a break
        return
    assert is_wire_value(value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=mutants())
def test_mutated_frames_decode_or_break_the_channel(monkeypatch, body):
    rt = WallRuntime(seed=0)
    try:
        got = deliver_raw(rt, monkeypatch, with_header(body))
    finally:
        rt.stop()
    try:
        expected = [codec.unframe(body), "after"]
    except Exception:  # noqa: BLE001
        expected = []
    assert len(got) == len(expected)
    assert all(map(same, got, expected))


# -- (d) globals ------------------------------------------------------------------


#: frames naming ``os.system``, and the global the unpickler is asked for
GLOBAL_PICKLES = {
    # protocol 0: GLOBAL, then a call through REDUCE
    "global": (b"cos\nsystem\n(S'echo wire'\ntR.", ("os", "system")),
    # protocol 4+: STACK_GLOBAL
    "stack-global": (pickle.dumps(os.system, 5), (os.system.__module__, "system")),
}


@pytest.mark.parametrize("kind", sorted(GLOBAL_PICKLES))
def test_a_global_breaks_the_channel_unresolved(rt, monkeypatch, kind):
    data, named = GLOBAL_PICKLES[kind]
    asked = []
    refuse = codec._Unpickler.find_class

    def spy(self, module, name):
        asked.append((module, name))
        return refuse(self, module, name)

    monkeypatch.setattr(codec._Unpickler, "find_class", spy)
    monkeypatch.setattr(os, "system", lambda command: pytest.fail("os.system ran"))
    got = deliver_raw(rt, monkeypatch, with_header(bytes([codec.VERSION]) + data))
    assert got == []
    assert asked == [named]


# -- (e) unknown tag, unknown version ---------------------------------------------


@pytest.mark.parametrize("body", [
    bytes([codec.VERSION]) + pickle.dumps((99, 1, 2), 5),
    bytes([codec.VERSION + 1]) + pickle.dumps("hello", 5),
    b"",
], ids=["unknown-tag", "unknown-version", "empty"])
def test_unknown_tag_or_version_breaks_the_channel(rt, monkeypatch, body):
    assert deliver_raw(rt, monkeypatch, with_header(body)) == []


def test_a_frame_of_the_previous_version_is_refused():
    """Version 4 dropped ``StateTransfer.feed_seq``; a version-3 frame is
    refused by its version byte before anything is decoded."""
    state = protocol.StateTransfer("R0", (), {}, Certifier(), (), {})
    body = codec.frame(state)[4:]
    assert codec.VERSION == 4 and body[0] == 4
    with pytest.raises(ValueError, match="unknown codec version"):
        codec.unframe(bytes([3]) + body[1:])


REPLICATION_TYPES = [
    protocol.WritesetMessage, protocol.SyncMessage, protocol.DdlMessage,
    protocol.ProcMessage,
]


@pytest.mark.parametrize("wrong", ["missing", "extra"])
@pytest.mark.parametrize(
    "message_type", REPLICATION_TYPES, ids=lambda t: t.__name__
)
def test_a_typed_record_of_the_wrong_length_breaks_the_channel(
    rt, monkeypatch, message_type, wrong
):
    record = codec.encode(message_type())
    record = record[:-1] if wrong == "missing" else (*record, 0)
    body = bytes([codec.VERSION]) + pickle.dumps(record, 5)
    with pytest.raises(TypeError):
        codec.unframe(body)
    assert deliver_raw(rt, monkeypatch, with_header(body)) == []


# -- (f) encode once ---------------------------------------------------------------


def test_a_fanout_encodes_once_for_every_member(rt, monkeypatch):
    bus = TcpGroupBus(rt)
    members = [bus.join(f"m{i}") for i in range(3)]
    encoded, sent = [], []
    encode = tcpnet._frame
    send = tcpnet.TcpChannelEnd.send

    def frame_spy(obj):
        encoded.append(obj)
        return encode(obj)

    def send_spy(self, message, frame=None):
        sent.append(message)
        return send(self, message, frame)

    monkeypatch.setattr(tcpnet, "_frame", frame_spy)
    monkeypatch.setattr(tcpnet.TcpChannelEnd, "send", send_spy)

    watchdog(rt)
    ws = WriteSet([WriteOp("kv", 1, "update", {"k": 1, "v": 2})])
    members[0].multicast(
        protocol.WritesetMessage(gid="m0:g1", writeset=ws, sender="m0")
    )
    got = [rt.run_process(first_message(member)) for member in members]

    # (the int frames are the channel-id hellos of the sockets coming up)
    assert [type(obj) for obj in encoded if type(obj) is not int] == [
        Multicast, Message,
    ]
    assert [type(obj) for obj in sent] == [Multicast, Message, Message, Message]
    assert all(same(message, got[0]) for message in got)
    assert got[0].payload.writeset.ops == ws.ops
    assert len({id(message) for message in got}) == 3
    assert len({id(message.payload.writeset) for message in got}) == 3


def first_message(member):
    while True:
        item = yield member.deliver()
        if isinstance(item, Message):
            return item


@pytest.mark.parametrize("payload", [
    protocol.WritesetMessage(
        gid="m0:g1", writeset=WriteSet([WriteOp("kv", 1, "delete", None)]),
        cert=2, sender="m0", ctx=TraceContext("m0:g1", 3, 1),
        readset=frozenset({("kv", 2)}), blind=frozenset({("kv", 1)}),
        rehome=True, scount=5, acked=4,
    ),
    protocol.SyncMessage(target="m0", donor="m1", from_seq=17),
    protocol.SyncMessage(target="m0", donor="m1"),
    protocol.DdlMessage(ddl_id=1, sender="m0", sql="CREATE TABLE t (k INT PRIMARY KEY)"),
    protocol.ProcMessage(rid="m0:r1", proc="pay", params=(7, "x"), origin="m0"),
], ids=["writeset", "sync-delta", "sync-full", "ddl", "proc"])
def test_every_replication_message_crosses_a_bus_fanout(rt, payload):
    bus = TcpGroupBus(rt)
    members = [bus.join(f"m{i}") for i in range(3)]
    watchdog(rt)
    members[0].multicast(payload)
    got = [rt.run_process(first_message(member)).payload for member in members]
    for value in got:
        assert type(value) is type(payload)
        assert same(value, payload)
        assert value is not payload
    assert len({id(value) for value in got}) == 3
