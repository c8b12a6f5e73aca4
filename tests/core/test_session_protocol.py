"""Protocol conformance of the one session front-end (core/session.py).

Every server of §6 — SI-Rep replica, lazy read replica, centralized
passthrough, kernel comparator, primary-backup middleware, and the [20]
table-lock replica — is driven over a raw ``Channel`` with the same
requests and must answer them the same way: a response of the request's
own type echoing its ``seq``, a typed error (never silence) for what it
does not serve, and no engine transaction left behind by a failed
statement, a rollback, or a lost channel.
"""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.core import ClusterConfig, SIRepCluster, protocol
from repro.core.baselines import CentralizedSystem, Procedure, TableLockSystem
from repro.core.kernel_replication import KernelReplicatedSystem
from repro.core.primary_backup import PrimaryBackupSystem

DDL = ["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"]
ROWS = [{"k": k, "v": 0} for k in range(1, 5)]
GOOD = "SELECT v FROM kv WHERE k = 1"
BAD = "SELECT v FROM no_such_table"

PROCEDURES = {
    "read": Procedure("read", ("kv",), lambda p: [(GOOD, ())], readonly=True),
    "broken": Procedure("broken", ("kv",), lambda p: [(BAD, ())], readonly=True),
}


@dataclass
class Rig:
    system: Any
    server: Any  # the object the session front-end serves
    dbs: list
    #: request -> response type, for what this server does not serve
    unsupported: dict

    @property
    def sim(self):
        return self.system.sim

    def active_transactions(self) -> int:
        return sum(db.active_count for db in self.dbs)


def _loaded(system):
    system.load_schema(DDL)
    system.bulk_load("kv", ROWS)
    return system


def sirep():
    cluster = _loaded(SIRepCluster(ClusterConfig(n_replicas=2, seed=1)))
    replica = cluster.replicas[0]
    return Rig(cluster, replica, [replica.db],
               {protocol.ProcRequest(7, "read"): protocol.ProcResp})


def reader():
    cluster = _loaded(
        SIRepCluster(ClusterConfig(n_replicas=2, seed=1, read_replicas=1))
    )
    replica = cluster.readers[0]
    return Rig(cluster, replica, [replica.db],
               {protocol.InquireReq(7, "g", "R0"): protocol.InquireResp,
                protocol.ProcRequest(9, "read"): protocol.ProcResp})


def centralized():
    system = _loaded(CentralizedSystem(ClusterConfig(seed=1)))
    return Rig(system, system, [system.db],
               {protocol.InquireReq(7, "g", "R0"): protocol.InquireResp,
                protocol.ProcRequest(9, "read"): protocol.ProcResp})


def kernel():
    system = _loaded(KernelReplicatedSystem(ClusterConfig(n_replicas=2, seed=1)))
    replica = system.replicas[0]
    return Rig(system, replica, [replica.db],
               {protocol.InquireReq(7, "g", "KR1"): protocol.InquireResp,
                protocol.ProcRequest(9, "read"): protocol.ProcResp})


def primary_backup():
    system = _loaded(PrimaryBackupSystem(ClusterConfig(n_replicas=2, seed=1)))
    return Rig(system, system.primary, [node.db for node in system.nodes],
               {protocol.ProcRequest(7, "read"): protocol.ProcResp})


def table_lock():
    system = _loaded(TableLockSystem(PROCEDURES, ClusterConfig(n_replicas=2, seed=1)))
    replica = system.replicas[0]
    return Rig(system, replica, [replica.db],
               {protocol.ExecuteReq(7, GOOD): protocol.ExecuteResp,
                protocol.CommitReq(9): protocol.CommitResp,
                protocol.InquireReq(11, "g", "TL1"): protocol.InquireResp})


#: servers that execute client statements (the [20] replica runs whole
#: procedures instead)
STATEMENT_SERVERS = [sirep, reader, centralized, kernel, primary_backup]
ALL_SERVERS = STATEMENT_SERVERS + [table_lock]


def talk(rig, requests, close=True):
    """One raw connection: send each request, collect each response.
    A server that leaves a request unanswered parks the probe, which
    ``run_process`` reports as ``SimulationStalled``."""

    def probe():
        chan = rig.system.network.connect(
            rig.system.new_client_host(), rig.server.host.address
        )
        replies = []
        for request in requests:
            chan.client_end.send(request)
            replies.append((yield from chan.client_end.recv()))
        if close:
            chan.close()
        return replies

    replies = rig.sim.run_process(probe())
    rig.sim.run()
    return replies


@pytest.mark.parametrize("make", ALL_SERVERS)
def test_unsupported_request_gets_a_typed_error_not_silence(make):
    rig = make()
    for request, response_type in rig.unsupported.items():
        (response,) = talk(rig, [request])
        assert type(response) is response_type
        assert response.seq == request.seq
        assert response.error is not None
        if response_type is not protocol.ExecuteResp:
            assert response.outcome == protocol.ABORTED
    assert rig.server.active_sessions == 0


@pytest.mark.parametrize("make", ALL_SERVERS)
def test_rollback_without_a_transaction(make):
    rig = make()
    (response,) = talk(rig, [protocol.RollbackReq(41)])
    assert response == protocol.RollbackResp(41)
    assert rig.server.active_sessions == 0


@pytest.mark.parametrize("make", STATEMENT_SERVERS)
def test_failing_statement_leaves_no_transaction(make):
    rig = make()
    good, bad, again = talk(
        rig,
        [protocol.ExecuteReq(3, GOOD), protocol.ExecuteReq(5, BAD),
         protocol.ExecuteReq(8, GOOD)],
        close=False,
    )
    assert (good.seq, good.ok, good.rows) == (3, True, [{"v": 0}])
    assert isinstance(bad, protocol.ExecuteResp)
    assert (bad.seq, bad.ok) == (5, False) and bad.error is not None
    # the session survives and starts a fresh transaction
    assert (again.seq, again.ok) == (8, True)
    assert again.gid != good.gid
    assert rig.active_transactions() == 1


@pytest.mark.parametrize("make", STATEMENT_SERVERS)
def test_rollback_and_commit_end_the_open_transaction(make):
    rig = make()
    replies = talk(
        rig,
        [protocol.ExecuteReq(1, GOOD), protocol.RollbackReq(2),
         protocol.ExecuteReq(3, GOOD), protocol.CommitReq(4),
         protocol.CommitReq(5)],
        close=False,
    )
    assert [r.seq for r in replies] == [1, 2, 3, 4, 5]
    assert [type(r) for r in replies] == [
        protocol.ExecuteResp, protocol.RollbackResp, protocol.ExecuteResp,
        protocol.CommitResp, protocol.CommitResp,
    ]
    assert replies[3].outcome == replies[4].outcome == protocol.COMMITTED
    assert rig.active_transactions() == 0
    assert rig.server.active_sessions == 1  # still connected


@pytest.mark.parametrize("make", STATEMENT_SERVERS)
def test_channel_loss_mid_transaction_aborts_it(make):
    rig = make()
    talk(rig, [protocol.ExecuteReq(1, GOOD)], close=False)
    assert rig.active_transactions() == 1
    rig = make()
    talk(rig, [protocol.ExecuteReq(1, GOOD)], close=True)
    assert rig.active_transactions() == 0
    assert rig.server.active_sessions == 0


@pytest.mark.parametrize("make", STATEMENT_SERVERS)
def test_failed_rollback_is_answered_with_rollback_resp(make):
    rig = make()
    for db in rig.dbs:
        real_abort, calls = db.abort, []

        def failing_once(txn, real_abort=real_abort, calls=calls):
            calls.append(txn)
            if len(calls) == 1:
                raise RuntimeError("abort fault")
            return real_abort(txn)

        db.abort = failing_once
    _, response = talk(rig, [protocol.ExecuteReq(1, GOOD), protocol.RollbackReq(2)])
    assert response == protocol.RollbackResp(2)
    assert rig.active_transactions() == 0


def test_table_lock_procedures_commit_or_answer_a_typed_error():
    rig = table_lock()
    ok, failed = talk(
        rig, [protocol.ProcRequest(1, "read"), protocol.ProcRequest(2, "broken")]
    )
    assert ok == protocol.ProcResp(1, protocol.COMMITTED, [{"v": 0}])
    assert isinstance(failed, protocol.ProcResp)
    assert (failed.seq, failed.outcome) == (2, protocol.ABORTED)
    assert failed.error is not None
    assert rig.server.active_sessions == 0


@pytest.mark.parametrize("make", ALL_SERVERS)
def test_session_handles_stay_bounded_under_churn(make):
    rig = make()
    baseline = len(rig.server._processes)  # the long-lived daemons
    for round_ in range(50):
        talk(rig, [protocol.RollbackReq(round_)])
    assert len(rig.server._processes) <= baseline + 2
    assert rig.server.active_sessions == 0
