"""Reader joins against the feed's join window, on a running cluster.

The certified feed numbers its items by total-order seq and keeps only
the items above the lowest live full replica's ``feed_seq``.  A reader
joins from a donor's ``feed_seq`` and backfills above it, so a join must
come from a replica whose state covers that position: never from a
recovery still waiting for its own donor's state.
"""

from collections import Counter

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig

KEYS = 5


def make_cluster(durable, seed=11):
    cluster = SIRepCluster(ClusterConfig(
        n_replicas=3, seed=seed,
        durability=DurabilityConfig() if durable else None,
    ))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, KEYS + 1)])
    return cluster


def start_clients(cluster, addresses=("R1", "R2", "R1"), n=40, spacing=0.06):
    """One client per address, each a run of single-row updates."""
    driver = Driver(cluster.network, cluster.discovery)

    def client(index, address):
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        for i in range(n):
            yield cluster.sim.sleep(spacing)
            key = (index * 7 + i) % KEYS + 1
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (100 * index + i, key)
            )
            yield from conn.commit()
        conn.close()

    for index, address in enumerate(addresses):
        cluster.sim.spawn(client(index, address), name=f"client-{index}")


def applied_gids(reader):
    """Gids the reader committed from its feed subscription."""
    return Counter(
        event[1] for event in reader.db.history
        if event[0] == "commit" and not event[1].startswith(f"{reader.name}:")
    )


def assert_joined_cleanly(reader, reference):
    assert reader.alive
    assert reader.db.export_committed() == reference.db.export_committed()
    applied = applied_gids(reader)
    assert all(count == 1 for count in applied.values())
    # a gid the bootstrap installed never comes again from the feed
    assert not (reader.covered_gids | {gid for gid, _ in reader.replayed}) & set(applied)


@pytest.mark.parametrize("durable", [False, True], ids=["snapshot", "durable"])
def test_a_replica_still_recovering_is_never_a_donor(durable):
    cluster = make_cluster(durable)
    start_clients(cluster)
    sim = cluster.sim
    sim.call_at(1.0, lambda: cluster.crash(0))
    sim.run(until=2.0)
    recovering = cluster.recover_replica(0)
    reader = cluster.add_reader()
    with pytest.raises(ValueError, match="still recovering"):
        cluster.add_reader(donor_index=0)
    assert not recovering.status().installed
    cluster.crash(2)
    # a replica's own recovery does not pick the recovering one either
    assert cluster.recover_replica(2).recovery.recover_from == "R1"
    sim.run()
    assert recovering.status().installed
    assert_joined_cleanly(reader, cluster.replicas[1])
    assert len(cluster.feed.items) == 0


@pytest.mark.parametrize("durable", [False, True], ids=["snapshot", "durable"])
def test_a_join_from_a_just_installed_replica_backfills_its_window(durable):
    """Join a reader from a recovered replica in the step its state
    installs: its position is its sync marker's seq while its peers
    have published past it, so the join rests on the retained window."""
    cluster = make_cluster(durable, seed=4)
    start_clients(cluster, n=150, spacing=0.005)
    sim = cluster.sim
    joined = []
    admit = cluster._on_replica_recovered

    def on_recovered(replica):
        admit(replica)
        window = [item.seq for item in cluster.feed.items]
        joined.append((replica.status().feed_seq, window, cluster.add_reader(0)))

    cluster._on_replica_recovered = on_recovered
    sim.call_at(0.3, lambda: cluster.crash(0))
    sim.call_at(0.5, lambda: cluster.recover_replica(0))
    below_floor = []
    publish = cluster.feed.publish

    def checked_publish(item):
        won = publish(item)
        floor = min(r.status().feed_seq for r in cluster.alive_replicas())
        below_floor.extend(kept.seq for kept in cluster.feed.items if kept.seq <= floor)
        return won

    cluster.feed.publish = checked_publish
    sim.run()
    assert below_floor == []
    ((position, window, reader),) = joined
    # the peers had published past the donor's position, and the feed
    # still held those items for the join to backfill
    assert window and all(seq > position for seq in window)
    assert_joined_cleanly(reader, cluster.replicas[0])
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    # drained: every replica published the tip, so the window is empty
    # (a subscribed reader holds nothing back)
    assert len(cluster.feed.items) == 0
    positions = {replica.status().feed_seq for replica in cluster.alive_replicas()}
    assert len(positions) == 1


@pytest.mark.parametrize("durable", [False, True], ids=["snapshot", "durable"])
def test_the_feed_is_empty_after_a_drain_without_readers(durable):
    cluster = make_cluster(durable)
    start_clients(cluster, n=20)
    cluster.sim.run()
    assert cluster.feed.published > 0
    assert len(cluster.feed.items) == 0
    assert len({replica.status().feed_seq for replica in cluster.replicas}) == 1
