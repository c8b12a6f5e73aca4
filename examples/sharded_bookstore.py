"""Sharded bookstore: partial replication groups + the cross-shard router.

Splits a small bookstore across two SI-Rep replication groups — the
catalog tables on one, the order tables on the other — in a single
simulated LAN.  Each group runs the paper's SRCA-Rep protocol unchanged
over its own tables; the router keeps update transactions single-group,
serves cross-shard read-only transactions from a per-group snapshot
vector, and rejects a multi-group update outright.

Run:  python examples/sharded_bookstore.py
"""

from repro.core import ClusterConfig
from repro.errors import CrossShardWriteError
from repro.shard import ShardConfig, ShardedCluster

PLACEMENT = {
    "item": 0,      # catalog group
    "author": 0,
    "orders": 1,    # order group
    "order_line": 1,
}

DDL = [
    "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_stock INT)",
    "CREATE TABLE author (a_id INT PRIMARY KEY, a_name TEXT)",
    "CREATE TABLE orders (o_id INT PRIMARY KEY, o_total FLOAT, o_status TEXT)",
    "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT)",
]


def main() -> None:
    cluster = ShardedCluster(
        ShardConfig(
            n_groups=2,
            group=ClusterConfig(n_replicas=3, seed=42),
            partition="explicit",
            table_map=PLACEMENT,
        )
    )
    sim = cluster.sim
    cluster.load_schema(DDL)
    cluster.bulk_load(
        "item",
        [{"i_id": i, "i_title": f"Book {i}", "i_stock": 10} for i in range(1, 6)],
    )
    cluster.bulk_load("author", [{"a_id": 1, "a_name": "B. Kemme"}])
    cluster.bulk_load("orders", [])
    cluster.bulk_load("order_line", [])
    print("placement:", cluster.partitioner.assignment)

    def shopper():
        conn = yield from cluster.connect(cluster.new_client_host())

        # single-shard update on the order group
        yield from conn.execute(
            "INSERT INTO orders (o_id, o_total, o_status) "
            "VALUES (1, 42.0, 'pending')"
        )
        yield from conn.execute(
            "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id) VALUES (11, 1, 3)"
        )
        yield from conn.commit()
        print("order 1 placed (group", PLACEMENT["orders"], "certified it)")

        # single-shard update on the catalog group
        yield from conn.execute("UPDATE item SET i_stock = 9 WHERE i_id = 3")
        yield from conn.commit()
        print("stock decremented (group", PLACEMENT["item"], "certified it)")

        # cross-shard read-only: scatter-gather over per-group snapshots
        stock = yield from conn.execute("SELECT i_stock FROM item WHERE i_id = 3")
        placed = yield from conn.execute("SELECT o_total FROM orders WHERE o_id = 1")
        vector = conn.snapshot_vector
        yield from conn.commit()
        print(
            f"cross-shard report: stock={stock.rows[0]['i_stock']}, "
            f"order total={placed.rows[0]['o_total']}, "
            f"snapshot vector (group -> csn) = {vector}"
        )

        # a multi-group update is rejected: certification is per-group,
        # and there is no atomic commitment protocol across groups
        try:
            yield from conn.execute("SELECT i_stock FROM item WHERE i_id = 3")
            yield from conn.execute(
                "UPDATE orders SET o_status = 'shipped' WHERE o_id = 1"
            )
        except CrossShardWriteError as error:
            print("rejected as expected:", error)

    sim.run_process(shopper())
    sim.run(until=sim.now + 2.0)

    metrics = cluster.metrics()
    print(
        f"commits={metrics['commits']} "
        f"cross-shard RO={metrics['cross_shard_readonly_commits']} "
        f"rejected writes={metrics['rejected_cross_shard_writes']}"
    )
    report = cluster.one_copy_report()
    print("sharded audit:", report)


if __name__ == "__main__":
    main()
