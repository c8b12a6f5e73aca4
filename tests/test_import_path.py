"""numpy, scipy and networkx stay off the runtime's import path.

Only the confidence intervals, the 1-copy-SI audit and the online
monitor use them, and each imports its library where it is used.  A
replica, client or sequencer process therefore never pays for them:
together they load about a thousand modules and some 90 MB.  The check
runs in a fresh interpreter, since the test session itself has already
imported them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro, repro.core, repro.client, repro.runtime.asyncio_rt
    import repro.runtime.tcpnet, repro.workloads, repro.bench, repro.obs, repro.si
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster

    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=0, runtime="wall"))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(4)])
    driver = Driver(cluster.network, cluster.discovery)

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        for k in range(4):
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (k, k))
            yield from conn.commit()
        return True

    assert cluster.sim.run_process(client()) is True
    cluster.sim.run()
    cluster.stop()
    print(" ".join(
        name for name in ("numpy", "scipy", "networkx") if name in sys.modules
    ))
    """
)


def test_runtime_and_a_wall_cluster_load_no_numeric_library():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
