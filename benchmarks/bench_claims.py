"""The paper's quantified side claims, each regenerated and asserted."""

import pytest

from repro.bench import figures


def test_writeset_apply_fraction(benchmark):
    """§6.3: "Applying writesets takes only around 20% of the time it
    takes to execute the entire transaction." """
    result = benchmark.pedantic(
        figures.claim_writeset_apply_fraction, rounds=1, iterations=1
    )
    assert 0.15 <= result["fraction"] <= 0.25


def test_tpcw_abort_rate(benchmark):
    """§6.1: conflict rates were small, "very few aborts took place (far
    below 1%)"."""
    result = benchmark.pedantic(
        lambda: figures.claim_tpcw_abort_rate(fast=True), rounds=1, iterations=1
    )
    assert result["abort_rate"] < 0.01


def test_hole_frequency(benchmark):
    """§6.3: "there are holes at around 4-8% of the times a transaction
    wants to start" under the update-intensive workload."""
    result = benchmark.pedantic(
        lambda: figures.claim_hole_frequency(fast=True), rounds=1, iterations=1
    )
    assert 0.01 <= result["hole_wait_fraction"] <= 0.15


def test_postgres_r_si_comparison(benchmark):
    """§6.3: "We tested the system against Postgres-R [which] provides
    kernel-based eager replication.  The results were very similar to
    SRCA-Rep since their main difference lies in the validation process
    while the principal transaction execution is similar." """
    from repro.bench.costs import MicroCost
    from repro.bench.harness import run_comparator, run_sirep
    from repro.core import ClusterConfig, KernelReplicatedSystem
    from repro.workloads import micro

    def run():
        workload = micro.make_workload()
        out = []
        for load in (50, 125):
            config = ClusterConfig(n_replicas=5, cost_model=lambda _i: MicroCost())
            rep = run_sirep(workload, load, config, duration=6.0, warmup=1.5)
            kern = run_comparator(
                workload, load, KernelReplicatedSystem(config),
                duration=6.0, warmup=1.5,
            )
            out.append((rep, kern))
        return out

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    for rep, kern in pairs:
        # "very similar": response times within ~25% and throughput ~10%
        assert kern.rt("update") == pytest.approx(rep.rt("update"), rel=0.25)
        assert kern.throughput == pytest.approx(rep.throughput, rel=0.10)


def test_multicast_latency(benchmark):
    """§5.2: "the delay for a uniform reliable multicast does not exceed
    3 ms in a LAN even for message rates of several hundreds of messages
    per second"."""
    result = benchmark.pedantic(
        lambda: figures.claim_multicast_latency(500), rounds=1, iterations=1
    )
    assert result["messages"] >= 400
    assert result["max_ms"] <= 3.0
