"""The deployment's knobs, pinned.

Every field of the four config dataclasses is listed here, so adding,
renaming or dropping a knob is a deliberate, reviewed edit of this file
(the rule for keeping one: ROADMAP 8b).
"""

from dataclasses import fields

from repro.core import ClusterConfig
from repro.durable import DurabilityConfig
from repro.gcs import GcsConfig
from repro.reader import ReaderConfig


def test_config_fields_are_pinned():
    surface = {
        config.__name__: {f.name for f in fields(config)}
        for config in (ClusterConfig, GcsConfig, ReaderConfig, DurabilityConfig)
    }
    assert surface == {
        "ClusterConfig": {
            "n_replicas", "hole_sync", "group_commit", "salvage", "seed",
            "gcs", "net_base_latency", "net_jitter", "cost_model",
            "with_disk", "cpu_servers", "obs", "sampler_interval",
            "span_trace", "monitor", "flight", "flight_dir", "max_sessions",
            "replica_prefix", "durability", "read_replicas", "reader",
            "runtime",
        },
        "GcsConfig": {
            "sender_to_bus", "bus_to_member", "jitter", "crash_detection",
            "batch_max_messages", "batch_window", "bus_service_time",
            "reorder", "adaptive_window", "batch_window_min",
            "batch_window_max",
        },
        "ReaderConfig": {
            "staleness_bound", "fanout_delay", "apply_delay", "max_sessions",
            "max_read_inflight", "writer_read_inflight",
        },
        "DurabilityConfig": {
            "log_dir", "checkpoint_interval", "truncation", "segment_records",
        },
    }
    assert sum(map(len, surface.values())) == 44
