"""The deployment's knobs, pinned.

Every field of the four config dataclasses, and the parameters of the
constructors the deployment builds its parts with, are listed here, so
adding, renaming or dropping a knob is a deliberate, reviewed edit of
this file (the rule for keeping one: ROADMAP 8b).
"""

import inspect
from dataclasses import fields

from repro.core import ClusterConfig
from repro.durable import DurabilityConfig
from repro.durable.log import WritesetLog
from repro.gcs import GcsConfig
from repro.gcs.discovery import DiscoveryService
from repro.obs import (
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    OneCopyMonitor,
    Sampler,
    Tracer,
)
from repro.reader import ReaderConfig
from repro.workloads.sharded import make_partitioned_workload


def test_config_fields_are_pinned():
    surface = {
        config.__name__: {f.name for f in fields(config)}
        for config in (ClusterConfig, GcsConfig, ReaderConfig, DurabilityConfig)
    }
    assert surface == {
        "ClusterConfig": {
            "n_replicas", "hole_sync", "group_commit", "salvage", "seed",
            "gcs", "cost_model", "with_disk", "cpu_servers", "obs",
            "sampler_interval", "span_trace", "monitor", "flight",
            "flight_dir", "replica_prefix", "durability", "read_replicas",
            "reader", "runtime",
        },
        "GcsConfig": {
            "sender_to_bus", "bus_to_member", "crash_detection",
            "batch_max_messages", "batch_window", "bus_service_time",
            "reorder", "adaptive_window", "batch_window_min",
            "batch_window_max",
        },
        "ReaderConfig": {
            "staleness_bound", "fanout_delay", "apply_delay", "max_sessions",
            "max_read_inflight", "writer_read_inflight",
        },
        "DurabilityConfig": {
            "log_dir", "checkpoint_interval", "segment_records",
        },
    }
    assert sum(map(len, surface.values())) == 39


def test_constructor_parameters_are_pinned():
    surface = {
        target.__name__: list(inspect.signature(target).parameters)
        for target in (
            Observability, MetricsRegistry, Sampler, EventLog, Tracer,
            WritesetLog, OneCopyMonitor, FlightRecorder, DiscoveryService,
            make_partitioned_workload,
        )
    }
    assert surface == {
        "Observability": ["sim", "sampler_interval"],
        "MetricsRegistry": [],
        "Sampler": ["sim", "registry", "interval"],
        "EventLog": ["sim"],
        "Tracer": ["sim"],
        "WritesetLog": ["name", "segment_records", "directory"],
        "OneCopyMonitor": ["sim", "interval", "obs", "on_violation"],
        "FlightRecorder": ["sim", "tracer", "events", "directory"],
        "DiscoveryService": ["sim"],
        "make_partitioned_workload": ["n_groups", "tables_per_group", "rows_per_table"],
    }
