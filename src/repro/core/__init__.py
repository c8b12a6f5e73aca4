"""SI-Rep: the paper's replica-control middleware (the core contribution).

* :mod:`repro.core.validation` — optimistic writeset certification.
* :mod:`repro.core.tocommit` — per-replica to-commit queues.
* :mod:`repro.core.holes` — adjustment 3's start/commit synchronization.
* :mod:`repro.core.replica` — one DB replica + its committer machinery.
* :mod:`repro.core.session` — Fig. 4's session-handling stage: the one
  server side of the client protocol, shared by every system of §6.
* :mod:`repro.core.srca` — the centralized SRCA of Fig. 1 (three modes).
* :mod:`repro.core.srca_rep` — the decentralized SRCA-Rep of Fig. 4
  (and SRCA-Opt, adjustments 1+2 only).
* :mod:`repro.core.baselines` — the centralized passthrough and the
  table-locking protocol of [20] used in §6.
* :mod:`repro.core.cluster` — full-system assembly with crash injection.
"""

from repro.core.cluster import ClusterConfig, SIRepCluster
from repro.core.kernel_replication import KernelReplicatedSystem
from repro.core.primary_backup import PrimaryBackupSystem
from repro.core.replica import ReplicaManager, ReplicaNode
from repro.core.srca import SRCA
from repro.core.srca_rep import MiddlewareReplica
from repro.core.validation import Certifier

__all__ = [
    "SIRepCluster",
    "ClusterConfig",
    "MiddlewareReplica",
    "PrimaryBackupSystem",
    "KernelReplicatedSystem",
    "SRCA",
    "Certifier",
    "ReplicaNode",
    "ReplicaManager",
]
