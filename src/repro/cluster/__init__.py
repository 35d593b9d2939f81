"""Multi-process scale-out tier: prefork supervisor, fleet metrics, balancer.

See :mod:`repro.cluster.supervisor` for the architecture overview.
"""

from repro.cluster.balancer import ClusterBalancer, HashRing
from repro.cluster.metrics import (
    merge_counter_dicts,
    merge_health_snapshots,
    merge_histograms,
)
from repro.cluster.supervisor import (
    ClusterHandle,
    ClusterSupervisor,
    Worker,
    has_reuseport,
)

__all__ = [
    "ClusterBalancer",
    "ClusterHandle",
    "ClusterSupervisor",
    "HashRing",
    "Worker",
    "has_reuseport",
    "merge_counter_dicts",
    "merge_health_snapshots",
    "merge_histograms",
]
