"""Multi-process scale-out tier: prefork supervisor and fleet metrics.

See :mod:`repro.cluster.supervisor` for the architecture overview.
"""

from repro.cluster.metrics import (
    merge_counter_dicts,
    merge_health_snapshots,
    merge_histograms,
)
from repro.cluster.supervisor import (
    ClusterHandle,
    ClusterSupervisor,
    Worker,
)

__all__ = [
    "ClusterHandle",
    "ClusterSupervisor",
    "Worker",
    "merge_counter_dicts",
    "merge_health_snapshots",
    "merge_histograms",
]
