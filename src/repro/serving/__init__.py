"""Model serving: bundle loading and the batched prediction service.

The subsystem turns exported model bundles into a running inference layer:

* :mod:`repro.serving.bundle` — discover and load the self-contained bundles
  written by :meth:`repro.models.base.CuisineModel.save_bundle` (or by the
  experiment runner's ``export_dir``);
* :mod:`repro.serving.service` — :class:`PredictionService`, which featurizes
  raw recipe sequences through a shared warm feature store, micro-batches
  concurrent single predictions, LRU-caches repeated inputs and exposes
  hit/latency counters;
* :mod:`repro.serving.featurizer` — :class:`BatchFeaturizer`, the batch
  fast path of the service's miss traffic (one-pass tokenization with a
  shared item memo, bitwise-identical to the sequential path);
* :mod:`repro.serving.cache` — :class:`ShardedResultCache`, the
  epoch-guarded LRU result cache partitioned into independently-locked
  stripes, which also hosts the single-flight registry coalescing identical
  concurrent requests.
"""

from repro.serving.bundle import (
    ModelBundle,
    discover_bundles,
    load_bundles,
    validate_manifest,
)
from repro.serving.cache import InFlight, ShardedResultCache
from repro.serving.featurizer import BatchFeaturizer
from repro.serving.service import PredictionService

__all__ = [
    "BatchFeaturizer",
    "InFlight",
    "ModelBundle",
    "PredictionService",
    "ShardedResultCache",
    "discover_bundles",
    "load_bundles",
    "validate_manifest",
]
