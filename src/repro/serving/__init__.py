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
* :mod:`repro.serving.cache` — :class:`ResultCache`, one map behind one
  lock holding the epoch-guarded LRU of result rows and the pending entries
  through which identical concurrent requests follow the unit computing
  them (single-flight coalescing).
"""

from repro.serving.bundle import (
    ModelBundle,
    discover_bundles,
    load_bundles,
    validate_manifest,
)
from repro.serving.cache import ResultCache
from repro.serving.featurizer import BatchFeaturizer
from repro.serving.service import PredictionService

__all__ = [
    "BatchFeaturizer",
    "ModelBundle",
    "PredictionService",
    "ResultCache",
    "discover_bundles",
    "load_bundles",
    "validate_manifest",
]
