"""Mapping-as-a-service: persistent pricing across runs and processes.

The evaluation engine (:mod:`repro.eval`) makes pricing fast *within* one
context; this package makes it persistent *across* them.
:mod:`repro.service.store` holds both halves:

* :class:`~repro.service.store.ResultStore` — an on-disk, atomically written,
  versioned cache of priced :class:`~repro.core.metrics.MetricVector`s keyed
  by the full pricing identity (model + platform + workload content hash +
  mapping digest).  A candidate priced once — by any process, in any run — is
  never priced again.
* :class:`~repro.service.store.ServiceBackend` — the store wired into the
  ordinary ``backend=`` seam of every evaluation context: hits are answered
  from the store, misses are priced inline and written back.

Everything is bit-identical to inline pricing by construction: store
entries round-trip floats exactly, misses are priced by the same chunk
arithmetic, and results are reassembled in submission order.
:func:`~repro.analysis.comparison.compare_models` takes no backend, so the
reproduced paper tables never touch the service.  See ``docs/service.md``
for the full tour.
"""

from repro.service.store import (
    STORE_VERSION,
    ResultStore,
    ServiceBackend,
    StoreCorruptionWarning,
    StoreStats,
    StoreWriteWarning,
    mapping_digest,
    platform_digest,
    scope_for_context,
    workload_digest,
)

__all__ = [
    "STORE_VERSION",
    "StoreCorruptionWarning",
    "StoreWriteWarning",
    "StoreStats",
    "ResultStore",
    "ServiceBackend",
    "mapping_digest",
    "platform_digest",
    "scope_for_context",
    "workload_digest",
]
