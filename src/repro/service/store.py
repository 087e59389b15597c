"""Persistent, cross-run result store for priced metric vectors.

The store is the memory of the mapping service: a
:class:`~repro.core.metrics.MetricVector` priced once — by any process, in
any run — never has to be priced again.  Entries live as small versioned JSON
files on disk, fronted by an in-memory LRU, and are keyed by the full pricing
identity:

* the **scope** digest (:func:`scope_for_context`) — model (CWM,
  load-aware CWM or CDCM), topology ``cache_token``, routing
  ``cache_token``, technology, wormhole
  :class:`~repro.noc.platform.NocParameters`, the local-link flag and the
  workload ``content_hash()`` (note the wormhole parameters: the shared
  route-table cache can omit them because routes and bit energies do not
  depend on them, but CDCM *prices* do, so the store key must not);
* the **mapping** digest (:func:`mapping_digest`) — SHA-256 over the sorted
  core names and the pinned :meth:`~repro.core.mapping.Mapping.to_index_array`
  row; :class:`ServiceBackend` takes it of each key row's placed cores.

Because contexts memoise weight-independent component vectors, one stored
vector serves every scalarisation — a weight sweep against a warm store
prices nothing.

Durability contract: writes are atomic (temp file + ``os.replace``, so
concurrent writers can interleave freely and readers never observe a torn
file), loads are corruption-tolerant (a truncated, garbled or
version-mismatched file is skipped with a :class:`StoreCorruptionWarning`
and treated as a miss — never an exception), a failed write (a full disk, a
read-only root) is a :class:`StoreWriteWarning` that leaves no temp file
behind, and an optional byte budget is enforced by evicting the oldest
entries first.

:class:`ServiceBackend` drains the store through the ordinary ``backend=``
seam of every evaluation context: it takes ``(m, len(core_order))`` int64
key rows and returns ``(m, k)`` float64 values; hits are answered from the
store, misses are priced inline by the context's chunk pricer and written
back.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import UNPLACED
from repro.eval.parallel import BatchBackend
from repro.noc.platform import Platform
from repro.noc.topology import topology_cache_token
from repro.utils.errors import ConfigurationError
from repro.utils.hashing import stable_digest

#: Version stamp written into every entry file.  Bump it when the entry
#: layout (or the semantics of stored vectors) changes; old files are then
#: skipped with a warning and transparently re-priced.
STORE_VERSION = 1


class StoreCorruptionWarning(UserWarning):
    """A store entry file was unreadable or stale and has been skipped.

    Emitted (never raised) when a load hits a truncated/garbled JSON file, a
    version-stamp mismatch or a malformed payload; the entry is treated as a
    cache miss and rebuilt by the next write.
    """


class StoreWriteWarning(UserWarning):
    """Entries could not be persisted and were kept in memory only.

    Emitted (never raised) when writing an entry fails with an ``OSError`` —
    a full disk, a read-only root.  The caller still gets its priced vectors;
    the failed entries are not counted in ``writes``, leave no temp file, and
    are priced again by a later run.
    """


@dataclass(frozen=True)
class StoreStats:
    """Counters of one :class:`ResultStore` instance.

    Attributes
    ----------
    hits, misses:
        Lookup outcomes (a hit from either tier counts once).
    memory_hits, disk_hits:
        Which tier answered the hits.
    writes:
        Entries written to disk (failed writes are not counted).
    evictions:
        Entry files deleted by byte-budget enforcement.
    corrupt_skipped:
        Unreadable or version-mismatched files skipped during loads.
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt_skipped: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def mapping_digest(mapping: Union[Mapping, Dict[str, int]]) -> str:
    """Stable digest of a candidate's core-to-tile assignment.

    SHA-256 over the sorted core names and the pinned
    :meth:`~repro.core.mapping.Mapping.to_index_array` row (sorted-core
    column order), so equal assignments digest equal regardless of how the
    mapping was built, and across processes.  Plain assignment dicts are
    accepted and validated through the :class:`~repro.core.mapping.Mapping`
    constructor.
    """
    if not isinstance(mapping, Mapping):
        mapping = Mapping(mapping)
    return _digest(mapping.cores, mapping.to_index_array())


def _key_digests(cores: Sequence[str], keys: np.ndarray) -> List[str]:
    """The :func:`mapping_digest` of the placed cores of each key row.

    A row that places every core of the sorted *cores* digests equal to the
    mapping that places exactly those cores.
    """
    return [
        _digest(list(compress(cores, placed)), row[placed])
        for row, placed in zip(keys, keys != UNPLACED)
    ]


def _digest(cores: Sequence[str], tiles: np.ndarray) -> str:
    """SHA-256 over the core names and their int64 tile row."""
    digest = hashlib.sha256()
    digest.update("\x1f".join(cores).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(tiles.tobytes())
    return digest.hexdigest()


def workload_digest(application: Any) -> str:
    """The ``content_hash()`` of an application graph (CWG or CDCG).

    Raises
    ------
    ConfigurationError
        When *application* exposes no ``content_hash()`` — the store cannot
        key results on an object without a stable content identity.
    """
    content = getattr(application, "content_hash", None)
    if not callable(content):
        raise ConfigurationError(
            f"{type(application).__name__!r} has no content_hash(); the "
            f"result store needs a stable workload identity (CWG/CDCG "
            f"provide one)"
        )
    return content()


def platform_digest(platform: Platform, include_local: bool = True) -> str:
    """Stable digest of everything a price can depend on in a platform.

    Extends the route-table cache key (topology token, routing token,
    technology, local-link flag) with the wormhole
    :class:`~repro.noc.platform.NocParameters` — route tables may ignore
    them, CDCM schedules cannot.
    """
    return stable_digest(
        (
            "platform",
            topology_cache_token(platform.mesh),
            _routing_token(platform.routing),
            platform.technology,
            platform.parameters,
            bool(include_local),
        )
    )


def _routing_token(routing: Any) -> Tuple:
    token = getattr(routing, "cache_token", None)
    if token is not None:
        return token
    cls = type(routing)
    return (cls.__module__, cls.__qualname__)


def scope_for_context(context: Any) -> str:
    """The store scope digest of an evaluation context.

    A *scope* is one pricing universe — every mapping digest inside it is
    priced by the same model over the same workload on the same platform, so
    ``(scope, mapping_digest)`` fully identifies a stored vector.  Supports
    the shipped contexts
    (:class:`~repro.eval.context.CwmEvaluationContext`, its load-aware
    subclass :class:`~repro.codesign.load.LoadAwareCwmContext`, whose
    vectors carry other components and so get a scope of their own, and
    :class:`~repro.eval.context.CdcmEvaluationContext`); CDCM scopes ignore
    scalarisation weights deliberately — stored vectors are component
    vectors, so every weight view shares one scope.
    """
    from repro.codesign.load import LoadAwareCwmContext
    from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext

    if isinstance(context, CwmEvaluationContext):
        model = "cwm+load" if isinstance(context, LoadAwareCwmContext) else "cwm"
        application = context.cwg
        include_local = context.include_local
    elif isinstance(context, CdcmEvaluationContext):
        model = "cdcm"
        application = context.cdcg
        include_local = context.evaluator.include_local
    else:
        raise ConfigurationError(
            f"cannot derive a store scope for {type(context).__name__!r}; "
            f"the result store supports CwmEvaluationContext and "
            f"CdcmEvaluationContext"
        )
    return stable_digest(
        (
            "scope",
            model,
            platform_digest(context.platform, include_local),
            workload_digest(application),
        )
    )


class ResultStore:
    """On-disk, atomically written, versioned cache of metric vectors.

    Layout: one directory per scope under *root*, one JSON file per mapping
    digest inside it, each stamped with :data:`STORE_VERSION`.  An in-memory
    LRU front (``memory_entries`` vectors) answers repeated lookups without
    touching the filesystem.

    Parameters
    ----------
    root:
        Directory the store lives in (created if missing).
    byte_budget:
        Optional cap on the total size of entry files; when a write pushes
        the store above it, the oldest entries (by modification time) are
        deleted until the store fits.  ``None`` (default) never evicts.
    memory_entries:
        Size of the in-memory LRU front (0 disables it).

    Notes
    -----
    Values survive bit-exactly: entry JSON stores each component via
    ``repr(float)`` round-tripping, so a cache hit equals a recompute to the
    last ulp — the property the service's bit-identity contract rests on
    (pinned by ``tests/test_service.py``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        byte_budget: Optional[int] = None,
        memory_entries: int = 4096,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise ConfigurationError(
                f"byte_budget must be positive (or None), got {byte_budget}"
            )
        if memory_entries < 0:
            raise ConfigurationError(
                f"memory_entries must be non-negative, got {memory_entries}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.byte_budget = byte_budget
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[Tuple[str, str], MetricVector]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._memory_hits = 0
        self._disk_hits = 0
        self._writes = 0
        self._evictions = 0
        self._corrupt_skipped = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, scope: str, digest: str) -> Optional[MetricVector]:
        """The stored vector for ``(scope, digest)``, or ``None`` on a miss.

        Checks the memory front first, then disk (promoting disk hits into
        the front).  Unreadable or version-mismatched files are skipped with
        a :class:`StoreCorruptionWarning` and reported as a miss.
        """
        key = (scope, digest)
        vector = self._memory.get(key)
        if vector is not None:
            self._memory.move_to_end(key)
            self._hits += 1
            self._memory_hits += 1
            return vector
        vector = self._load(scope, digest)
        if vector is None:
            self._misses += 1
            return None
        self._hits += 1
        self._disk_hits += 1
        self._remember(key, vector)
        return vector

    def get_many(
        self, scope: str, digests: Sequence[str]
    ) -> List[Optional[MetricVector]]:
        """Batch :meth:`get`: one optional vector per digest, in order."""
        return [self.get(scope, digest) for digest in digests]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, scope: str, digest: str, vector: MetricVector) -> None:
        """Persist one vector (atomic write, then memory-front insert).

        Concurrent writers of the same entry are safe: each writes a private
        temp file and installs it with ``os.replace``, and since both priced
        the same key their payloads are identical — last-rename-wins changes
        nothing.  A write that fails with an ``OSError`` is a
        :class:`StoreWriteWarning`, not an exception.
        """
        self.put_many(scope, [(digest, vector)])

    def put_many(
        self, scope: str, entries: Iterable[Tuple[str, MetricVector]]
    ) -> None:
        """Persist several ``(digest, vector)`` entries of one scope.

        Entries whose write fails are still remembered in the memory front;
        one :class:`StoreWriteWarning` reports them all.
        """
        failures: List[OSError] = []
        for digest, vector in entries:
            try:
                self._write(scope, digest, vector)
            except OSError as exc:
                failures.append(exc)
            self._remember((scope, digest), vector)
        if failures:
            warnings.warn(
                f"result store: {len(failures)} entry write(s) under "
                f"{self.root} failed ({failures[0]}); the vectors were "
                f"returned but will be priced again by a later run",
                StoreWriteWarning,
                stacklevel=2,
            )
        if self.byte_budget is not None:
            self._enforce_budget()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Current counters as an immutable :class:`StoreStats` snapshot."""
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            memory_hits=self._memory_hits,
            disk_hits=self._disk_hits,
            writes=self._writes,
            evictions=self._evictions,
            corrupt_skipped=self._corrupt_skipped,
        )

    def reset_stats(self) -> None:
        """Zero all counters (entries are untouched)."""
        self._hits = self._misses = 0
        self._memory_hits = self._disk_hits = 0
        self._writes = self._evictions = self._corrupt_skipped = 0

    def clear_memory(self) -> None:
        """Drop the in-memory front (disk entries are untouched).

        Used by tests to force the disk path, and by long-lived processes
        to shed memory between unrelated sweeps.
        """
        self._memory.clear()

    def disk_entries(self) -> int:
        """Number of entry files currently on disk."""
        return sum(1 for _ in self._entry_files())

    def disk_bytes(self) -> int:
        """Total size of all entry files, in bytes."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __repr__(self) -> str:
        return (
            f"ResultStore(root={str(self.root)!r}, "
            f"memory={len(self._memory)}/{self.memory_entries})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entry_path(self, scope: str, digest: str) -> Path:
        return self.root / scope / f"{digest}.json"

    def _entry_files(self) -> Iterable[Path]:
        if not self.root.exists():
            return
        for scope_dir in self.root.iterdir():
            if not scope_dir.is_dir():
                continue
            yield from scope_dir.glob("*.json")

    def _remember(self, key: Tuple[str, str], vector: MetricVector) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = vector
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _load(self, scope: str, digest: str) -> Optional[MetricVector]:
        path = self._entry_path(scope, digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            version = payload["version"]
            if version != STORE_VERSION:
                self._skip(path, f"version {version} != {STORE_VERSION}")
                return None
            names = payload["names"]
            values = payload["values"]
            if not isinstance(names, list) or not isinstance(values, list):
                self._skip(path, "malformed names/values payload")
                return None
            return MetricVector(names, values)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # json.JSONDecodeError is a ValueError; MetricVector construction
            # errors surface as ConfigurationError (a ValueError subclass is
            # not guaranteed, so it is listed via its own except below).
            self._skip(path, f"{type(exc).__name__}: {exc}")
            return None
        except ConfigurationError as exc:
            self._skip(path, f"invalid vector: {exc}")
            return None

    def _skip(self, path: Path, reason: str) -> None:
        self._corrupt_skipped += 1
        warnings.warn(
            f"result store: skipping unreadable entry {path} ({reason}); "
            f"the entry will be re-priced and rewritten",
            StoreCorruptionWarning,
            stacklevel=3,
        )

    def _write(self, scope: str, digest: str, vector: MetricVector) -> None:
        path = self._entry_path(scope, digest)
        payload = {
            "version": STORE_VERSION,
            "names": list(vector.names),
            "values": list(vector.values),
        }
        temp = path.with_name(
            f".{digest}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp, path)
        finally:
            if temp.exists():  # only on a failed dump/replace
                try:
                    temp.unlink()
                except OSError:
                    pass
        self._writes += 1

    def _enforce_budget(self) -> None:
        budget = self.byte_budget
        if budget is None:
            return
        entries: List[Tuple[float, Path, int]] = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        if total <= budget:
            return
        entries.sort(key=lambda item: (item[0], str(item[1])))
        for _, path, size in entries:
            if total <= budget:
                break
            try:
                # Another store over the same root may have evicted it
                # first; the file is gone either way.
                path.unlink(missing_ok=True)
            except OSError:
                continue
            total -= size
            self._evictions += 1
            self._memory.pop(
                (path.parent.name, path.stem), None
            )


class ServiceBackend(BatchBackend):
    """Store-draining batch backend: answer hits from the store, price misses.

    Wraps the ``backend=`` seam of
    :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`:
    for each batch it digests the candidates, looks them up in the
    :class:`ResultStore`, prices only the misses inline through the
    context's own chunk pricer — the serial reference arithmetic — and
    persists what it priced.

    Parameters
    ----------
    store:
        The persistent result store to drain and refill.

    Notes
    -----
    The per-context scope digest is cached in a ``WeakKeyDictionary``, so
    repeated batches from one context do not re-hash the workload.  The
    :attr:`priced` / :attr:`store_hits` counters let callers assert warm-path
    behaviour (a warm weight sweep must show a ``priced`` delta of zero).
    Generic :meth:`map` tasks have no store key and run serially.
    """

    name = "service"

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        #: Candidates actually priced (store misses), cumulative.
        self.priced = 0
        #: Candidates answered from the store, cumulative.
        self.store_hits = 0
        self._scopes: "weakref.WeakKeyDictionary[Any, str]" = (
            weakref.WeakKeyDictionary()
        )

    def _scope(self, context: Any) -> str:
        scope = self._scopes.get(context)
        if scope is None:
            scope = scope_for_context(context)
            self._scopes[context] = scope
        return scope

    def evaluate_metrics(self, context: Any, keys: np.ndarray) -> np.ndarray:
        """The values of the key rows *keys*: store hits + freshly priced misses.

        Store lookups and pricing both preserve submission order, and misses
        run the context's own chunk pricer, the one inline batches use, so
        the returned values are bit-identical to a recompute regardless of
        the hit pattern.
        """
        scope = self._scope(context)
        digests = _key_digests(context.core_order, keys)
        cached = self.store.get_many(scope, digests)
        names = tuple(context.metric_names)
        out = np.empty((len(keys), len(names)), dtype=np.float64)
        misses = []
        for position, vector in enumerate(cached):
            # A vector of other components (a subclass in its parent's scope)
            # is repriced, never broadcast into this context's columns.
            if vector is None or vector.names != names:
                misses.append(position)
            else:
                out[position] = vector.values
        self.store_hits += len(keys) - len(misses)
        if misses:
            priced = context._compute_rows_chunk(keys[misses])
            self.priced += len(misses)
            self.store.put_many(
                scope,
                [
                    (digests[position], MetricVector(names, values))
                    for position, values in zip(misses, priced.tolist())
                ],
            )
            out[misses] = priced
        return out

    def __repr__(self) -> str:
        return (
            f"ServiceBackend(store={self.store!r}, "
            f"hits={self.store_hits}, priced={self.priced})"
        )


__all__ = [
    "STORE_VERSION",
    "StoreCorruptionWarning",
    "StoreWriteWarning",
    "StoreStats",
    "ResultStore",
    "ServiceBackend",
    "mapping_digest",
    "workload_digest",
    "platform_digest",
    "scope_for_context",
]
