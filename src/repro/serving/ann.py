"""IVF approximate top-k: sub-linear queries over published embeddings.

The exact :class:`~repro.serving.index.RecommendationIndex` scans every
row per query — O(nodes) GEMM work, which caps the "heavy traffic"
scenario at laptop node counts.  This module adds the classic inverted-
file (IVF) alternative in pure numpy:

- **build** (once per published snapshot): a coarse quantizer — k-means
  cells fit with deterministic seeded Lloyd iterations on a training
  sample, then one blocked assignment pass puts every row into exactly
  one cell (a partition; ids ascending within each cell);
- **query**: rank the ``nlist`` centroids against the query embedding,
  probe the best ``nprobe`` cells, and score only their member rows
  exactly — the same blocked scoring/tie-break code as the brute-force
  oracle, restricted to the candidate rows.  Expected work per query is
  ``nlist + n * nprobe / nlist`` rows instead of ``n``.

Correctness contract (pinned by ``tests/test_serving_ann.py``):

- ``nprobe >= nlist`` probes every cell; because the cells partition the
  id space, the candidate list is exactly ``0..n-1`` and the result is
  *bit-identical* to the exact path — same scores, same lower-id
  tie-breaks;
- partial probes trade recall for speed; the brute-force path stays the
  oracle (``bench_ann_topk`` measures recall@k against it) and remains
  the automatic fallback for small stores, ``k`` exhausting the indexed
  rows, and queries racing an in-progress build.

Version pinning: an :class:`IvfIndex` is immutable and belongs to
exactly one :class:`~repro.serving.store.EmbeddingSnapshot` version.
:class:`IvfIndexManager` subscribes to the store's publish hook and
(re)builds asynchronously; a query pins one snapshot, and the manager
hands back an index only when ``index.version == snapshot.version`` —
so a publish racing a build or a query can never pair one generation's
cell lists with another generation's matrix (the same invariant the
LRU cache enforces via version-keyed entries).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.store import EmbeddingSnapshot, EmbeddingStore

#: Index modes a query may request (``ServingFrontend(index=...)`` and
#: the per-query override).
INDEX_CHOICES = ("exact", "ivf")

_ASSIGN_BLOCK = 16_384  # rows per blocked cell-assignment GEMM


@dataclass(frozen=True)
class IvfConfig:
    """Knobs of the IVF coarse quantizer.

    ``nlist=None`` auto-sizes the cell count to ``~sqrt(n)`` at build
    time.  ``nprobe`` cells are scanned per query (``nprobe >= nlist``
    degenerates to an exact full scan).  ``train_iters`` Lloyd
    iterations run over at most ``train_sample`` seeded-sampled rows.
    Stores smaller than ``min_index_nodes`` are never indexed — the
    exact path is already fast there and stays the automatic fallback.
    ``recall_sample_every > 0`` shadow-checks every N-th ANN query
    against the oracle and records the observed recall
    (``serving.ann.recall_at_k``).
    """

    nlist: int | None = None
    nprobe: int = 8
    train_iters: int = 8
    train_sample: int = 16_384
    min_index_nodes: int = 512
    seed: int = 0
    recall_sample_every: int = 0

    def __post_init__(self) -> None:
        if self.nlist is not None and self.nlist < 1:
            raise ServingError(f"nlist must be >= 1, got {self.nlist}")
        if self.nprobe < 1:
            raise ServingError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.train_iters < 0:
            raise ServingError(
                f"train_iters must be >= 0, got {self.train_iters}"
            )
        if self.train_sample < 1:
            raise ServingError(
                f"train_sample must be >= 1, got {self.train_sample}"
            )
        if self.min_index_nodes < 1:
            raise ServingError(
                f"min_index_nodes must be >= 1, got {self.min_index_nodes}"
            )
        if self.recall_sample_every < 0:
            raise ServingError(
                "recall_sample_every must be >= 0, got "
                f"{self.recall_sample_every}"
            )


def _guard_norms(norms: np.ndarray) -> np.ndarray:
    """Zero norms -> 1 so degenerate rows divide to 0, never NaN."""
    return np.where(norms == 0.0, 1.0, norms)


def _nearest_cell(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Blocked argmin-L2 assignment (ties -> lowest cell id).

    ``argmin ||x - c||^2 == argmax (x.c - ||c||^2 / 2)`` — one GEMM per
    block instead of materializing an ``(n, nlist)`` distance matrix.
    """
    half_sq = 0.5 * np.einsum("cd,cd->c", centroids, centroids)
    out = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), _ASSIGN_BLOCK):
        stop = min(len(points), start + _ASSIGN_BLOCK)
        affinity = points[start:stop] @ centroids.T
        affinity -= half_sq[None, :]
        out[start:stop] = np.argmax(affinity, axis=1)
    return out


class IvfIndex:
    """Immutable IVF cell structure for exactly one snapshot version."""

    __slots__ = (
        "snapshot", "version", "metric", "nlist", "nprobe", "centroids",
        "cells", "build_seconds", "nbytes", "_rank_centroids",
    )

    def __init__(self, snapshot: EmbeddingSnapshot, metric: str,
                 nprobe: int, centroids: np.ndarray,
                 cells: list[np.ndarray], build_seconds: float) -> None:
        self.snapshot = snapshot
        self.version = snapshot.version
        self.metric = metric
        self.nlist = len(cells)
        self.nprobe = min(nprobe, self.nlist)
        self.centroids = centroids
        self.cells = cells
        self.build_seconds = build_seconds
        self.nbytes = centroids.nbytes + sum(c.nbytes for c in cells)
        if metric == "cosine":
            cnorm = _guard_norms(np.linalg.norm(centroids, axis=1))
            self._rank_centroids = centroids / cnorm[:, None]
        else:
            self._rank_centroids = centroids

    @property
    def num_indexed(self) -> int:
        """Rows covered by the cells (the whole snapshot: a partition)."""
        return self.snapshot.num_nodes

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, snapshot: EmbeddingSnapshot, config: IvfConfig,
              metric: str = "dot") -> "IvfIndex":
        """Deterministic seeded build: same snapshot -> same cells."""
        start = time.perf_counter()
        n = snapshot.num_nodes
        if metric == "cosine":
            # Cluster directions, not magnitudes; zero rows stay at the
            # origin and land in whichever cell argmax ties lowest.
            points = snapshot.matrix / _guard_norms(snapshot.norms)[:, None]
        else:
            points = snapshot.matrix
        nlist = config.nlist
        if nlist is None:
            nlist = int(round(float(n) ** 0.5))
        nlist = max(1, min(nlist, n))

        rng = np.random.default_rng(config.seed)
        sample_size = min(n, max(config.train_sample, nlist))
        if sample_size < n:
            sample_ids = np.sort(rng.choice(n, size=sample_size,
                                            replace=False))
            train = points[sample_ids]
        else:
            train = points
        init = np.sort(rng.choice(len(train), size=nlist, replace=False))
        centroids = np.array(train[init], dtype=np.float64, copy=True)

        for _ in range(config.train_iters):
            assign = _nearest_cell(train, centroids)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assign, train)
            counts = np.bincount(assign, minlength=nlist)
            filled = counts > 0
            # Empty cells keep their previous centroid (and may stay
            # empty — probing one yields zero candidates, an edge case
            # the query path must tolerate).
            centroids[filled] = sums[filled] / counts[filled, None]

        assign = _nearest_cell(points, centroids)
        order = np.argsort(assign, kind="stable")  # ids ascend per cell
        bounds = np.searchsorted(assign[order], np.arange(nlist + 1))
        cells = []
        for j in range(nlist):
            cell = np.ascontiguousarray(order[bounds[j]:bounds[j + 1]])
            cell.setflags(write=False)
            cells.append(cell)
        centroids.setflags(write=False)
        return cls(snapshot, metric, config.nprobe, centroids, cells,
                   time.perf_counter() - start)

    # ------------------------------------------------------------------
    def probe_order(self, node: int) -> np.ndarray:
        """All cell ids best-first for ``node`` (ties -> lower cell id)."""
        return self.probe_order_for(self.snapshot.matrix[node])

    def probe_order_for(self, query: np.ndarray) -> np.ndarray:
        """All cell ids best-first for a raw query vector.

        The sharded tier routes mostly *remote* query nodes through a
        shard's index — the query row lives on another shard, so the
        probe ranks cells against the shipped vector instead of a local
        row.  ``probe_order(node)`` is exactly this on the node's own
        row.
        """
        affinity = self._rank_centroids @ np.asarray(query,
                                                     dtype=np.float64)
        return np.lexsort((np.arange(self.nlist), -affinity))

    def candidate_rows(self, node: int, nprobe: int | None = None
                       ) -> tuple[np.ndarray, int]:
        """Sorted candidate row ids from the best ``nprobe`` cells.

        Returns ``(row_ids ascending, cells_probed)``.  With
        ``nprobe >= nlist`` the cells' union is exactly ``0..n-1`` (the
        cells partition the id space), which is what makes exact-mode
        IVF bit-identical to the brute-force path.
        """
        return self.candidate_rows_for(self.snapshot.matrix[node], nprobe)

    def candidate_rows_for(self, query: np.ndarray,
                           nprobe: int | None = None
                           ) -> tuple[np.ndarray, int]:
        """:meth:`candidate_rows` for a raw query vector."""
        nprobe = self.nprobe if nprobe is None else nprobe
        nprobe = max(1, min(nprobe, self.nlist))
        probed = self.probe_order_for(query)[:nprobe]
        candidates = np.concatenate([self.cells[j] for j in probed])
        candidates.sort()
        return candidates, int(nprobe)


class IvfIndexManager:
    """Builds one :class:`IvfIndex` per published snapshot, off-thread.

    Subscribes to the store's publish hook.  Builds coalesce: while one
    build runs, newer publishes overwrite the single pending slot, so a
    burst of publishes costs one (latest) rebuild, and intermediate
    versions are skipped.  :meth:`index_for` only returns an index whose
    version matches the caller's pinned snapshot — a stale or mid-build
    index is never paired with a newer matrix.
    """

    def __init__(self, store: EmbeddingStore,
                 config: IvfConfig | None = None,
                 metric: str = "dot") -> None:
        self.store = store
        self.config = config or IvfConfig()
        self.metric = metric
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._index: IvfIndex | None = None
        self._failed = -1  # newest snapshot version whose build raised
        self._pending: EmbeddingSnapshot | None = None
        self._thread: threading.Thread | None = None
        self._closed = False
        store.subscribe(self._on_publish)
        if not store.empty:
            self._on_publish(store.snapshot())

    # ------------------------------------------------------------------
    def _on_publish(self, snapshot: EmbeddingSnapshot) -> None:
        if snapshot.num_nodes < self.config.min_index_nodes:
            # Small store: stay on the exact path (cold fallback).
            get_recorder().counter("serving.ann.skipped_small")
            return
        with self._lock:
            if self._closed:
                return
            self._pending = snapshot
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="ann-index-build", daemon=True
                )
                self._thread.start()

    def _run(self) -> None:
        while True:
            with self._lock:
                snapshot, self._pending = self._pending, None
                if snapshot is None or self._closed:
                    self._thread = None
                    self._cv.notify_all()
                    return
            rec = get_recorder()
            try:
                index = IvfIndex.build(snapshot, self.config, self.metric)
            except Exception:  # keep serving the previous index
                rec.counter("serving.ann.build_errors")
                with self._lock:
                    self._failed = max(self._failed, snapshot.version)
                    self._cv.notify_all()
                continue
            with self._lock:
                # Monotone install: a slow build can never roll back a
                # newer index that somehow landed first.
                if self._index is None or index.version > self._index.version:
                    self._index = index
                self._cv.notify_all()
            rec.counter("serving.ann.builds")
            rec.observe("serving.ann.build_seconds", index.build_seconds)
            rec.gauge("serving.ann.bytes", index.nbytes)
            rec.gauge("serving.ann.version", index.version)

    # ------------------------------------------------------------------
    def index_for(self, snapshot: EmbeddingSnapshot) -> IvfIndex | None:
        """The index matching ``snapshot``'s version, or None.

        None means fall back to the exact path: no build yet, a build
        still in flight, or the store is too small to index.
        """
        index = self._index  # atomic reference read
        if index is not None and index.version == snapshot.version:
            return index
        return None

    @property
    def current(self) -> IvfIndex | None:
        """Latest installed index regardless of the served version."""
        return self._index

    def wait_ready(self, version: int | None = None,
                   timeout: float | None = None) -> bool:
        """Block until an index for ``version`` (default: the store's
        current version) or newer is installed; False on timeout, and
        at once when the build for ``version`` or a newer one raised."""
        if version is None:
            version = self.store.version
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._cv:
            while self._index is None or self._index.version < version:
                if self._closed or self._failed >= version:
                    return False
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
            return True

    def close(self) -> None:
        """Stop accepting builds (the daemon builder drains and exits)."""
        with self._lock:
            self._closed = True
            self._pending = None
            self._cv.notify_all()
