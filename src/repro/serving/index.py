"""Blocked top-k recommendation index with a generation-keyed LRU cache.

Top-k over the embedding matrix is the serving analogue of the paper's
similarity-driven downstream tasks: "who should node ``u`` connect to
next" is ``argmax_v f(u) . f(v)`` (§IV-B edge scoring without the
classifier head).  :class:`RecommendationIndex` evaluates it in blocks
of rows — bounded peak memory regardless of graph size, the same reason
the walk kernel processes CSR slices — and memoizes per-``(node, k)``
results in an LRU cache.

Two execution modes share the scoring/selection code:

- ``"exact"`` — the blocked full scan (the oracle): every row scored,
  ties broken by lower id;
- ``"ivf"`` — candidates come from an :class:`~repro.serving.ann
  .IvfIndex` (probe ``nprobe`` k-means cells), and only those rows run
  through the *same* blocked scorer.  Queries fall back to exact
  automatically when no index matches the pinned snapshot version
  (cold store, build in flight, store below ``min_index_nodes``) or the
  probed candidates cannot cover ``min(k, n - 1)`` results.

Both serving tiers run this one engine: a local row (the in-process
frontend) and a query vector shipped to a shard worker (:meth:`query`)
go through one single-query search, LRU and set of counters.

Cache entries are valid for exactly one
:class:`~repro.serving.store.EmbeddingSnapshot` *version* and one mode:
the first query after a publish observes the version bump and drops the
whole cache, so a stale top-k can never be served once new embeddings
are published, and an ``"exact"`` request can never be answered from an
approximate entry (the reverse is allowed — an exact answer has
recall 1).

Work accounting: ``serving.index.gemm_rows`` counts row-dot-products
evaluated; a warm cache hit adds exactly zero to it.  The ANN path
additionally books ``serving.ann.*`` (cells probed, candidates scored,
fallbacks, sampled recall).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import (
    INDEX_CHOICES,
    IvfConfig,
    IvfIndex,
    IvfIndexManager,
)
from repro.serving.store import EmbeddingSnapshot, EmbeddingStore

METRIC_CHOICES = ("dot", "cosine")

#: One cached result: (ids desc by score, scores) — both read-only.
TopK = tuple[np.ndarray, np.ndarray]

#: One request: ``(node, k)`` or ``(node, k, mode)`` with mode one of
#: :data:`~repro.serving.ann.INDEX_CHOICES` (None -> the index default).
TopKRequest = "tuple[int, int] | tuple[int, int, str | None]"

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """The query engine's settings, shared by both serving tiers.

    ``default_k`` is the top-k size when a request names none;
    ``metric``, ``block_size`` and ``cache_size`` (0 disables the LRU)
    configure the :class:`RecommendationIndex`.  ``index="ivf"`` routes
    top-k through the approximate IVF index (``ann`` holds its
    :class:`~repro.serving.ann.IvfConfig`, defaulted when omitted);
    ``index="exact"`` keeps the brute-force oracle as the default while
    still honoring per-query ``mode="ivf"`` overrides when ``ann`` is
    configured.
    """

    default_k: int = 10
    metric: str = "dot"
    block_size: int = 8192
    cache_size: int = 4096
    index: str = "exact"
    ann: IvfConfig | None = None

    def __post_init__(self) -> None:
        if self.default_k < 1:
            raise ServingError(f"default_k must be >= 1, got {self.default_k}")
        check_engine_settings(metric=self.metric, block_size=self.block_size,
                              cache_size=self.cache_size, index=self.index)


def check_engine_settings(*, metric: str, block_size: int, cache_size: int,
                          index: str) -> None:
    """The one validation of the settings :class:`RecommendationIndex`
    takes, run by its constructor and by every :class:`EngineConfig`."""
    if metric not in METRIC_CHOICES:
        raise ServingError(
            f"unknown metric {metric!r}; options: {list(METRIC_CHOICES)}"
        )
    if block_size < 1:
        raise ServingError(f"block_size must be >= 1, got {block_size}")
    if cache_size < 0:
        raise ServingError(f"cache_size must be >= 0, got {cache_size}")
    if index not in INDEX_CHOICES:
        raise ServingError(
            f"unknown index mode {index!r}; options: {list(INDEX_CHOICES)}"
        )


def link_scores(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Scores of the candidate edges ``(src[i], dst[i])``: the §IV-B
    embedding inner product.  Both tiers score through this one einsum,
    so a sharded score (one row shipped) is bit-identical to a local
    one."""
    return np.einsum("bd,bd->b", src, dst)


class RecommendationIndex:
    """Cached blocked top-k over the currently served embeddings."""

    def __init__(
        self,
        store: EmbeddingStore,
        cache_size: int = 4096,
        block_size: int = 8192,
        metric: str = "dot",
        ann: IvfIndexManager | None = None,
        default_mode: str | None = None,
    ) -> None:
        if default_mode is None:
            default_mode = "ivf" if ann is not None else "exact"
        check_engine_settings(metric=metric, block_size=block_size,
                              cache_size=cache_size, index=default_mode)
        if default_mode == "ivf" and ann is None:
            raise ServingError("default_mode='ivf' requires an ann manager")
        self.store = store
        self.cache_size = cache_size
        self.block_size = block_size
        self.metric = metric
        self.ann = ann
        self.default_mode = default_mode
        self._lock = threading.Lock()
        self._cache: OrderedDict[tuple[int, int, str], TopK] = OrderedDict()
        self._cache_version: int = -1
        self._ann_query_count = 0

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _sync_version(self, snapshot: EmbeddingSnapshot) -> None:
        """Drop every entry computed against an older snapshot.

        Caller must hold the lock.  Runs on the query path, so the
        first read after a publish — not the publish itself — pays the
        O(1) clear; publishes stay wait-free.  Only ever advances: a
        reader holding an older snapshot than the cache must not roll
        the cache back to it.
        """
        if self._cache_version < snapshot.version:
            self._cache.clear()
            self._cache_version = snapshot.version

    def _resolve_mode(self, mode: str | None) -> str:
        if mode is None:
            return self.default_mode
        if mode not in INDEX_CHOICES:
            raise ServingError(
                f"unknown index mode {mode!r}; options: {list(INDEX_CHOICES)}"
            )
        if mode == "ivf" and self.ann is None:
            raise ServingError(
                "index mode 'ivf' requested but no ANN manager is attached"
            )
        return mode

    def cached(self, node: int, k: int,
               snapshot: EmbeddingSnapshot | None = None,
               mode: str | None = None) -> TopK | None:
        """Return the cached result for ``(node, k, mode)`` or None.

        Only results computed against ``snapshot``'s version qualify
        (the *current* store snapshot when omitted); a hit refreshes
        LRU recency and counts as ``serving.index.cache_hits``.
        Passing an explicit snapshot pins a multi-request batch to one
        version: a publish landing mid-batch cannot mix newer cache
        hits into a batch computed against the older snapshot.  An
        ``"ivf"`` lookup may also be answered by an ``"exact"`` entry
        (exact answers have recall 1); the reverse never happens.
        """
        mode = self._resolve_mode(mode)
        if snapshot is None:
            snapshot = self.store.snapshot()
        with self._lock:
            self._sync_version(snapshot)
            if self._cache_version != snapshot.version:
                # The cache has moved past this snapshot's version; its
                # entries would answer from a different generation.
                return None
            hit = self._cache.get((node, k, mode))
            if hit is None and mode == "ivf":
                hit = self._cache.get((node, k, "exact"))
                if hit is not None:
                    self._cache.move_to_end((node, k, "exact"))
            elif hit is not None:
                self._cache.move_to_end((node, k, mode))
            if hit is None:
                return None
        get_recorder().counter("serving.index.cache_hits")
        return hit

    def _fill(self, snapshot: EmbeddingSnapshot, node: int, k: int,
              mode: str, result: TopK) -> None:
        with self._lock:
            if self._cache_version != snapshot.version or self.cache_size == 0:
                return
            self._cache[(node, k, mode)] = result
            self._cache.move_to_end((node, k, mode))
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                get_recorder().counter("serving.index.cache_evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_k(self, node: int, k: int, mode: str | None = None) -> TopK:
        """Top-``k`` nodes for ``node`` (self excluded), best first."""
        hit = self.cached(node, k, mode=mode)
        if hit is not None:
            return hit
        return self.top_k_batch([(node, k, mode)])[0]

    def top_k_batch(self, requests: "list[TopKRequest]") -> list[TopK]:
        """Serve many requests with shared block scans.

        Each request is ``(node, k)`` or ``(node, k, mode)``.  Cache
        hits are answered in place; the remaining distinct exact
        requests of each ``k`` share one blocked pass over the matrix,
        which is what makes micro-batched top-k amortize, while ANN
        requests score only their probed candidate rows.  The whole
        batch answers from the one snapshot taken here — cache lookups
        and the ANN index are pinned to its version, so a publish (or
        an index build) racing the batch can never mix results from two
        embedding generations in one response.
        """
        snapshot = self.store.snapshot()
        rec = get_recorder()
        results: dict[int, TopK] = {}
        exact_misses: dict[int, list[int]] = {}
        for i, request in enumerate(requests):
            node, k = int(request[0]), int(request[1])
            mode = self._resolve_mode(
                request[2] if len(request) > 2 else None  # type: ignore[misc]
            )
            self._validate(snapshot, node, k)
            hit = self.cached(node, k, snapshot, mode)
            if hit is not None:
                results[i] = hit
                continue
            ann_index = self._ivf_index(snapshot, mode)
            if ann_index is not None:
                results[i] = self._search(snapshot, ann_index, k, node,
                                          None, node)
                continue
            exact_misses.setdefault(k, []).append(i)

        for k, indices in exact_misses.items():
            nodes = []
            for i in indices:
                node = int(requests[i][0])
                if node not in nodes:
                    nodes.append(node)
            rec.counter("serving.index.cache_misses", len(nodes))
            rows = np.asarray(nodes, dtype=np.int64)
            ids, scores = self._compute_many(
                snapshot, k, snapshot.matrix[rows], snapshot.norms[rows],
                rows,
            )
            computed: dict[int, TopK] = {}
            for column, node in enumerate(nodes):
                result = _frozen(ids[:, column], scores[:, column])
                computed[node] = result
                self._fill(snapshot, node, k, "exact", result)
            for i in indices:
                results[i] = computed[int(requests[i][0])]
        return [results[i] for i in range(len(requests))]

    def query(self, snapshot: EmbeddingSnapshot, k: int, vector: np.ndarray,
              key: int, row: int = -1) -> TopK:
        """Top-``k`` rows of ``snapshot`` for a shipped query vector.

        The sharded scatter path: ``vector`` is the query node's row,
        fetched from the shard that owns it, and ``row`` its local row
        here (excluded from the result), or -1 when another shard owns
        it.  The result is cached under ``key`` (the global query node
        id), so look it up with :meth:`cached` first.  The default mode,
        the IVF fallback rule, the counters and recall sampling are
        those of :meth:`top_k_batch`.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (snapshot.dim,) or k < 1:
            raise ServingError(
                f"bad query: vector shape {vector.shape} for dim "
                f"{snapshot.dim}, k={k}"
            )
        return self._search(snapshot,
                            self._ivf_index(snapshot, self.default_mode),
                            k, row, vector, key)

    def _validate(self, snapshot: EmbeddingSnapshot, node: int,
                  k: int) -> None:
        if not 0 <= node < snapshot.num_nodes:
            raise ServingError(
                f"node {node} out of range [0, {snapshot.num_nodes})"
            )
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")

    # ------------------------------------------------------------------
    # The single-query path (ANN with exact fallback)
    # ------------------------------------------------------------------
    def _ivf_index(self, snapshot: EmbeddingSnapshot,
                   mode: str) -> IvfIndex | None:
        """The IVF index serving ``mode`` on ``snapshot``, or None (exact).

        An ``"ivf"`` query finding no index for its pinned version
        (cold store, build in flight, store below ``min_index_nodes``)
        books a ``no_index`` fallback.
        """
        if mode != "ivf":
            return None
        index = self.ann.index_for(snapshot)
        if index is None:
            rec = get_recorder()
            rec.counter("serving.ann.fallbacks")
            rec.counter("serving.ann.fallbacks.no_index")
        return index

    def _search(self, snapshot: EmbeddingSnapshot,
                ann_index: IvfIndex | None, k: int, row: int,
                vector: np.ndarray | None, key: int) -> TopK:
        """Score one query: probed IVF candidates, else the full scan.

        The query is the local row ``row`` (``vector`` None) or the
        shipped ``vector``; the result is cached under ``key``.  The
        probed candidates must fill ``k_eff`` results, where the query's
        own row uses up a candidate only when it is local (``row >=
        0``); otherwise the query falls back to the exact scan, so an
        ANN answer always has the shape of the exact one.
        """
        rec = get_recorder()
        rec.counter("serving.index.cache_misses")
        exclude = np.asarray([row], dtype=np.int64)
        if vector is None:
            queries = snapshot.matrix[exclude]
            norms = snapshot.norms[exclude]
        else:
            queries = vector[None, :]
            # Same per-row reduction as the snapshot's own norms, so a
            # shipped copy of a row scores bit-identically to the row.
            norms = np.linalg.norm(queries, axis=1)
        candidates = None
        if ann_index is not None:
            if vector is None:
                candidates, probed = ann_index.candidate_rows(row)
            else:
                candidates, probed = ann_index.candidate_rows_for(vector)
            n = snapshot.num_nodes
            k_eff = min(k, n - 1 if row >= 0 else n)
            pos = int(np.searchsorted(candidates, row))
            local = pos < len(candidates) and int(candidates[pos]) == row
            if len(candidates) - local < k_eff:
                rec.counter("serving.ann.fallbacks")
                rec.counter("serving.ann.fallbacks.insufficient_candidates")
                candidates = None
            else:
                rec.counter("serving.ann.queries")
                rec.counter("serving.ann.cells_probed", probed)
                rec.counter("serving.ann.candidates_scored", len(candidates))
        ids, scores = self._compute_many(snapshot, k, queries, norms,
                                         exclude, row_ids=candidates)
        result = _frozen(ids[:, 0], scores[:, 0])
        if candidates is not None:
            self._maybe_sample_recall(snapshot, k, queries, norms, exclude,
                                      result)
        self._fill(snapshot, key, k, "exact" if candidates is None else "ivf",
                   result)
        return result

    def _maybe_sample_recall(self, snapshot: EmbeddingSnapshot, k: int,
                             queries: np.ndarray, norms: np.ndarray,
                             exclude: np.ndarray, result: TopK) -> None:
        """Shadow-check every N-th ANN answer against the oracle."""
        every = self.ann.config.recall_sample_every if self.ann else 0
        if every <= 0:
            return
        with self._lock:
            self._ann_query_count += 1
            due = self._ann_query_count % every == 0
        if not due:
            return
        exact_ids, _ = self._compute_many(snapshot, k, queries, norms,
                                          exclude)
        k_eff = len(exact_ids)
        recall = 1.0
        if k_eff:
            overlap = np.intersect1d(result[0], exact_ids[:, 0])
            recall = len(overlap) / k_eff
        rec = get_recorder()
        rec.counter("serving.ann.recall_samples")
        rec.observe("serving.ann.recall_at_k", recall)

    # ------------------------------------------------------------------
    @staticmethod
    def _select_top(block_scores: np.ndarray, take: int) -> np.ndarray:
        """Row offsets of the top ``take`` scores per column.

        Exact total order: descending score, ties broken by *lower row
        offset* (= lower node id, since blocks are id-ascending).  A
        plain ``argpartition`` keeps an arbitrary subset of boundary
        ties, which silently violated the documented lower-id tie-break
        on duplicate-heavy matrices; the threshold + cumulative-count
        selection below admits exactly the lowest-id ties instead, for
        one extra cheap pass over the block.
        """
        rows, columns = block_scores.shape
        if take >= rows:
            return np.broadcast_to(
                np.arange(rows, dtype=np.int64)[:, None], (rows, columns)
            )
        kth = np.partition(block_scores, rows - take, axis=0)[rows - take]
        above = block_scores > kth
        need = take - above.sum(axis=0)
        tied = block_scores == kth
        selected = above | (tied & (np.cumsum(tied, axis=0) <= need))
        # Exactly ``take`` per column; nonzero on the transpose walks
        # column-major, rows ascending within each column.
        offsets = np.nonzero(selected.T)[1]
        return offsets.reshape(columns, take).T

    def _compute_many(self, snapshot: EmbeddingSnapshot, k: int,
                      query_rows: np.ndarray, query_norms: np.ndarray,
                      exclude: np.ndarray,
                      row_ids: np.ndarray | None = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Blocked top-k for ``m`` distinct queries at once.

        ``query_rows`` (shape ``(m, d)``) are the query vectors — local
        rows, or a shipped vector on the sharded scatter path — and
        ``query_norms`` their norms.  ``exclude`` carries one row id per
        query to mask (its own row; -1 = not local).  Returns ``(ids,
        scores)`` of shape ``(k_eff, m)`` with each column sorted
        best-first (ties broken by lower id).  Peak memory is
        O(block_size * m) however large the matrix is.

        ``row_ids`` (sorted ascending) restricts scoring to a candidate
        subset — the ANN path.  A block of consecutive ids is detected
        and served from a contiguous slice, so candidates covering the
        whole id range (``nprobe = nlist``) run the *identical*
        block/GEMM/selection sequence as the full scan and return
        bit-identical results.
        """
        rec = get_recorder()
        matrix = snapshot.matrix
        n = snapshot.num_nodes
        m = len(query_rows)
        # Self-exclusion consumes one candidate; a query with no local
        # exclusion row (remote shard) can use all n.
        k_eff = min(k, n - 1) if bool(np.all(exclude >= 0)) else min(k, n)
        if k_eff <= 0:
            empty = np.empty((0, m), dtype=np.int64)
            return empty, np.empty((0, m), dtype=np.float64)
        queries = query_rows.T  # (d, m)
        if self.metric == "cosine":
            qnorm = np.where(query_norms == 0.0, 1.0, query_norms)
        total = n if row_ids is None else len(row_ids)
        cand_ids: list[np.ndarray] = []
        cand_scores: list[np.ndarray] = []
        for start in range(0, total, self.block_size):
            stop = min(total, start + self.block_size)
            if row_ids is None:
                ids_block = None
                rows = matrix[start:stop]
                row_norms = snapshot.norms[start:stop]
            else:
                ids_block = row_ids[start:stop]
                lo, hi = int(ids_block[0]), int(ids_block[-1])
                if hi - lo + 1 == len(ids_block):  # consecutive run
                    rows = matrix[lo:hi + 1]
                    row_norms = snapshot.norms[lo:hi + 1]
                else:
                    rows = matrix[ids_block]
                    row_norms = snapshot.norms[ids_block]
            if m == 1:
                # Per-row deterministic kernel: einsum's reduction order
                # depends only on d, never on the block's row count,
                # where BLAS GEMV picks shape-dependent accumulation
                # orders.  Single-query scores are therefore a pure
                # function of (row bits, query bits) — the property that
                # makes a shard worker scoring its slice bit-identical
                # to this oracle scanning the full matrix.
                block_scores = np.einsum("nd,dm->nm", rows, queries)
            else:
                block_scores = rows @ queries  # (bs, m)
            rec.counter("serving.index.gemm_rows", (stop - start) * m)
            if self.metric == "cosine":
                norms = np.where(row_norms == 0.0, 1.0, row_norms)
                denom = norms[:, None] * qnorm[None, :]
                # Two tiny-but-nonzero norms can *underflow* to a zero
                # product even though both factors passed the zero
                # guard; dividing by it put NaN into the ordering.
                np.maximum(denom, _TINY, out=denom)
                block_scores /= denom
            # Self-exclusion: a query node inside this block never
            # recommends itself (-1 entries never match any block).
            if ids_block is None:
                inside = (exclude >= start) & (exclude < stop)
                positions = exclude[inside] - start
            else:
                found = np.searchsorted(ids_block, exclude)
                found = np.minimum(found, len(ids_block) - 1)
                inside = ids_block[found] == exclude
                positions = found[inside]
            block_scores[positions, np.flatnonzero(inside)] = -np.inf
            bs = stop - start
            take = min(k_eff, bs)
            part = self._select_top(block_scores, take)
            if ids_block is None:
                cand_ids.append(part + start)
            else:
                cand_ids.append(ids_block[part])
            cand_scores.append(
                np.take_along_axis(block_scores, part, axis=0)
            )
        pool_ids = np.concatenate(cand_ids, axis=0)
        pool_scores = np.concatenate(cand_scores, axis=0)
        out_k = min(k_eff, len(pool_ids))
        out_ids = np.empty((out_k, m), dtype=np.int64)
        out_scores = np.empty((out_k, m), dtype=np.float64)
        for column in range(m):
            order = np.lexsort(
                (pool_ids[:, column], -pool_scores[:, column])
            )[:out_k]
            out_ids[:, column] = pool_ids[order, column]
            out_scores[:, column] = pool_scores[order, column]
        return out_ids, out_scores


def _frozen(ids: np.ndarray, scores: np.ndarray) -> TopK:
    """A read-only copy of one result column (safe to cache and share)."""
    result = (ids.copy(), scores.copy())
    result[0].setflags(write=False)
    result[1].setflags(write=False)
    return result
