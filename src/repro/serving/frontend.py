"""Thread-based serving frontend: link scores and top-k recommendations.

:class:`ServingFrontend` is the in-process query surface of the online
loop.  Client threads call :meth:`score_link` / :meth:`top_k`; requests
flow through one :class:`~repro.serving.batching.BatchScheduler` per
request type, so concurrent callers share vectorized evaluations, and
top-k answers come from the :class:`~repro.serving.index
.RecommendationIndex` (blocked scan + generation-keyed LRU cache).

Fast path: a warm cached top-k bypasses the scheduler entirely — no
batching delay, zero GEMM work.  With ``index="ivf"`` an
:class:`~repro.serving.ann.IvfIndexManager` rebuilds a sub-linear IVF
index after every publish and top-k requests route through it (with
automatic exact fallback; a per-query ``mode=`` overrides the default
in either direction).  Everything is instrumented through the ambient
recorder: request counters per type, end-to-end latency histograms
(``serving.latency.*``), cache hit/miss, batch-size distribution,
snapshot-swap and ``serving.ann.*`` counters (see docs/serving.md for
the catalog).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import IvfConfig, IvfIndexManager
from repro.serving.batching import BatchFuture, BatchScheduler
from repro.serving.index import (
    EngineConfig,
    RecommendationIndex,
    TopK,
    link_scores,
)
from repro.serving.store import EmbeddingStore


@dataclass(frozen=True)
class ServingConfig(EngineConfig):
    """Knobs of the serving frontend.

    The query engine's settings (``default_k``, ``metric``,
    ``block_size``, ``cache_size``, ``index``, ``ann``) come from
    :class:`~repro.serving.index.EngineConfig`.  ``max_batch_size`` /
    ``max_delay`` bound each micro-batch (see :class:`BatchScheduler`);
    ``max_batch_size=1`` degenerates to the single-request path (every
    request is its own batch), which is the baseline the serving bench
    measures against.
    """

    max_batch_size: int = 64
    max_delay: float = 0.002

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_delay < 0:
            raise ServingError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )


class ServingFrontend:
    """Concurrent query frontend over an :class:`EmbeddingStore`."""

    def __init__(self, store: EmbeddingStore,
                 config: ServingConfig | None = None) -> None:
        self.store = store
        self.config = config or ServingConfig()
        self.ann: IvfIndexManager | None = None
        if self.config.index == "ivf" or self.config.ann is not None:
            self.ann = IvfIndexManager(
                store,
                config=self.config.ann or IvfConfig(),
                metric=self.config.metric,
            )
        self.index = RecommendationIndex(
            store,
            cache_size=self.config.cache_size,
            block_size=self.config.block_size,
            metric=self.config.metric,
            ann=self.ann,
            default_mode=self.config.index,
        )
        self._score_batcher = BatchScheduler(
            self._process_scores,
            max_batch_size=self.config.max_batch_size,
            max_delay=self.config.max_delay,
            name="link-score",
        )
        self._topk_batcher = BatchScheduler(
            self._process_topk,
            max_batch_size=self.config.max_batch_size,
            max_delay=self.config.max_delay,
            name="top-k",
        )

    @property
    def num_nodes(self) -> int:
        """Nodes in the served snapshot (the load generator's id space)."""
        return self.store.snapshot().num_nodes

    # ------------------------------------------------------------------
    def start(self) -> "ServingFrontend":
        """Start both schedulers (idempotent); returns self."""
        self._score_batcher.start()
        self._topk_batcher.start()
        return self

    def close(self) -> None:
        """Drain in-flight requests and stop the schedulers."""
        self._score_batcher.close()
        self._topk_batcher.close()
        if self.ann is not None:
            self.ann.close()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Link scoring
    # ------------------------------------------------------------------
    def score_link_async(self, src: int, dst: int) -> BatchFuture:
        """Enqueue one link-score request; resolves to a float."""
        return self._score_batcher.submit((int(src), int(dst)))

    def score_link(self, src: int, dst: int,
                   timeout: float | None = None) -> float:
        """Similarity score of the candidate edge ``(src, dst)``.

        The score is the embedding inner product — the §IV-B edge
        representation collapsed to a ranking scalar (no classifier
        head); higher means more likely.  Blocks until the micro-batch
        containing this request flushes.
        """
        rec = get_recorder()
        start = time.monotonic()
        result = float(self.score_link_async(src, dst).result(timeout))
        if rec.enabled:
            rec.counter("serving.requests.score")
            rec.observe("serving.latency.score_s", time.monotonic() - start)
        return result

    def _process_scores(self, payloads: list[tuple[int, int]]) -> np.ndarray:
        snapshot = self.store.snapshot()
        pairs = np.asarray(payloads, dtype=np.int64)
        if np.any(pairs < 0) or np.any(pairs >= snapshot.num_nodes):
            raise ServingError(
                f"link-score request out of range [0, {snapshot.num_nodes})"
            )
        return link_scores(snapshot.matrix[pairs[:, 0]],
                           snapshot.matrix[pairs[:, 1]])

    # ------------------------------------------------------------------
    # Top-k recommendation
    # ------------------------------------------------------------------
    def top_k_async(self, node: int, k: int | None = None,
                    mode: str | None = None) -> BatchFuture:
        """Enqueue a top-k request; resolves to ``(ids, scores)``.

        A warm cache hit resolves immediately without entering the
        scheduler (no batching delay, zero GEMM work).  ``mode``
        overrides the configured index for this one request:
        ``"exact"`` forces the brute-force oracle (full recall),
        ``"ivf"`` requests the approximate index (falls back to exact
        automatically when no index matches the served snapshot).
        """
        k = self.config.default_k if k is None else int(k)
        hit = self.index.cached(int(node), k, mode=mode)
        if hit is not None:
            return BatchFuture.resolved(hit)
        return self._topk_batcher.submit((int(node), k, mode))

    def top_k(self, node: int, k: int | None = None,
              timeout: float | None = None,
              mode: str | None = None) -> TopK:
        """Top-``k`` recommended nodes for ``node``, best first."""
        rec = get_recorder()
        start = time.monotonic()
        result = self.top_k_async(node, k, mode=mode).result(timeout)
        if rec.enabled:
            rec.counter("serving.requests.topk")
            rec.observe("serving.latency.topk_s", time.monotonic() - start)
        return result

    def _process_topk(self, payloads: list[tuple[int, int, str | None]]
                      ) -> list[TopK]:
        return self.index.top_k_batch(payloads)
