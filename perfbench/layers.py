"""Per-layer spans: which public calls are wrapped, and the metrics
derived from them.

Every per-layer metric is reported on every workload; a layer a
workload never reaches reads 0, which is itself the prediction that an
optimisation of that layer leaves the workload alone.
"""

from __future__ import annotations

import time

import numpy as np

from spans import Tracer

# name -> unit, in BENCHMARK.json order.
METRICS = {
    "graph.csr_build_s": "s",
    "graph.append_s": "s",
    "graph.snapshot_s": "s",
    "walk.run_s": "s",
    "walk.hops": "count",
    "walk.hops_per_s": "1/s",
    "sgns.train_s": "s",
    "sgns.setup_self_s": "s",
    "sgns.pairs_s": "s",
    "sgns.pairs_calls": "count",
    "sgns.negatives_s": "s",
    "sgns.gradient_s": "s",
    "sgns.scatter_s": "s",
    "sgns.pairs_trained": "count",
    "sgns.pairs_per_s": "1/s",
    "task.data_prep_s": "s",
    "task.train_s": "s",
    "task.test_s": "s",
    "task.epochs": "count",
    "stream.wal_append_s": "s",
    "stream.queue_wait_s": "s",
    "stream.backlog_edges_max": "count",
    "stream.refresh_s": "s",
    "stream.affected_nodes": "count",
    "stream.walks": "count",
    "store.publish_s": "s",
    "shard.install_s": "s",
    "shard.router_s": "s",
    "shard.worker_s": "s",
    "shard.rpc_overhead_ms": "ms",
    "serving.queue_wait_s": "s",
    "serving.batch_size": "count",
    "serving.scan_s": "s",
    "serving.scan_gbps": "GB/s",
    "serving.memcpy_gbps": "GB/s",
    "serving.cache_hit_ratio": "ratio",
    "ann.build_s": "s",
    "ann.candidates_per_query": "count",
    "gen.late_max_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# Root span of one linkpred-wiki pipeline run; every other linkpred span
# nests under it, so its self time is what no layer accounts for.
LINKPRED_ROOT = "linkpred.run"


def install(tracer: Tracer) -> None:
    """Wrap the public call at each layer boundary."""
    from repro.embedding import batched
    from repro.embedding.batched import BatchedSgnsTrainer
    from repro.embedding.negative import NegativeSampler
    from repro.embedding.skipgram import SkipGramModel
    from repro.graph.csr import TemporalGraph
    from repro.graph.dynamic import DynamicTemporalGraph
    from repro.serving.ann import IvfIndex
    from repro.serving.batching import BatchScheduler
    from repro.serving.index import RecommendationIndex
    from repro.serving.sharding import ShardedFrontend, ShardedPublisher
    from repro.serving.store import EmbeddingStore
    from repro.stream.queue import IngestQueue
    from repro.stream.wal import WriteAheadLog
    from repro.tasks import link_prediction
    from repro.tasks.incremental import IncrementalEmbedder
    from repro.tasks.link_prediction import LinkPredictionTask
    from repro.tasks.pipeline import Pipeline
    from repro.walk.engine import TemporalWalkEngine

    count = tracer.count
    wrap = tracer.wrap
    wrap(Pipeline, "run_link_prediction", LINKPRED_ROOT)

    wrap(TemporalGraph, "from_edge_list", "graph.csr_build")
    wrap(DynamicTemporalGraph, "append", "graph.append")
    wrap(DynamicTemporalGraph, "graph", "graph.snapshot")

    wrap(TemporalWalkEngine, "run", "walk.run",
         lambda result, args, span: count("walk.hops",
                                          args[0].last_stats.total_steps))

    wrap(BatchedSgnsTrainer, "train", "sgns.train",
         lambda result, args, span: count("sgns.pairs_trained",
                                          args[0].last_stats.pairs_trained))
    wrap(batched, "generate_pairs", "sgns.pairs")
    wrap(NegativeSampler, "sample_matrix", "sgns.negatives")
    wrap(SkipGramModel, "batch_gradients", "sgns.gradient")
    wrap(SkipGramModel, "apply_batch", "sgns.scatter")

    wrap(LinkPredictionTask, "run", "task.run",
         lambda result, args, span: count("task.epochs",
                                          result.history.epochs_run))
    wrap(link_prediction, "train_classifier", "task.train")

    puts: dict[int, float] = {}

    def on_put(result, args, span):
        puts[id(args[1])] = span[1]
        tracer.maximum("stream.backlog_edges_max", args[0].depth_edges)

    def on_get(result, args, span):
        if result is not None:
            tracer.add("stream.queue_wait", puts.pop(id(result)), span[2])

    def on_update(report, args, span):
        count("stream.affected_nodes", report.affected_nodes)
        count("stream.walks", report.walks_generated)

    wrap(WriteAheadLog, "append", "stream.wal_append")
    wrap(IngestQueue, "put", "stream.put", on_put)
    wrap(IngestQueue, "get", "stream.get", on_get)
    wrap(IncrementalEmbedder, "update", "stream.refresh", on_update)

    wrap(EmbeddingStore, "publish", "store.publish")
    wrap(ShardedPublisher, "publish", "shard.install")
    wrap(ShardedFrontend, "top_k", "shard.router")

    submits: dict[int, tuple[float, object]] = {}

    def on_submit(result, args, span):
        if args[0].name == "top-k":
            submits[id(args[1])] = (span[1], span[4])

    def on_batch(result, args, span):
        count("serving.batches")
        count("serving.batched_requests", len(args[1]))
        for payload in args[1]:
            submitted = submits.pop(id(payload), None)
            if submitted is not None:
                tracer.add("serving.queue_wait", submitted[0], span[1],
                           submitted[1])

    def on_lookup(hit, args, span):
        # Only the frontend's own lookup counts: the batch re-checks the
        # cache for every request it was handed.
        if span[3] is None:
            count("serving.lookups")
            count("serving.cache_hits", hit is not None)

    wrap(BatchScheduler, "submit", "serving.submit", on_submit)
    wrap(RecommendationIndex, "top_k_batch", "serving.scan", on_batch)
    wrap(RecommendationIndex, "cached", "serving.cache_lookup", on_lookup)

    wrap(IvfIndex, "build", "ann.build")
    wrap(IvfIndex, "candidate_rows", "ann.candidates",
         lambda result, args, span: count("ann.candidates",
                                          len(result[0])))


def memcpy_gbps(nbytes: int = 5 << 28) -> float:
    """Copy bandwidth over a buffer far larger than the last-level cache.

    The default 1.25 GiB is over 4x the largest LLC of the hosts this
    was written on (300 MiB); the first half is copied onto the second,
    best of three, counting bytes read plus bytes written.
    """
    buf = np.ones(nbytes // 8, dtype=np.float64)
    half = len(buf) // 2
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(buf[half:2 * half], buf[:half])
        best = min(best, time.perf_counter() - start)
    del buf
    return 2 * half * 8 / best / 1e9


def metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the spans, counters and ``extra``
    (values only the workload knows, such as bytes per scan)."""
    table = tracer.layer_table()
    c = tracer.counters

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    prep = test = 0.0
    spans = tracer.spans
    for span in spans:
        if span[0] == "task.train" and span[3] is not None:
            run = span[3]
            prep += span[1] - run[1]
            test += run[2] - span[2]

    root = table.get(LINKPRED_ROOT)
    coverage = (1.0 - root["self_s"] / root["total_s"]) if root else 0.0
    out = {
        "graph.csr_build_s": total("graph.csr_build"),
        "graph.append_s": total("graph.append"),
        "graph.snapshot_s": total("graph.snapshot"),
        "walk.run_s": total("walk.run"),
        "walk.hops": c["walk.hops"],
        "walk.hops_per_s": per(c["walk.hops"], total("walk.run")),
        "sgns.train_s": total("sgns.train"),
        "sgns.setup_self_s": table.get("sgns.train", {}).get("self_s", 0.0),
        "sgns.pairs_s": total("sgns.pairs"),
        "sgns.pairs_calls": calls("sgns.pairs"),
        "sgns.negatives_s": total("sgns.negatives"),
        "sgns.gradient_s": total("sgns.gradient"),
        "sgns.scatter_s": total("sgns.scatter"),
        "sgns.pairs_trained": c["sgns.pairs_trained"],
        "sgns.pairs_per_s": per(c["sgns.pairs_trained"], total("sgns.train")),
        "task.data_prep_s": prep,
        "task.train_s": total("task.train"),
        "task.test_s": test,
        "task.epochs": c["task.epochs"],
        "stream.wal_append_s": total("stream.wal_append"),
        "stream.queue_wait_s": per(total("stream.queue_wait"),
                                   calls("stream.queue_wait")),
        "stream.backlog_edges_max": c["stream.backlog_edges_max"],
        "stream.refresh_s": total("stream.refresh"),
        "stream.affected_nodes": c["stream.affected_nodes"],
        "stream.walks": c["stream.walks"],
        "store.publish_s": total("store.publish"),
        "shard.install_s": total("shard.install"),
        "shard.router_s": total("shard.router"),
        "serving.queue_wait_s": per(total("serving.queue_wait"),
                                    calls("serving.queue_wait")),
        "serving.batch_size": per(c["serving.batched_requests"],
                                  c["serving.batches"]),
        "serving.scan_s": total("serving.scan"),
        "serving.cache_hit_ratio": per(c["serving.cache_hits"],
                                       c["serving.lookups"]),
        "ann.build_s": total("ann.build"),
        "ann.candidates_per_query": per(c["ann.candidates"],
                                        calls("ann.candidates")),
        "trace.coverage_frac": coverage,
    }
    scan_bytes = extra.pop("scan_bytes_per_batch", 0.0) * calls("serving.scan")
    scan_bytes += extra.pop("bytes_per_candidate", 0.0) * c["ann.candidates"]
    out["serving.scan_gbps"] = per(scan_bytes / 1e9, total("serving.scan"))
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name in METRICS}
