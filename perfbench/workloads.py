"""The four workloads.  Each sets up (several times, reporting the median),
measures for the given seconds, checks its outputs and returns a
:class:`Result`.

Why each workload exists, and which layers it loads or bypasses, is in
``BENCHMARK.json`` and ``README.md`` beside this file.
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import measure
import openloop
from spans import Tracer

_clock = time.perf_counter

# The wiki-talk generator's node count swings from 1.8k to 3.7k with its
# seed, which would make run-to-run spread a property of the graph draw.
# Both graph workloads therefore use the canonical draw (3,150 nodes,
# 39,166 edges); --seed drives every other random choice.
GRAPH_SEED = 0
K = 10


@dataclass
class Result:
    """What one workload run measured.

    ``summary`` holds the workload's primary figures under the
    benchmark's end-to-end names; ``named`` holds the same and more
    under the names of the workload's own report, as
    ``name -> (value, unit, note)``.
    """

    setup_s: float
    attempted: int
    failed: int
    summary: dict[str, float]
    named: dict[str, tuple[float, str, str]]
    checks: dict[str, bool]
    cpu_s: float
    layer_extra: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


# A set-up of a few milliseconds swings by a quarter between runs, so
# cheap set-ups repeat until this much time is spent, up to SETUP_MAX.
SETUP_FLOOR_S = 1.0
SETUP_MAX = 50


def repeat_setup(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 times: int) -> tuple[Any, float]:
    """Run ``setup`` at least ``times`` times, and until SETUP_FLOOR_S has
    been spent, keeping the last; median seconds."""
    seconds, state = [], None
    while len(seconds) < times or (sum(seconds) < SETUP_FLOOR_S
                                   and len(seconds) < SETUP_MAX):
        if state is not None:
            teardown(state)
            # The program's objects hold reference cycles; collect them
            # so peak RSS never holds two set-ups at once.
            state = None
            gc.collect()
        start = _clock()
        state = setup()
        seconds.append(_clock() - start)
    return state, measure.median(seconds)


def _tail_note(pct: float, n: int) -> str:
    return f"p{pct:g} of {n}"


def oracle_topk(matrix: np.ndarray, nodes: np.ndarray, k: int,
                chunk: int = 64) -> np.ndarray:
    """Brute-force top-k ids by dot product, self excluded, ties to the
    lower id; one row per query node.  Scores ``chunk`` queries at a
    time, so memory stays at ``chunk`` score columns."""
    out = np.empty((len(nodes), k), dtype=np.int64)
    for lo in range(0, len(nodes), chunk):
        scores = matrix @ matrix[nodes[lo:lo + chunk]].T
        for column, node in enumerate(nodes[lo:lo + chunk]):
            col = scores[:, column]
            col[node] = -np.inf
            kth = np.partition(col, len(col) - k)[len(col) - k]
            ids = np.flatnonzero(col >= kth)
            out[lo + column] = ids[np.lexsort((ids, -col[ids]))[:k]]
    return out


# ---------------------------------------------------------------------------
# linkpred-wiki
# ---------------------------------------------------------------------------
# A sanity floor, well above chance: test AUC ranged 0.836 to 0.990 over
# 45 seeds of the parent, so a run below it means training broke.
AUC_FLOOR = 0.75


def linkpred(seed: int, seconds: float, setups: int) -> Result:
    """``repro linkpred`` defaults on the wiki-talk shape, end to end."""
    from repro.embedding.trainer import SgnsConfig
    from repro.graph import TemporalGraph, compute_stats, generators
    from repro.tasks.link_prediction import LinkPredictionConfig
    from repro.tasks.pipeline import Pipeline, PipelineConfig
    from repro.tasks.training import TrainSettings
    from repro.walk.config import WalkConfig

    def setup():
        edges = generators.dataset_by_name("wiki-talk", seed=GRAPH_SEED)
        compute_stats(TemporalGraph.from_edge_list(edges))  # as the CLI does
        return edges

    edges, setup_s = repeat_setup(setup, lambda _: None, setups)
    config = PipelineConfig(
        walk=WalkConfig(num_walks_per_node=10, max_walk_length=6,
                        bias="softmax-recency", num_windows=64),
        sgns=SgnsConfig(dim=8, epochs=5),
        batch_sentences=1024,
        sampler="cdf",
        treat_undirected=True,
        link_prediction=LinkPredictionConfig(
            training=TrainSettings(epochs=30, learning_rate=0.05)),
    )
    walls, cpus, aucs, errors = [], [], [], []
    finite = True
    start = _clock()
    cpu_start = time.process_time()
    attempted = 0
    while True:
        t, c = _clock(), time.process_time()
        attempted += 1
        try:
            result = Pipeline(config).run_link_prediction(
                edges, seed=seed * 1000 + attempted)
        except Exception as exc:  # a failed run is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            walls.append(_clock() - t)
            cpus.append(time.process_time() - c)
            aucs.append(float(result.task_result.auc))
            finite &= bool(np.isfinite(result.embeddings.matrix).all())
        last = _clock() - t
        # Start another run only if it is expected to end in time.
        if _clock() - start + last > seconds:
            break
    cpu_s = time.process_time() - cpu_start
    failed = attempted - len(walls)
    checks = {
        "pipeline_ran": bool(walls),
        "embeddings_finite": finite and bool(walls),
        f"auc_above_{AUC_FLOOR}": bool(aucs) and min(aucs) > AUC_FLOOR,
    }
    if not walls:
        return Result(setup_s, attempted, failed, {}, {}, checks, cpu_s,
                      errors=errors)
    pct, tail_s, n = measure.tail(walls)
    summary = {
        "p50_ms": measure.median(walls) * 1e3,
        "cpu_ms_per_op": measure.median(cpus) * 1e3,
        "quality": measure.median(aucs),
        "success_frac": 1.0 - failed / attempted,
    }
    named = {
        "linkpred_s": (measure.median(walls), "s", f"median of {n}"),
        "linkpred_tail_s": (tail_s, "s", _tail_note(pct, n)),
        "linkpred_cpu_s": (measure.median(cpus), "s", "BLAS threads included"),
        "auc": (measure.median(aucs), "ratio", "test AUC"),
        "error_frac": (failed / attempted, "ratio", f"{failed}/{attempted} runs"),
    }
    return Result(setup_s, attempted, failed, summary, named, checks, cpu_s,
                  errors=errors)


# ---------------------------------------------------------------------------
# stream-serve
# ---------------------------------------------------------------------------
# Twice the linkpred graph, so the live 40% arrives as 157 batches: enough
# for a p90 freshness tail in one run.
STREAM_SCALE = 0.01
STREAM_BATCH_EDGES = 200
STREAM_READ_RATE = 100.0  # top-k reads per second, fixed interval
STREAM_SHARDS = 2


def stream_serve(seed: int, seconds: float, setups: int,
                 workdir: Path) -> Result:
    """The pipeline-sim deployment, with the stream on an open-loop clock."""
    from repro.embedding.trainer import SgnsConfig
    from repro.graph import DynamicTemporalGraph, generators
    from repro.graph.edges import TemporalEdgeList
    from repro.serving import (EmbeddingStore, ShardPlan, ShardedFrontend,
                               ShardedPublisher, ShardedServingConfig)
    from repro.stream import (EveryNEdges, IngestQueue, StreamController,
                              WriteAheadLog)
    from repro.stream.wal import replay
    from repro.tasks.incremental import IncrementalEmbedder
    from repro.walk.config import WalkConfig

    ordered = generators.dataset_by_name(
        "wiki-talk", scale=STREAM_SCALE, seed=GRAPH_SEED).sorted_by_time()
    cut = int(0.6 * len(ordered))
    initial = ordered.take(np.arange(cut))
    batches = [ordered.take(np.arange(s, min(s + STREAM_BATCH_EDGES,
                                             len(ordered))))
               for s in range(cut, len(ordered), STREAM_BATCH_EDGES)]

    def setup():
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
        wal = WriteAheadLog(wal_dir)
        dynamic = DynamicTemporalGraph()
        dynamic.append(initial)
        store = EmbeddingStore()
        embedder = IncrementalEmbedder(
            dynamic,
            walk_config=WalkConfig(num_walks_per_node=2, max_walk_length=4,
                                   bias="softmax-recency"),
            sgns_config=SgnsConfig(dim=8, epochs=1),
            seed=seed, store=store, sampler="cdf",
        )
        embedder.rebuild()
        queue = IngestQueue(max_edges=50_000, policy="block")
        controller = StreamController(
            dynamic, queue, wal=wal, embedder=embedder,
            policy=EveryNEdges(STREAM_BATCH_EDGES))
        frontend = ShardedFrontend(
            ShardPlan(STREAM_SHARDS, "hash"),
            ShardedServingConfig(default_k=K, replication_factor=1)).start()
        publisher = ShardedPublisher(frontend)
        publisher.attach(store)
        installs: list[tuple[float, int]] = []
        # Registered after the publisher, so it runs once the sharded
        # tier has installed the snapshot.
        store.subscribe(lambda snap: installs.append((_clock(),
                                                      snap.generation)))
        return SimpleNamespace(wal_dir=wal_dir, wal=wal, dynamic=dynamic,
                               store=store, queue=queue,
                               controller=controller, frontend=frontend,
                               publisher=publisher, installs=installs)

    def teardown(s) -> None:
        s.publisher.detach()
        s.frontend.close()
        s.wal.close()
        shutil.rmtree(s.wal_dir, ignore_errors=True)

    s, setup_s = repeat_setup(setup, teardown, setups)
    try:
        rng = np.random.default_rng(seed)
        n = len(batches)
        generations = measure.batch_generations(s.dynamic.generation, n)
        interval = seconds / n
        due = np.arange(n) * interval
        read_due = np.arange(int(seconds * STREAM_READ_RATE)) / STREAM_READ_RATE
        read_nodes = rng.integers(0, s.dynamic.num_nodes, len(read_due))
        late = np.zeros(n)
        rejected = []

        base = _clock() + openloop.START_DELAY_S
        cpu_start = time.process_time()
        s.controller.start()

        def send() -> None:
            for i, batch in enumerate(batches):
                late[i] = openloop.wait_until(base + due[i])
                if not s.queue.put(batch):
                    rejected.append(i)

        sender = threading.Thread(target=send, name="stream-send")
        sender.start()
        try:
            reads = openloop.drive_sync(
                lambda i: s.frontend.top_k(int(read_nodes[i])), read_due, base)
        finally:
            sender.join()
            s.controller.stop()
        cpu_s = time.process_time() - cpu_start

        fresh = measure.freshness(list(base + due), generations, s.installs)
        fresh_ok = [f for f in fresh if f is not None]
        read_ok = openloop.finite(reads.latency)
        stats = s.controller.stats
        batch_failures = len(rejected) + stats.batches_failed + sum(
            f is None for f in fresh)
        attempted = n + len(read_due)
        failed = batch_failures + int(reads.failed.sum())

        sent = TemporalEdgeList.concatenate(batches)
        logged = replay(s.wal_dir).edge_list()
        sample = rng.choice(s.store.snapshot().num_nodes, 32, replace=False)
        oracle = oracle_topk(s.store.snapshot().matrix, sample, K)
        served = [np.array_equal(s.frontend.top_k(int(node))[0], want)
                  for node, want in zip(sample, oracle)]
        checks = {
            "served_generation_is_final": (
                s.frontend.generation == s.dynamic.generation
                == generations[-1]),
            "wal_replay_equals_sent": (
                np.array_equal(logged.src, sent.src)
                and np.array_equal(logged.dst, sent.dst)
                and np.array_equal(logged.timestamps, sent.timestamps)),
            "final_topk_equals_oracle": all(served),
            "every_batch_fresh": batch_failures == 0,
        }
        errors = list(stats.errors) + reads.errors
    finally:
        teardown(s)

    if not fresh_ok or not read_ok:
        return Result(setup_s, attempted, failed, {}, {}, checks, cpu_s,
                      errors=errors)
    f_pct, f_tail, f_n = measure.tail(fresh_ok)
    r_pct, r_tail, r_n = measure.tail(read_ok)
    cpu_per_kedge = cpu_s / (len(sent) / 1000.0)
    summary = {
        "p50_ms": measure.median(fresh_ok) * 1e3,
        "cpu_ms_per_op": cpu_per_kedge * 1e3,
        "quality": sum(served) / len(served),
        "success_frac": 1.0 - failed / attempted,
    }
    named = {
        "freshness_p50_s": (measure.median(fresh_ok), "s",
                            f"median of {f_n} batches"),
        "freshness_tail_s": (f_tail, "s", _tail_note(f_pct, f_n)),
        "ingest_cpu_s_per_kedge": (cpu_per_kedge, "s",
                                   f"{len(sent)} edges, main process"),
        "topk_p50_ms": (measure.median(read_ok) * 1e3, "ms",
                        f"reads at {STREAM_READ_RATE:g}/s"),
        "topk_tail_ms": (r_tail * 1e3, "ms", _tail_note(r_pct, r_n)),
        "error_frac": (failed / attempted, "ratio",
                       f"{failed}/{attempted} batches+reads"),
        "refreshes": (float(stats.refreshes), "count", ""),
    }
    layer_extra = {"gen.late_max_ms": 1e3 * max(late.max(), reads.late.max())}
    return Result(setup_s, attempted, failed, summary, named, checks, cpu_s,
                  layer_extra, errors)


# ---------------------------------------------------------------------------
# serve-exact, serve-ivf
# ---------------------------------------------------------------------------
SERVE_NODES, SERVE_DIM, SERVE_CENTERS = 100_000, 64, 500
HOT_NODES = 64
# A third, not half, of the query nodes are hot: cache hits answer in
# well under a millisecond and misses take a full scan, so with half the
# median would sit on the edge between the two modes and flip per run.
HOT_SHARE = 1 / 3
TIMEOUT_S = 10.0
CHECK_SAMPLE = 64
RECALL_SAMPLE = 1000


# Open-loop request rates (requests/s, ascending).  The lowest is the
# nominal rate whose latency is the workload's headline figure, and it
# gets NOMINAL_SHARE of the run.  At 50/s requests are 20 ms apart, more
# than one exact scan, so the nominal tail measures service, not the
# request queueing behind the one before it: at 100/s the tail flips
# between one-scan and two-scan latencies from run to run.
LADDERS = {
    "exact": (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0),
    "ivf": (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0),
}
NOMINAL_SHARE = 0.4
# Recall swings from 0.88 to 0.95 between draws of the mixture, so the
# matrix is one canonical draw; --seed drives the traffic.
MATRIX_SEED = 0


def clustered(seed: int) -> np.ndarray:
    """Gaussian-mixture embeddings, built like the ANN benchmark's."""
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((SERVE_CENTERS, SERVE_DIM)) * 3.0
    return (anchors[rng.integers(0, SERVE_CENTERS, SERVE_NODES)]
            + rng.standard_normal((SERVE_NODES, SERVE_DIM)) * 0.6)


def serve(mode: str, seed: int, seconds: float, setups: int, slo_ms: float,
          tracer: Tracer | None = None) -> Result:
    """Open-loop top-k (and, for exact, link-score) traffic on a rate ladder."""
    from repro.serving import EmbeddingStore, ServingConfig, ServingFrontend

    rng = np.random.default_rng(seed)
    hot = rng.choice(SERVE_NODES, HOT_NODES, replace=False)

    def setup():
        matrix = clustered(MATRIX_SEED)
        store = EmbeddingStore()
        store.publish(matrix, generation=0)
        frontend = ServingFrontend(store, ServingConfig(index=mode)).start()
        if frontend.ann is not None:
            frontend.ann.wait_ready()
        frontend.score_link(0, 1)
        if mode == "exact":  # a long-running server has its hot set cached
            for future in [frontend.top_k_async(int(node)) for node in hot]:
                future.result()
        return SimpleNamespace(matrix=store.snapshot().matrix,
                               frontend=frontend)

    s, setup_s = repeat_setup(setup, lambda st: st.frontend.close(), setups)
    rates = LADDERS[mode]
    rest = (1.0 - NOMINAL_SHARE) * seconds / (len(rates) - 1)
    due, rung = openloop.ladder_arrivals(
        [(rates[0], NOMINAL_SHARE * seconds)] + [(r, rest) for r in rates[1:]])
    n = len(due)
    if mode == "exact":
        is_topk = rng.random(n) < 0.5
        nodes = np.where(rng.random(n) < HOT_SHARE,
                         hot[rng.integers(0, HOT_NODES, n)],
                         rng.integers(0, SERVE_NODES, n))
    else:
        is_topk = np.ones(n, dtype=bool)
        nodes = rng.integers(0, SERVE_NODES, n)
    peers = rng.integers(0, SERVE_NODES, n)
    keep: set[int] = set()
    if mode == "exact":
        for kind in (is_topk, ~is_topk):
            keep.update(rng.choice(np.flatnonzero(kind), CHECK_SAMPLE,
                                   replace=False).tolist())
    frontend = s.frontend

    # CPU per request is taken over the nominal phase only: above it the
    # batch sizes, and with them the CPU a request costs, vary per run.
    nominal_end = int(np.count_nonzero(rung == 0))
    cpu_marks: list[float] = []

    def submit(i: int):
        if i == nominal_end:
            cpu_marks.append(time.process_time())
        if is_topk[i]:
            return frontend.top_k_async(int(nodes[i]))
        return frontend.score_link_async(int(nodes[i]), int(peers[i]))

    if tracer is not None:
        plain = submit

        def submit(i: int):  # noqa: F811 - tags the request's spans
            with tracer.serving(i):
                return plain(i)

    try:
        cpu_start = time.process_time()
        out = openloop.drive_async(submit, due, is_topk, TIMEOUT_S, keep)
        cpu_s = time.process_time() - cpu_start
        nominal_cpu_s = cpu_marks[0] - cpu_start

        matrix = s.matrix
        if mode == "exact":
            kept_topk = sorted(i for i in out.kept if is_topk[i])
            kept_score = sorted(i for i in out.kept if not is_topk[i])
            oracle = oracle_topk(matrix, nodes[kept_topk], K)
            matches = [np.array_equal(out.kept[i][0], want)
                       for i, want in zip(kept_topk, oracle)]
            scores = [math.isclose(out.kept[i],
                                   float(np.dot(matrix[nodes[i]],
                                                matrix[peers[i]])),
                                   rel_tol=1e-12, abs_tol=1e-12)
                      for i in kept_score]
            checks = {"answers_checked": bool(matches) and bool(scores),
                      "topk_equals_oracle": all(matches),
                      "scores_equal_dot": all(scores)}
            quality = (sum(matches) + sum(scores)) / max(1, len(matches)
                                                         + len(scores))
            quality_name = "oracle_match"
            quality_note = f"{len(matches)}+{len(scores)} answers"
        else:
            sample = rng.choice(SERVE_NODES, RECALL_SAMPLE, replace=False)
            truth = oracle_topk(matrix, sample, K)
            futures = [frontend.top_k_async(int(node)) for node in sample]
            hits = [len(np.intersect1d(future.result(TIMEOUT_S)[0], want))
                    for future, want in zip(futures, truth)]
            checks = {"recall_computed": len(hits) == RECALL_SAMPLE}
            quality = sum(hits) / (K * len(sample))
            quality_name = f"recall_at_{K}"
            quality_note = f"over {RECALL_SAMPLE} nodes"
    finally:
        frontend.close()

    latency = out.latency
    failed = int(out.failed.sum())
    rungs = []
    for j, rate in enumerate(rates):
        mask = (rung == j) & is_topk
        rungs.append((rate, [math.inf if math.isnan(v) else float(v)
                             for v in latency[mask]]))
    slo = measure.slo_rate(rungs, slo_ms / 1e3)
    at_nominal = rung == 0
    topk_ok = openloop.finite(latency[at_nominal & is_topk])
    if not topk_ok:
        return Result(setup_s, n, failed, {}, {}, checks, cpu_s,
                      errors=out.errors)
    t_pct, t_tail, t_n = measure.tail(topk_ok)
    summary = {
        "p50_ms": measure.median(topk_ok) * 1e3,
        "cpu_ms_per_op": nominal_cpu_s * 1e3 / nominal_end,
        "quality": quality,
        "success_frac": 1.0 - failed / n,
    }
    named = {
        "topk_p50_ms": (summary["p50_ms"], "ms", f"at {rates[0]:g} req/s"),
        "topk_tail_ms": (t_tail * 1e3, "ms", _tail_note(t_pct, t_n)),
        "slo_rate_qps": (slo, "1/s", f"top-k tail <= {slo_ms:g} ms"),
        "error_frac": (failed / n, "ratio", f"{failed}/{n} requests"),
    }
    named[quality_name] = (quality, "ratio", quality_note)
    if mode == "exact":
        scores_ok = openloop.finite(latency[at_nominal & ~is_topk])
        if scores_ok:
            s_pct, s_tail, s_n = measure.tail(scores_ok)
            named["score_tail_ms"] = (s_tail * 1e3, "ms",
                                      _tail_note(s_pct, s_n))
    for rate_j, lats in rungs:
        ok = [v for v in lats if not math.isinf(v)]
        if ok:
            pct, value, count = measure.tail(ok)
            named[f"topk_tail_ms@{rate_j:g}"] = (
                value * 1e3, "ms",
                f"{_tail_note(pct, count)}, p50 {measure.median(ok) * 1e3:.2f}")
    row_bytes = SERVE_DIM * 8
    layer_extra = {"gen.late_max_ms": float(out.late.max()) * 1e3}
    if mode == "exact":
        layer_extra["scan_bytes_per_batch"] = SERVE_NODES * row_bytes
    else:
        layer_extra["bytes_per_candidate"] = row_bytes
    return Result(setup_s, n, failed, summary, named, checks, cpu_s,
                  layer_extra, out.errors)
