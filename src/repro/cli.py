"""Command-line interface.

The paper's artifact drives everything through shell scripts
(``build_linkpred_run.sh`` etc.) plus two Python utilities
(``preprocess_dataset.py``, ``generate_synthetic.py``).  This module is
the equivalent front door:

- ``repro generate``    — synthetic graphs (Table II shapes or plain ER)
  written as ``.wel`` / labeled ``.npz`` bundles;
- ``repro preprocess``  — clean a raw edge list into normalized ``.wel``
  (strip comments, normalize timestamps), like the artifact's script;
- ``repro linkpred``    — end-to-end link prediction on a ``.wel`` file
  or a named dataset shape;
- ``repro nodeclass``   — end-to-end node classification on a labeled
  ``.npz`` bundle or a named dataset shape;
- ``repro characterize``— the hardware study (instruction mixes, GPU
  stalls, thread scaling) on a synthetic ER graph;
- ``repro serve-sim`` / ``stream-sim`` / ``pipeline-sim`` — three
  presets of one stream→serve deployment (:func:`cmd_sim`): a seed
  graph and incremental embedder, live edge batches through the ingest
  queue into the :class:`~repro.stream.controller.StreamController`
  (WAL-first when a WAL is configured), the local micro-batched or the
  replicated sharded serving tier (:mod:`repro.serving`), optional
  control plane and chaos drills, and a closed-loop load generator.
  The presets differ only in data: the stream split, which flags they
  expose, and their defaults (see ``_SIM_PRESETS``).
  ``stream-sim --replay-only`` recovers and reports a previous run's
  WAL, which is how the CI stream-smoke job verifies crash recovery.

Every command takes ``--seed`` and the pipeline hyperparameters the
artifact exposes (walks, walk length, dimension, epochs...).  Run
``python -m repro <command> --help`` for details.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence

import numpy as np

from repro.bench.tables import render_table
from repro.embedding.trainer import SgnsConfig
from repro.errors import ReproError, ServingError
from repro.graph import (
    TemporalEdgeList,
    TemporalGraph,
    compute_stats,
    generators,
)
from repro.graph.io import LabeledTemporalDataset, read_wel, write_wel
from repro.observability import Recorder, get_recorder, use_recorder
from repro.parallel import SupervisorConfig
from repro.stream.wal import DEFAULT_SEGMENT_MAX_BYTES
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.node_classification import NodeClassificationConfig
from repro.tasks.pipeline import Pipeline, PipelineConfig
from repro.tasks.training import TrainSettings
from repro.walk.config import WalkConfig

LP_SHAPES = ("ia-email", "wiki-talk", "stackoverflow")
NC_SHAPES = ("dblp3", "dblp5", "brain")


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "pipeline hyperparameters (paper defaults: K=10, L=6, d=8)"
    )
    group.add_argument("--walks", type=int, default=10,
                       help="random walks per node (K)")
    group.add_argument("--length", type=int, default=6,
                       help="maximum walk length in nodes (L)")
    group.add_argument("--bias", default="softmax-recency",
                       choices=["uniform", "softmax-late",
                                "softmax-recency", "linear"],
                       help="Eq. 1 transition bias")
    group.add_argument("--sampler", default="cdf",
                       choices=["cdf", "gumbel", "batched"],
                       help="walk step kernel: exact inverse-CDF (cdf), "
                            "paper-faithful scan (gumbel), or the "
                            "frontier-batched window-table kernel "
                            "(batched; see docs/walk_kernels.md)")
    group.add_argument("--walk-windows", type=int, default=64,
                       help="time windows per node for --sampler=batched "
                            "(table memory vs rejection acceptance)")
    group.add_argument("--dim", type=int, default=8,
                       help="embedding dimension (d)")
    group.add_argument("--w2v-epochs", type=int, default=5,
                       help="word2vec epochs")
    group.add_argument("--batch-sentences", type=int, default=1024,
                       help="word2vec batch size (0 = sequential trainer)")
    group.add_argument("--epochs", type=int, default=30,
                       help="classifier training epochs")
    group.add_argument("--lr", type=float, default=0.05,
                       help="classifier learning rate")
    group.add_argument("--target-accuracy", type=float, default=None,
                       help="stop training at this validation accuracy")
    group.add_argument("--directed", action="store_true",
                       help="walk the directed stream (default mirrors "
                            "each edge)")
    group.add_argument("--workers", type=int, default=1,
                       help="worker processes for the walk and word2vec "
                            "phases (1 = serial)")
    fault = parser.add_argument_group(
        "fault tolerance and resumability"
    )
    fault.add_argument("--checkpoint-dir", default=None,
                       help="persist each phase's artifact here (atomic, "
                            "keyed by config fingerprint + seed)")
    fault.add_argument("--resume", action="store_true",
                       help="load completed phases from --checkpoint-dir "
                            "instead of recomputing them")
    fault.add_argument("--shard-timeout", type=float, default=None,
                       help="wall-clock seconds per worker shard attempt "
                            "(default: no timeout)")
    fault.add_argument("--max-retries", type=int, default=2,
                       help="retries per failed worker shard before "
                            "degrading to in-process execution")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write run counters/gauges/histograms as JSON "
                          "(see docs/observability.md)")
    obs.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write the span trace as JSONL, one span per "
                          "line (see docs/observability.md)")
    parser.add_argument("--seed", type=int, default=0)


@contextmanager
def _observability(args: argparse.Namespace) -> Iterator[Recorder | None]:
    """Install an ambient recorder when --metrics-out/--trace-out ask
    for one, and flush the requested files on the way out (including on
    error, so a failed run still leaves a usable partial trace)."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if not metrics_out and not trace_out:
        yield None
        return
    recorder = Recorder()
    try:
        with use_recorder(recorder):
            yield recorder
    finally:
        if metrics_out:
            recorder.write_metrics(metrics_out)
            print(f"wrote metrics: {metrics_out}")
        if trace_out:
            recorder.write_trace(trace_out)
            print(f"wrote trace: {trace_out}")


def _pipeline_from_args(args: argparse.Namespace) -> Pipeline:
    training = TrainSettings(
        epochs=args.epochs,
        learning_rate=args.lr,
        target_accuracy=args.target_accuracy,
    )
    config = PipelineConfig(
        walk=WalkConfig(
            num_walks_per_node=args.walks,
            max_walk_length=args.length,
            bias=args.bias,
            num_windows=args.walk_windows,
        ),
        sgns=SgnsConfig(dim=args.dim, epochs=args.w2v_epochs),
        batch_sentences=args.batch_sentences or None,
        sampler=args.sampler,
        treat_undirected=not args.directed,
        workers=args.workers,
        link_prediction=LinkPredictionConfig(training=training),
        node_classification=NodeClassificationConfig(training=training),
        supervisor=SupervisorConfig(
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
        ),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    return Pipeline(config)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic dataset to disk."""
    if args.dataset:
        data = generators.dataset_by_name(
            args.dataset, scale=args.scale, seed=args.seed
        )
        if isinstance(data, LabeledTemporalDataset):
            if not args.output.endswith(".npz"):
                print("error: labeled datasets must be written to .npz",
                      file=sys.stderr)
                return 2
            data.save(args.output)
            print(f"wrote {args.output}: {data.edges.num_nodes} nodes, "
                  f"{len(data.edges)} edges, {data.num_classes} classes")
        else:
            write_wel(data.sorted_by_time(), args.output)
            print(f"wrote {args.output}: {data.num_nodes} nodes, "
                  f"{len(data)} edges")
    else:
        edges = generators.erdos_renyi_temporal(
            args.nodes, args.edges, seed=args.seed
        )
        write_wel(edges.sorted_by_time(), args.output)
        print(f"wrote {args.output}: {edges.num_nodes} nodes, "
              f"{len(edges)} edges (Erdos-Renyi)")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    """``repro preprocess``: normalize a raw edge list into .wel."""
    edges = read_wel(args.input, normalize=True)
    write_wel(edges.sorted_by_time(), args.output)
    print(f"wrote {args.output}: {edges.num_nodes} nodes, {len(edges)} "
          "edges, timestamps normalized to [0, 1]")
    return 0


def cmd_linkpred(args: argparse.Namespace) -> int:
    """``repro linkpred``: end-to-end link prediction."""
    if args.input:
        edges = read_wel(args.input)
        source = args.input
    else:
        edges = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    stats = compute_stats(TemporalGraph.from_edge_list(edges))
    print(f"input: {source} — {stats.num_nodes} nodes, "
          f"{stats.num_edges} temporal edges")
    with _observability(args):
        result = _pipeline_from_args(args).run_link_prediction(
            edges, seed=args.seed
        )
    if result.cached_phases:
        print("cached phases: " + ", ".join(result.cached_phases))
    print(result.summary())
    return 0


def cmd_nodeclass(args: argparse.Namespace) -> int:
    """``repro nodeclass``: end-to-end node classification."""
    if args.input:
        dataset = LabeledTemporalDataset.load(args.input)
        source = args.input
    else:
        dataset = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    print(f"input: {source} — {dataset.edges.num_nodes} nodes, "
          f"{len(dataset.edges)} edges, {dataset.num_classes} classes")
    with _observability(args):
        result = _pipeline_from_args(args).run_node_classification(
            dataset, seed=args.seed
        )
    if result.cached_phases:
        print("cached phases: " + ", ".join(result.cached_phases))
    print(result.summary())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: Fig. 8-style hyperparameter sweep."""
    from repro.tasks.sweeps import sweep_dataset

    values = [int(v) for v in args.values.split(",")]
    if args.input:
        if args.input.endswith(".npz"):
            dataset = LabeledTemporalDataset.load(args.input)
        else:
            dataset = read_wel(args.input)
        source = args.input
    else:
        dataset = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    print(f"sweeping {args.parameter} over {values} on {source} "
          f"({len(args.seeds.split(','))} seeds)")
    with _observability(args):
        result = sweep_dataset(
            dataset, args.parameter, values,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            base_walk=WalkConfig(num_walks_per_node=args.walks,
                                 max_walk_length=args.length, bias=args.bias),
            base_sgns=SgnsConfig(dim=args.dim, epochs=args.w2v_epochs),
        )
    print(render_table(result.rows(), title=f"accuracy vs {args.parameter}"))
    print(f"saturation point (1% tolerance): "
          f"{result.saturation_point(0.01)}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """``repro characterize``: the hardware study tables."""
    from repro.embedding.batched import BatchedSgnsTrainer
    from repro.hwmodel import (
        classifier_kernel,
        profile_classifier,
        profile_random_walk,
        profile_word2vec,
        scaling_curve,
        walk_kernel,
        word2vec_kernel,
    )
    from repro.walk.batched import make_walk_engine

    edges = generators.erdos_renyi_temporal(args.nodes, args.edges,
                                            seed=args.seed)
    graph = TemporalGraph.from_edge_list(edges)
    print(f"synthetic ER graph: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges")

    with _observability(args):
        engine = make_walk_engine(graph, sampler=args.sampler)
        with get_recorder().span("rwalk", workers=1):
            corpus = engine.run(
                WalkConfig(num_walks_per_node=args.walks,
                           max_walk_length=args.length, bias=args.bias,
                           num_windows=args.walk_windows),
                seed=args.seed,
            )
        walk_stats = engine.last_stats
        sgns = SgnsConfig(dim=args.dim, epochs=1)
        trainer = BatchedSgnsTrainer(sgns,
                                     batch_sentences=args.batch_sentences
                                     or 1024)
        with get_recorder().span("word2vec", workers=1):
            trainer.train(corpus, graph.num_nodes, seed=args.seed + 1)
        w2v_stats = trainer.last_stats
    dims = [(2 * args.dim, 32), (32, 1)]

    profiles = [
        profile_random_walk(walk_stats),
        profile_word2vec(w2v_stats, sgns),
        profile_classifier("train", dims, 10 * graph.num_edges, 128, True),
        profile_classifier("test", dims, graph.num_edges, 1024, False),
    ]
    print()
    print(render_table(
        [{"kernel": p.name, **{k: round(v, 3) for k, v in
                               p.fractions().items()}} for p in profiles],
        title="Dynamic instruction mix (Fig. 9 analogue)",
    ))

    kernels = [
        walk_kernel(walk_stats, graph),
        word2vec_kernel(w2v_stats, sgns, graph.num_nodes,
                        args.batch_sentences or 1024),
        classifier_kernel("train", dims, 128, 10 * graph.num_edges, True),
        classifier_kernel("test", dims, 1024, graph.num_edges, False),
    ]
    rows = []
    for kernel in kernels:
        report = kernel.report()
        rows.append({
            "kernel": report.name,
            "dominant stall": report.stalls.dominant(),
            "sm util": round(report.sm_utilization, 4),
            "time (s)": report.time_seconds,
        })
    print()
    print(render_table(rows, title="Modeled GPU kernels (Fig. 11 analogue)"))

    work = walk_stats.work_per_start_node + 1.0
    curve = scaling_curve(work, [1, 2, 4, 8, 16, 32, 64, 128])
    print()
    print(render_table(
        [{"threads": t, "speedup": round(s, 1)} for t, s in curve.items()],
        title="Walk-kernel thread scaling, work stealing (Fig. 10 analogue)",
    ))
    return 0


# ---------------------------------------------------------------------------
# The stream→serve deployment: one assembly, three presets
# ---------------------------------------------------------------------------


def _split_stream(
    ordered: TemporalEdgeList, fraction: float, batches: int
) -> tuple[TemporalEdgeList, list[TemporalEdgeList]]:
    """Cut a time-sorted stream into a seed graph and live batches.

    The first ``fraction`` of the edges seed the graph and the tail is
    cut into ``batches`` equal steps, the last taking the remainder.
    Steps that would start past the end of a short tail are dropped, so
    there may be fewer live batches than asked for.  With ``batches <
    1`` the whole stream seeds the graph.
    """
    n = len(ordered)
    batches = max(batches, 0)
    cut = int(fraction * n) if batches else n
    step = max(1, (n - cut) // max(batches, 1))
    bounds = [min(cut + i * step, n) for i in range(batches)] + [n]
    live = [ordered.take(np.arange(lo, hi))
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    return ordered.take(np.arange(cut)), live


def _refresh_policy(args: argparse.Namespace):
    """The StreamController refresh policy named by --refresh-policy."""
    from repro.stream import AffectedFraction, EveryNEdges, MaxStaleness

    return {
        "every-n": lambda: EveryNEdges(args.refresh_edges),
        "staleness": lambda: MaxStaleness(args.staleness_seconds),
        "affected": lambda: AffectedFraction(args.affected_fraction),
    }[args.refresh_policy]()


def _chaos_plan(args: argparse.Namespace,
                sharded: bool) -> tuple[int, int, float] | None:
    """Check the tier-specific knobs and parse ``--kill-replica
    SHARD[:REPLICA[:DELAY_S]]`` into ``(shard, replica, delay)``.

    The micro-batching flags only shape the local tier, and the chaos
    and rebalance flags only the sharded one; a flag the chosen tier
    would ignore is an error.  Runs before the embedding build, so a
    bad flag fails fast instead of after minutes of walks and SGNS.
    """
    if sharded:
        for flag, dest, default in (
                ("--max-batch-size", "max_batch_size", _MAX_BATCH_SIZE),
                ("--max-delay-ms", "max_delay_ms", _MAX_DELAY_MS)):
            if getattr(args, dest, default) != default:
                raise ServingError(
                    f"{flag} needs the local tier (--shards 1)")
    else:
        for flag, used in (("--kill-replica", args.kill_replica is not None),
                           ("--autoscale", args.autoscale),
                           ("--rebalance-every", args.rebalance_every > 0)):
            if used:
                raise ServingError(
                    f"{flag} needs the sharded tier (--shards > 1)")
    spec = args.kill_replica
    if spec is None:
        return None
    parts = spec.split(":")
    try:
        if len(parts) > 3:
            raise ValueError(spec)
        shard = int(parts[0])
        replica = int(parts[1]) if len(parts) > 1 else 0
        delay = float(parts[2]) if len(parts) > 2 else 0.2
    except ValueError:
        raise ServingError(
            f"--kill-replica expects SHARD[:REPLICA[:DELAY_S]], "
            f"got {spec!r}") from None
    for name, value, bound in (("shard", shard, args.shards),
                               ("replica", replica, args.replicas)):
        if not 0 <= value < bound:
            raise ServingError(f"--kill-replica {name} {value} out of "
                               f"range [0, {bound})")
    if delay < 0:
        raise ServingError(f"--kill-replica delay must be >= 0, got {delay}")
    return shard, replica, delay


@contextmanager
def _local_tier(args: argparse.Namespace, store) -> Iterator:
    """The in-process micro-batched frontend over ``store``."""
    from repro.serving import ServingConfig, ServingFrontend

    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        max_delay=args.max_delay_ms / 1e3,
        default_k=args.k,
        cache_size=args.cache_size,
        index=args.index,
        ann=_ann_config(args),
    )
    with ServingFrontend(store, config) as frontend:
        if frontend.ann is not None:
            # Serve the seed snapshot from the IVF index from the first
            # request (later publishes rebuild async).
            ready = frontend.ann.wait_ready(timeout=60.0)
            index = frontend.ann.current
            if ready and index is not None:
                print(f"  ann: IVF index v{index.version} — {index.nlist} "
                      f"cells, nprobe {index.nprobe}, "
                      f"{index.nbytes / 1e6:.2f} MB, built in "
                      f"{index.build_seconds:.3f}s")
            else:
                print("  ann: index not ready, serving exact fallback "
                      "until the build lands")
        yield frontend


@contextmanager
def _sharded_tier(args: argparse.Namespace, store) -> Iterator:
    """The replicated scatter/gather tier, fed every ``store`` publish."""
    from repro.serving import (
        ShardPlan,
        ShardedFrontend,
        ShardedPublisher,
        ShardedServingConfig,
    )

    plan = ShardPlan(args.shards, args.shard_plan)
    config = ShardedServingConfig(
        default_k=args.k,
        cache_size=args.cache_size,
        index=args.index,
        ann=_ann_config(args),
        replication_factor=args.replicas,
    )
    with ShardedFrontend(plan, config) as frontend:
        publisher = ShardedPublisher(frontend)
        # Installs the warm snapshot now and fans out every refresh.
        publisher.attach(store)
        print(f"  shards: {plan.num_shards} x {args.replicas} workers "
              f"({plan.strategy} plan), serving version {frontend.version}")
        yield frontend
        # Pull worker-internal recorder state back to the router before
        # the workers go away.
        frontend.worker_metrics()
        publisher.detach()


def _chaos_threads(args: argparse.Namespace, frontend,
                   kill: tuple[int, int, float] | None,
                   stop: threading.Event) -> list[threading.Thread]:
    """The --kill-replica and --rebalance-every drills (not started)."""
    from repro.serving import ShardPlan

    threads = []
    if kill is not None:
        shard_id, replica, delay = kill

        def killer() -> None:
            if not stop.wait(delay):
                frontend.kill_replica(shard_id, replica)
                print(f"  chaos: killed shard {shard_id} replica "
                      f"{replica} after {delay:.2f}s")

        threads.append(threading.Thread(target=killer, daemon=True,
                                        name="sim-kill"))
    if args.rebalance_every > 0:
        other = "range" if args.shard_plan == "hash" else "hash"

        def rebalancer() -> None:
            strategies = itertools.cycle([other, args.shard_plan])
            while not stop.wait(args.rebalance_every):
                strategy = next(strategies)
                rebalanced = frontend.rebalance(
                    ShardPlan(args.shards, strategy))
                print(f"  rebalance: -> {strategy} plan in "
                      f"{rebalanced.seconds:.3f}s "
                      f"(drained={rebalanced.drained})")

        threads.append(threading.Thread(target=rebalancer, daemon=True,
                                        name="sim-rebalance"))
    return threads


def cmd_sim(args: argparse.Namespace) -> int:
    """``repro serve-sim|stream-sim|pipeline-sim``: the stream→serve loop.

    The three commands are presets (:data:`_SIM_PRESETS`) of this one
    assembly.  It builds the deployment in stages: the source stream
    and its split; the :class:`~repro.graph.DynamicTemporalGraph`, with
    a :class:`~repro.stream.WriteAheadLog` when ``--wal-dir`` is given;
    the incremental embedder; the ingest queue drained by the
    :class:`~repro.stream.StreamController`; the serving tier (local,
    or sharded once ``--shards`` reaches the preset's ``sharded_from``);
    the optional control plane and chaos drills; the closed-loop load
    run; and a report table for each stage that ran.
    """
    from repro.faults import FaultPlan
    from repro.graph import DynamicTemporalGraph
    from repro.serving import EmbeddingStore, run_load
    from repro.stream import IngestQueue, StreamController, WriteAheadLog
    from repro.tasks.incremental import IncrementalEmbedder

    if args.replay_only:
        return _replay_wal(args.wal_dir)
    sharded = args.shards >= args.sharded_from
    kill = _chaos_plan(args, sharded)

    if args.input:
        edges = read_wel(args.input)
        source = args.input
    else:
        edges = generators.erdos_renyi_temporal(args.nodes, args.edges,
                                                seed=args.seed)
        source = f"ER {args.nodes}x{args.edges} (synthetic)"
    initial, batches = _split_stream(edges.sorted_by_time(), args.split,
                                     args.batches)
    policy = _refresh_policy(args)

    fault_plan = FaultPlan.from_env()
    with _observability(args) as obs_recorder:
        recorder = obs_recorder if obs_recorder is not None else Recorder()
        with use_recorder(recorder):
            # A WAL logs the seed graph as its first batch, so
            # --replay-only rebuilds the whole graph and the live
            # generation sequence.  Without one the seed is generation 0.
            wal = None
            if args.wal_dir:
                wal = WriteAheadLog(args.wal_dir,
                                    segment_max_bytes=args.wal_segment_bytes,
                                    sync=not args.no_wal_sync,
                                    fault_plan=fault_plan)
            dynamic = DynamicTemporalGraph(None if wal else initial)
            if wal is not None and len(initial):
                wal.append(initial)
                dynamic.append(initial)
            store = EmbeddingStore()
            embedder = IncrementalEmbedder(
                dynamic,
                walk_config=WalkConfig(num_walks_per_node=args.walks,
                                       max_walk_length=args.length,
                                       bias=args.bias),
                sgns_config=SgnsConfig(dim=args.dim, epochs=args.w2v_epochs),
                seed=args.seed,
                store=store,
                sampler=args.sampler,
            )
            build = embedder.rebuild()
            print(f"input: {source} — {dynamic.num_nodes} nodes, "
                  f"{dynamic.num_edges} edges initial; embeddings in "
                  f"{build.seconds:.2f}s (generation {build.generation}); "
                  f"{len(batches)} live batches to stream"
                  + (f"; WAL at {args.wal_dir}" if wal is not None else ""))

            queue = IngestQueue(max_edges=args.queue_edges,
                                policy=args.backpressure,
                                rate_limit=args.rate_limit)
            controller = StreamController(
                dynamic, queue, wal=wal, embedder=embedder, policy=policy,
                fault_plan=fault_plan,
            )

            def produce() -> None:
                for edge_batch in batches:
                    if args.batch_interval > 0:
                        time.sleep(args.batch_interval)
                    queue.put(edge_batch)

            stop_chaos = threading.Event()
            tier = _sharded_tier if sharded else _local_tier
            with tier(args, store) as frontend:
                plane = (_controlplane(args, frontend, fault_plan)
                         if args.autoscale else nullcontext())
                threads = [
                    threading.Thread(target=produce, daemon=True,
                                     name="sim-producer"),
                    *_chaos_threads(args, frontend, kill, stop_chaos),
                ]
                with controller, plane:
                    for thread in threads:
                        thread.start()
                    report = run_load(
                        frontend,
                        num_requests=args.requests,
                        clients=args.clients,
                        topk_fraction=args.topk_fraction,
                        k=args.k,
                        seed=args.seed,
                    )
                    stop_chaos.set()
                    for thread in threads:
                        thread.join()

            for update in embedder.reports[1:]:
                print(f"  ingest: generation {update.generation}, "
                      f"{update.affected_nodes} affected nodes, "
                      f"{update.seconds:.2f}s")
            stats = controller.stats
            tables = [
                ("Closed-loop load (client side)", [report.as_row()]),
                (f"Streaming ingest ({args.backpressure} backpressure, "
                 f"{policy.name} refresh)", [{
                     "batches": stats.batches_applied,
                     "edges": stats.edges_applied,
                     "refreshes": stats.refreshes,
                     "refresh s": round(stats.refresh_seconds, 2),
                     "dropped": queue.dropped_batches,
                     "rejected": queue.rejected_batches,
                     "wal bytes": int(
                         recorder.counters.get("stream.wal.bytes", 0)),
                     "segments": wal.segment_count if wal else 0,
                     "generation": dynamic.generation,
                 }]),
            ]
            if sharded:
                tables += [
                    ("Sharded tier (recorder)", [_shard_row(recorder)]),
                    ("Per-shard breakdown (recorder)",
                     _per_shard_rows(recorder, args.shards, report.seconds)),
                    ("Worker internals (aggregated over replicas)",
                     [_worker_row(recorder)]),
                ]
            else:
                tables.append(("Serving internals (recorder)",
                               [_serving_row(recorder, store)]))
                if args.index == "ivf":
                    tables.append(("ANN index internals (recorder)",
                                   [_ann_row(recorder)]))
            if args.autoscale:
                tables.append(("Control plane (recorder)",
                               [_controlplane_row(recorder)]))
            for title, rows in tables:
                print()
                print(render_table(rows, title=title))
    return 0


def _replay_wal(wal_dir: str) -> int:
    """``stream-sim --replay-only``: recover a WAL and report it."""
    from repro.stream import StreamController

    dynamic, result = StreamController.recover(wal_dir)
    print(render_table(
        [{
            "segments": result.segments,
            "batches": len(result.batches),
            "edges": result.total_edges,
            "nodes": dynamic.num_nodes,
            "generation": dynamic.generation,
            "truncated bytes": result.truncated_bytes,
            "replay s": round(result.seconds, 4),
        }],
        title=f"recovered from WAL {wal_dir}",
    ))
    return 0


def _serving_row(recorder, store) -> dict:
    """One summary row of the local tier's ``serving.*`` metrics."""
    counters = recorder.counters
    hits = counters.get("serving.index.cache_hits", 0)
    misses = counters.get("serving.index.cache_misses", 0)
    batch_hist = recorder.histograms.get("serving.batch.size")
    return {
        "publishes": int(counters.get("serving.store.publishes", 0)),
        "served generation": int(store.generation),
        "cache hit rate": (round(hits / (hits + misses), 3)
                           if hits + misses else 0.0),
        "mean batch": round(batch_hist.mean, 2) if batch_hist else 0.0,
        "gemm rows": int(counters.get("serving.index.gemm_rows", 0)),
    }


def _shard_row(recorder) -> dict:
    """One summary row of router-side ``serving.shard.*`` metrics.

    Covers publishes, fan-out, overhead, degradation, replica
    failovers, and rebalances; worker-internal metrics are pulled over
    separately by ``ShardedFrontend.worker_metrics`` and rendered by
    :func:`_worker_row`.
    """
    counters = recorder.counters
    fanin = recorder.histograms.get("serving.shard.gather_fanin")
    overhead = recorder.histograms.get("serving.shard.router_overhead_s")
    install = recorder.histograms.get("serving.shard.install_s")
    return {
        "publishes": int(counters.get("serving.shard.publishes", 0)),
        "version": int(recorder.gauges.get("serving.shard.version", 0)),
        "install s": round(install.total, 3) if install else 0.0,
        "topk": int(counters.get("serving.shard.requests.topk", 0)),
        "score": int(counters.get("serving.shard.requests.score", 0)),
        "mean fan-in": round(fanin.mean, 2) if fanin else 0.0,
        "router ms": (round(overhead.mean * 1e3, 3)
                      if overhead and overhead.count else 0.0),
        "degraded": int(
            counters.get("serving.shard.degraded_queries", 0)),
        "failovers": int(
            counters.get("serving.shard.replica.failovers", 0)),
        "rebalances": int(
            counters.get("serving.shard.rebalance.count", 0)),
        "stale retries": int(
            counters.get("serving.shard.stale_retries", 0)),
        "vector fetches": int(
            counters.get("serving.shard.vector_fetches", 0)),
        "cache hits": int(counters.get("serving.shard.cache_hits", 0)),
    }


def _per_shard_rows(recorder, num_shards: int, wall: float) -> list[dict]:
    """Per-shard QPS / worker latency rows from the router's counters."""
    rows = []
    for shard in range(num_shards):
        requests = int(
            recorder.counters.get(f"serving.shard.{shard}.requests", 0))
        seconds = recorder.histograms.get(f"serving.shard.{shard}.seconds")
        rows.append({
            "shard": shard,
            "requests": requests,
            "qps": round(requests / wall, 1) if wall > 0 else 0.0,
            "mean ms": (round(seconds.mean * 1e3, 3)
                        if seconds and seconds.count else 0.0),
        })
    return rows


def _worker_row(recorder) -> dict:
    """Aggregated worker-internal metrics (``serving.shard.workers.*``).

    These counters accumulate inside the shard worker processes and are
    merged back by ``ShardedFrontend.worker_metrics`` at the end of the
    run — per-shard index GEMM rows, slice installs, and ANN internals
    that previously died with the workers.
    """
    counters = recorder.counters
    prefix = "serving.shard.workers."
    hits = counters.get(prefix + "serving.index.cache_hits", 0)
    misses = counters.get(prefix + "serving.index.cache_misses", 0)
    return {
        "workers": int(recorder.gauges.get(prefix + "reporting", 0)),
        "slice installs": int(
            counters.get(prefix + "serving.store.publishes", 0)),
        "gemm rows": int(
            counters.get(prefix + "serving.index.gemm_rows", 0)),
        "index cache hits": int(hits),
        "index cache misses": int(misses),
        "ann builds": int(counters.get(prefix + "serving.ann.builds", 0)),
        "ann queries": int(
            counters.get(prefix + "serving.ann.queries", 0)),
    }


@contextmanager
def _controlplane(args: argparse.Namespace, frontend,
                  fault_plan) -> Iterator[None]:
    """Supervise ``frontend`` with the control plane for the ``with`` body.

    On the way out it waits (bounded) until every replica slot is live
    again, or the circuit breaker gave up on one.  A chaos kill landing
    near the end of the load run would otherwise race shutdown, and the
    drill's whole point is to observe the respawn.
    """
    from repro.serving import ControlPlane, ControlPlaneConfig

    config = ControlPlaneConfig(
        health_period=args.health_period,
        max_respawns=args.max_respawns,
        skew_threshold=args.skew_threshold,
        skew_observations=args.skew_observations,
        rebalance_cooldown=args.rebalance_cooldown,
    )
    print(f"  control plane: sweeping every {config.health_period:.2f}s "
          f"(max {config.max_respawns} respawns/slot, skew >= "
          f"{config.skew_threshold:.1f}x over "
          f"{config.skew_observations} sweeps)")
    with ControlPlane(frontend, config, fault_plan=fault_plan):
        yield
        recorder = get_recorder()
        deadline = time.monotonic() + 10.0
        while (time.monotonic() < deadline
               and frontend.alive_workers < args.shards * args.replicas
               and not recorder.counters.get(
                   "serving.controlplane.respawn_giveup")):
            time.sleep(config.health_period)


def _controlplane_row(recorder) -> dict:
    """One summary row of the ``serving.controlplane.*`` metrics."""
    counters = recorder.counters
    prefix = "serving.controlplane."
    latency = recorder.histograms.get(prefix + "decision_latency_s")
    recovery = recorder.histograms.get(prefix + "recovery_seconds")
    return {
        "sweeps": int(counters.get(prefix + "sweeps", 0)),
        "respawns": int(counters.get(prefix + "respawns", 0)),
        "respawn failures": int(
            counters.get(prefix + "respawn_failures", 0)),
        "give-ups": int(counters.get(prefix + "respawn_giveup", 0)),
        "skew obs": int(counters.get(prefix + "skew_observations", 0)),
        "rebalances": int(
            counters.get(prefix + "rebalance_decisions", 0)),
        "dead workers": int(
            recorder.gauges.get(prefix + "dead_workers", 0)),
        "decision ms": (round(latency.mean * 1e3, 3)
                        if latency and latency.count else 0.0),
        "recovery s": (round(recovery.mean, 3)
                       if recovery and recovery.count else 0.0),
    }


def _ann_config(args: argparse.Namespace):
    """Build the IvfConfig for ``--index ivf`` runs (None otherwise)."""
    if args.index != "ivf":
        return None
    from repro.serving import IvfConfig

    return IvfConfig(
        nlist=args.nlist,
        nprobe=args.nprobe,
        recall_sample_every=args.ann_recall_every,
    )


def _ann_row(recorder) -> dict:
    """One summary row of the ``serving.ann.*`` recorder metrics."""
    counters = recorder.counters
    recall_hist = recorder.histograms.get("serving.ann.recall_at_k")
    build_hist = recorder.histograms.get("serving.ann.build_seconds")
    return {
        "builds": int(counters.get("serving.ann.builds", 0)),
        "build s": round(build_hist.total, 3) if build_hist else 0.0,
        "bytes": int(recorder.gauges.get("serving.ann.bytes", 0)),
        "ann queries": int(counters.get("serving.ann.queries", 0)),
        "cells probed": int(counters.get("serving.ann.cells_probed", 0)),
        "candidates": int(
            counters.get("serving.ann.candidates_scored", 0)),
        "fallbacks": int(counters.get("serving.ann.fallbacks", 0)),
        "recall samples": int(counters.get("serving.ann.recall_samples", 0)),
        "sampled recall": (round(recall_hist.mean, 3)
                           if recall_hist and recall_hist.count else ""),
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_OFF = object()       #: the preset has no such flag
_REQUIRED = object()  #: the preset requires the flag (no default)

#: Micro-batching defaults of the local tier; the sharded tier rejects
#: any other value (see :func:`_chaos_plan`).
_MAX_BATCH_SIZE = 64
_MAX_DELAY_MS = 2.0

_EMBED = "embedding hyperparameters"
_INGEST = "ingest: WAL, queue, refresh"
_LOAD = "serving and load"
_PLANE = "control plane"
_OBS = "observability"


def _opt(group: str | None, flag: str, defaults: tuple,
         help_text: str | None, **kwargs) -> tuple:
    """One _SIM_OPTIONS row."""
    return group, flag, defaults, dict(kwargs, help=help_text)


#: Every sim option once: (group, flag, default in serve-sim, stream-sim,
#: pipeline-sim, add_argument kwargs).  A preset without the flag
#: (_OFF) takes the value from its _SIM_PRESETS entry instead.
_SIM_OPTIONS = (
    _opt(None, "--input", (None, None, None),
         ".wel temporal graph (omit for synthetic ER)"),
    _opt(None, "--nodes", (2_000, 2_000, 1_000),
         "ER nodes when --input is omitted", type=int),
    _opt(None, "--edges", (20_000, 20_000, 10_000),
         "ER edges when --input is omitted", type=int),
    _opt(_EMBED, "--sampler", ("cdf",) * 3,
         "walk kernel for incremental refresh walks",
         choices=["cdf", "gumbel", "batched"]),
    _opt(_EMBED, "--walks", (5, 5, 2), "random walks per node (K)",
         type=int),
    _opt(_EMBED, "--length", (6, 6, 4), "maximum walk length in nodes (L)",
         type=int),
    _opt(_EMBED, "--bias", ("softmax-recency",) * 3, "Eq. 1 transition bias",
         choices=["uniform", "softmax-late", "softmax-recency", "linear"]),
    _opt(_EMBED, "--dim", (8, 8, 8), "embedding dimension (d)", type=int),
    _opt(_EMBED, "--w2v-epochs", (2, 2, 1), "word2vec epochs", type=int),
    _opt(_INGEST, "--wal-dir", (_OFF, _REQUIRED, None),
         "write-ahead-log directory (created if missing; an existing log "
         "is repaired and continued; pipeline-sim streams without "
         "durability when omitted)"),
    _opt(_INGEST, "--replay-only", (_OFF, False, _OFF),
         "recover and report the WAL contents, then exit (crash-recovery "
         "verification; no load run)", action="store_true"),
    _opt(_INGEST, "--wal-segment-bytes", (_OFF, 256 * 1024, _OFF),
         "WAL segment rotation threshold", type=int),
    _opt(_INGEST, "--no-wal-sync", (_OFF, False, _OFF),
         "skip the per-batch fsync (faster, loses the power-failure "
         "guarantee)", action="store_true"),
    _opt(_INGEST, "--backpressure", (_OFF, "block", _OFF),
         "ingest-queue overflow policy",
         choices=["block", "drop_oldest", "reject"]),
    _opt(_INGEST, "--queue-edges", (_OFF, 50_000, 50_000),
         "ingest queue bound, in edges", type=int),
    _opt(_INGEST, "--rate-limit", (_OFF, None, _OFF),
         "token-bucket producer limit in edges/second (default: "
         "unlimited)", type=float),
    _opt(_INGEST, "--refresh-policy", (_OFF, "every-n", _OFF),
         "when to refresh embeddings",
         choices=["every-n", "staleness", "affected"]),
    _opt(_INGEST, "--refresh-edges", (_OFF, 1000, 500),
         "every-n: applied edges per refresh", type=int),
    _opt(_INGEST, "--staleness-seconds", (_OFF, 0.5, _OFF),
         "staleness: max wall-clock age of pending edges", type=float),
    _opt(_INGEST, "--affected-fraction", (_OFF, 0.1, _OFF),
         "affected: touched-node fraction per refresh", type=float),
    _opt(_INGEST, "--update-batches", (0, _OFF, _OFF),
         "hold back 30%% of the stream and replay it as this many live "
         "edge batches + incremental updates during the load run",
         type=int, dest="batches", metavar="UPDATE_BATCHES"),
    _opt(_INGEST, "--update-interval", (0.05, _OFF, _OFF),
         "seconds between live edge batches",
         type=float, dest="batch_interval", metavar="UPDATE_INTERVAL"),
    _opt(_INGEST, "--batches", (_OFF, 8, 6),
         "live batches the generator streams (40%% of the input is held "
         "back for them)", type=_positive_int),
    _opt(_INGEST, "--batch-interval", (_OFF, 0.02, 0.02),
         "seconds between generated batches", type=float),
    _opt(_LOAD, "--clients", (8, 4, 4), "closed-loop client threads",
         type=int),
    _opt(_LOAD, "--requests", (5_000, 2_000, 1_000),
         "total requests across all clients", type=int),
    _opt(_LOAD, "--topk-fraction", (0.5, 0.5, 0.5),
         "fraction of requests that are top-k (rest are link scores)",
         type=float),
    _opt(_LOAD, "--k", (10, 10, 10), "recommendations per top-k request",
         type=int),
    _opt(_LOAD, "--max-batch-size", (_MAX_BATCH_SIZE,) * 2 + (_OFF,),
         "micro-batch size cap (1 = single-request baseline)", type=int),
    _opt(_LOAD, "--max-delay-ms", (_MAX_DELAY_MS,) * 2 + (_OFF,),
         "micro-batch max wait in milliseconds", type=float),
    _opt(_LOAD, "--cache-size", (4096, 4096, _OFF),
         "top-k LRU cache entries (0 disables)", type=int),
    _opt(_LOAD, "--index", ("exact", "exact", _OFF),
         "top-k index: exact blocked scan (oracle) or approximate IVF "
         "probing", choices=["exact", "ivf"]),
    _opt(_LOAD, "--nlist", (None, None, _OFF),
         "IVF cell count (default: ~sqrt(nodes))", type=int),
    _opt(_LOAD, "--nprobe", (8, 8, _OFF),
         "IVF cells probed per query (= nlist probes everything: exact "
         "results)", type=int),
    _opt(_LOAD, "--ann-recall-every", (100, 100, _OFF),
         "shadow-check every Nth ANN query against the exact oracle and "
         "record its recall (0 = off)", type=int),
    _opt(_LOAD, "--shards", (1, _OFF, 2),
         "shard worker processes (serve-sim serves through the "
         "scatter/gather sharded tier from 2 up)", type=_positive_int),
    _opt(_LOAD, "--shard-plan", ("hash", _OFF, "hash"),
         "node-id partitioner of the sharded tier",
         choices=["hash", "range"]),
    _opt(_LOAD, "--replicas", (1, _OFF, 2),
         "worker replicas per shard slice (reads fan out round-robin and "
         "fail over to a live sibling)", type=_positive_int),
    _opt(_LOAD, "--rebalance-every", (0.0, _OFF, _OFF),
         "live-rebalance the sharded tier between hash and range plans at "
         "this interval during the load run (0 disables)",
         type=float, metavar="SECONDS"),
    _opt(_LOAD, "--kill-replica", (None, _OFF, None),
         "chaos drill: hard-kill one shard worker DELAY_S seconds (default "
         "0.2) into the load run", metavar="SHARD[:REPLICA[:DELAY_S]]"),
    _opt(_PLANE, "--autoscale", (False, _OFF, _OFF),
         "supervise the sharded tier: auto-respawn dead replicas and "
         "rebalance on sustained load skew (requires --shards > 1)",
         action="store_true"),
    _opt(_PLANE, "--health-period", (0.1, _OFF, 0.1),
         "seconds between control-plane health sweeps", type=float),
    _opt(_PLANE, "--max-respawns", (5, _OFF, 5),
         "respawn attempts per replica slot before the circuit breaker "
         "gives up (tier stays degraded, never fork-loops)", type=int),
    _opt(_PLANE, "--skew-threshold", (3.0, _OFF, 3.0),
         "max/mean per-shard request-rate ratio that counts as skew",
         type=float),
    _opt(_PLANE, "--skew-observations", (3, _OFF, 3),
         "consecutive skewed sweeps before a rebalance is armed "
         "(hysteresis)", type=int),
    _opt(_PLANE, "--rebalance-cooldown", (5.0, _OFF, 5.0),
         "minimum seconds between control-plane rebalances (no flapping)",
         type=float),
    _opt(_OBS, "--metrics-out", (None, None, None),
         "write run counters/gauges/histograms as JSON", metavar="FILE"),
    _opt(_OBS, "--trace-out", (None, None, None),
         "write the span trace as JSONL", metavar="FILE"),
    _opt(None, "--seed", (0, 0, 0), None, type=int),
)

#: The three sim commands, in _SIM_OPTIONS column order: their help and
#: the set_defaults data that makes them presets of :func:`cmd_sim` —
#: the seed-graph fraction of the stream (``split``), the --shards count
#: from which the tier is sharded (``sharded_from``), whether the
#: control plane runs (``autoscale``), and the values of hidden options.
_SIM_PRESETS = {
    "serve-sim": (
        "online serving simulation (embedding store + micro-batched "
        "frontend under closed-loop load)",
        # No WAL; every live batch is refreshed on its own, through a
        # queue that admits every held-back batch.
        dict(split=0.7, sharded_from=2, wal_dir=None, replay_only=False,
             backpressure="block", queue_edges=sys.maxsize, rate_limit=None,
             refresh_policy="every-n", refresh_edges=1),
    ),
    "stream-sim": (
        "durable streaming-ingest simulation (WAL + bounded queue + "
        "policy-driven refresh under closed-loop query load)",
        dict(split=0.6, sharded_from=2, autoscale=False, shards=1,
             kill_replica=None, rebalance_every=0.0),
    ),
    "pipeline-sim": (
        "end-to-end stream→serve pipeline: ingest queue + WAL + "
        "incremental refresh fanned out to the replicated sharded tier "
        "under control-plane supervision and query load",
        dict(split=0.6, sharded_from=1, autoscale=True, replay_only=False,
             wal_segment_bytes=DEFAULT_SEGMENT_MAX_BYTES, no_wal_sync=False,
             backpressure="block", rate_limit=None, refresh_policy="every-n",
             cache_size=4096, index="exact", rebalance_every=0.0),
    ),
}


def _add_sim_parsers(sub) -> None:
    """Add serve-sim, stream-sim and pipeline-sim from the shared table."""
    for column, (command, (help_text, preset)) in enumerate(
            _SIM_PRESETS.items()):
        parser = sub.add_parser(command, help=help_text)
        groups = {None: parser}
        for group, flag, defaults, kwargs in _SIM_OPTIONS:
            default = defaults[column]
            if default is _OFF:
                continue
            if group not in groups:
                groups[group] = parser.add_argument_group(group)
            value = ({"required": True} if default is _REQUIRED
                     else {"default": default})
            groups[group].add_argument(flag, **kwargs, **value)
        parser.set_defaults(func=cmd_sim, **preset)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Random walk-based temporal graph learning "
                    "(IISWC 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", choices=LP_SHAPES + NC_SHAPES,
                     help="Table II dataset shape (omit for plain ER)")
    gen.add_argument("--scale", type=float, default=None,
                     help="size scale for dataset shapes")
    gen.add_argument("--nodes", type=int, default=10_000,
                     help="ER node count")
    gen.add_argument("--edges", type=int, default=100_000,
                     help="ER edge count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True,
                     help=".wel for edge lists, .npz for labeled datasets")
    gen.set_defaults(func=cmd_generate)

    pre = sub.add_parser("preprocess",
                         help="normalize a raw edge list into .wel")
    pre.add_argument("-i", "--input", required=True)
    pre.add_argument("-o", "--output", required=True)
    pre.set_defaults(func=cmd_preprocess)

    lp = sub.add_parser("linkpred", help="run end-to-end link prediction")
    src = lp.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help=".wel temporal graph")
    src.add_argument("--dataset", choices=LP_SHAPES,
                     help="synthetic Table II shape")
    _add_pipeline_arguments(lp)
    lp.set_defaults(func=cmd_linkpred)

    nc = sub.add_parser("nodeclass",
                        help="run end-to-end node classification")
    src = nc.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help=".npz labeled dataset bundle")
    src.add_argument("--dataset", choices=NC_SHAPES,
                     help="synthetic Table II shape")
    _add_pipeline_arguments(nc)
    nc.set_defaults(func=cmd_nodeclass)

    sweep = sub.add_parser("sweep",
                           help="Fig. 8-style hyperparameter sweep")
    src = sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--input",
                     help=".wel graph (LP) or .npz labeled bundle (NC)")
    src.add_argument("--dataset", choices=LP_SHAPES + NC_SHAPES,
                     help="synthetic Table II shape")
    sweep.add_argument("--parameter", required=True,
                       choices=["num_walks", "walk_length", "dimension"])
    sweep.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 1,2,4,8")
    sweep.add_argument("--seeds", default="11,31",
                       help="comma-separated seeds to average over")
    _add_pipeline_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    hw = sub.add_parser("characterize",
                        help="hardware study on a synthetic ER graph")
    hw.add_argument("--nodes", type=int, default=20_000)
    hw.add_argument("--edges", type=int, default=400_000)
    _add_pipeline_arguments(hw)
    hw.set_defaults(func=cmd_characterize)

    _add_sim_parsers(sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
