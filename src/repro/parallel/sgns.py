"""Data-parallel SGNS with periodic parameter averaging.

The paper's batched GPU word2vec (§V-B) lets all pairs in a batch read
a *stale* snapshot of the embedding matrices and relies on update
sparsity for accuracy.  :class:`ParallelSgnsTrainer` takes the same
idea one level up: sentences are sharded round-robin across worker
processes, every worker trains its shard against a private snapshot of
the model for one epoch (its updates are stale with respect to the
other workers'), and the parent averages the returned parameter
matrices between epochs.  This is the classic parameter-averaging SGD
layout; with SGNS's sparse touches, one-epoch staleness degrades
accuracy about as little as the in-batch staleness the paper measures.

``workers=1`` delegates to the serial trainers unchanged
(bit-identical results); ``workers=N`` is deterministic for fixed
``N`` — worker seeds come from ``SeedSequence.spawn`` on the root seed
and shard results are combined in worker order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import EmbeddingError
from repro.faults import FaultPlan
from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng
from repro.embedding.batched import (
    BatchedSgnsTrainer,
    SgnsStep,
    num_batches,
    train_batches,
)
from repro.embedding.negative import NegativeSampler
from repro.embedding.skipgram import SkipGramModel
from repro.embedding.trainer import (
    SequentialSgnsTrainer,
    SgnsConfig,
    TrainerStats,
    publish_trainer_stats,
)
from repro.embedding.vocab import Vocabulary
from repro.parallel.supervisor import (
    ShardReport,
    SupervisorConfig,
    _mp_context,
    run_supervised,
)
from repro.walk.corpus import WalkCorpus


def _train_shard(
    shard: WalkCorpus,
    counts: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    config: SgnsConfig,
    batch_sentences: int,
    seed_seq: np.random.SeedSequence,
    lr_frac0: float,
    lr_frac1: float,
) -> tuple[np.ndarray, np.ndarray, TrainerStats, float, int]:
    """Worker body: one epoch of batched SGNS over one walk shard.

    ``counts`` are the *global* corpus node frequencies, so every
    worker negative-samples from the same unigram^0.75 distribution
    and applies the same subsampling keep-probabilities as a serial
    run would.  The learning rate decays linearly from ``lr_frac0`` to
    ``lr_frac1`` of the global schedule across this shard's batches.
    """
    rng = np.random.default_rng(seed_seq)
    vocab = Vocabulary(counts)
    sampler = NegativeSampler(vocab)
    model = SkipGramModel.__new__(SkipGramModel)
    model.w_in = w_in.copy()
    model.w_out = w_out.copy()

    stats = TrainerStats()
    step = SgnsStep(model, sampler, config, rng)
    n = num_batches(shard, batch_sentences)
    loss_sum = train_batches(
        shard, batch_sentences, config, rng, vocab,
        lambda i: config.learning_rate_at(
            lr_frac0 + (i / n) * (lr_frac1 - lr_frac0)),
        step, stats,
    )
    return model.w_in, model.w_out, stats, loss_sum, step.negatives_drawn


class ParallelSgnsTrainer:
    """Sentence-sharded SGNS across processes, averaging each epoch.

    Drop-in alongside :class:`SequentialSgnsTrainer` /
    :class:`BatchedSgnsTrainer`: same ``train`` signature, same
    :class:`TrainerStats` contract (``mean_loss`` per-pair; work
    counters summed over workers; ``losses`` holds every worker's
    per-update trace in worker order, epoch by epoch).
    """

    def __init__(
        self,
        config: SgnsConfig,
        workers: int,
        batch_sentences: int | None = 1024,
        supervisor: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise EmbeddingError(f"workers must be >= 1, got {workers}")
        self.config = config
        self.workers = workers
        self.batch_sentences = batch_sentences
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        self.last_stats: TrainerStats | None = None
        self.last_shard_reports: list[ShardReport] = []

    # ------------------------------------------------------------------
    def train(
        self,
        corpus: WalkCorpus,
        num_nodes: int,
        seed: SeedLike = None,
        model: SkipGramModel | None = None,
    ) -> SkipGramModel:
        """Train SGNS over the corpus; returns the (possibly new) model."""
        if self.workers == 1:
            serial: SequentialSgnsTrainer | BatchedSgnsTrainer
            if self.batch_sentences is None:
                serial = SequentialSgnsTrainer(self.config)
            else:
                serial = BatchedSgnsTrainer(
                    self.config, batch_sentences=self.batch_sentences
                )
            result = serial.train(corpus, num_nodes, seed=seed, model=model)
            self.last_stats = serial.last_stats
            return result

        cfg = self.config
        rng = make_rng(seed)
        vocab = Vocabulary.from_corpus(corpus, num_nodes)
        if model is None:
            model = SkipGramModel(num_nodes, cfg.dim, seed=rng)
        batch = self.batch_sentences or 1

        stats = TrainerStats()
        start = time.perf_counter()
        rows = np.flatnonzero(corpus.lengths >= 2)
        # Round-robin sharding balances shard token counts even when
        # walk lengths are skewed (consecutive walks share a start
        # node, so contiguous shards would be imbalanced).
        shards = [
            WalkCorpus(corpus.matrix[r], corpus.lengths[r])
            for r in (rows[w::self.workers] for w in range(self.workers))
            if len(r)
        ]
        seed_seqs = rng.bit_generator.seed_seq.spawn(
            max(1, len(shards)) * cfg.epochs
        )

        ctx = _mp_context()
        rec = get_recorder()
        loss_pair_sum = 0.0
        negatives_drawn = 0
        self.last_shard_reports = []
        for epoch in range(cfg.epochs):
            frac0 = epoch / cfg.epochs
            frac1 = (epoch + 1) / cfg.epochs
            jobs = [
                (
                    shard, vocab.counts, model.w_in, model.w_out, cfg,
                    batch, seed_seqs[epoch * len(shards) + w],
                    frac0, frac1,
                )
                for w, shard in enumerate(shards)
            ]
            # Supervised execution: a crashed/hung/corrupted worker is
            # retried with the same seed material, and an incurable
            # shard runs in-process (``_train_shard`` is pure, so the
            # fallback is bit-identical to the worker path).
            with rec.span("sgns_epoch", epoch=epoch, trainer="parallel",
                          workers=len(shards)):
                results, reports = run_supervised(
                    _train_shard,
                    jobs,
                    workers=len(shards),
                    supervisor=self.supervisor,
                    serial_fn=_train_shard,
                    site="sgns",
                    fault_plan=self.fault_plan,
                    mp_context=ctx,
                )
            self.last_shard_reports.extend(reports)
            # Parameter averaging: every worker's epoch is stale
            # with respect to the others; the mean is the sync
            # point (the §V-B stale-read trick across processes).
            model.w_in = np.mean([r[0] for r in results], axis=0)
            model.w_out = np.mean([r[1] for r in results], axis=0)
            for _, _, shard_stats, shard_loss, shard_drawn in results:
                stats.pairs_trained += shard_stats.pairs_trained
                stats.sentences += shard_stats.sentences
                stats.updates += shard_stats.updates
                stats.losses.extend(shard_stats.losses)
                loss_pair_sum += shard_loss
                negatives_drawn += shard_drawn

        stats.fp_ops = stats.pairs_trained * (1 + cfg.negatives) * 4 * cfg.dim
        stats.wall_seconds = time.perf_counter() - start
        stats.mean_loss = loss_pair_sum / max(1, stats.pairs_trained)
        self.last_stats = stats
        publish_trainer_stats(stats, negatives_drawn=negatives_drawn)
        return model
