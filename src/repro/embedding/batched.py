"""Batched SGNS trainer (the paper's GPU word2vec design, §V-B).

The paper's key observation: temporal-walk "sentences" are short (Fig. 4),
so a sentence-at-a-time GPU word2vec launches huge numbers of tiny
kernels and starves the device.  Their fix batches many sentences per
kernel and lets all pairs in a batch read a *stale* snapshot of the
embedding matrices, relying on update sparsity to preserve accuracy; a
16k-sentence batch gave a 124.2x speedup with no accuracy loss (Fig. 5).

:class:`BatchedSgnsTrainer` is the exact numpy analogue: all pairs from a
batch of sentences evaluate gradients against one weight snapshot
(:meth:`SkipGramModel.batch_gradients`), then a single scatter-add applies
them.  Batch size 1 degenerates to the sequential trainer's semantics, so
the Fig. 5 sweep is a single code path.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng
from repro.embedding.negative import NegativeSampler
from repro.embedding.skipgram import (
    SgnsWorkspace,
    SkipGramModel,
    generate_pairs,
)
from repro.embedding.trainer import (
    SgnsConfig,
    TrainerStats,
    publish_trainer_stats,
)
from repro.embedding.vocab import Vocabulary
from repro.walk.corpus import WalkCorpus


def num_batches(corpus: WalkCorpus, batch_sentences: int) -> int:
    """Batches :func:`train_batches` runs per epoch (at least 1)."""
    sentences = int(np.count_nonzero(corpus.lengths >= 2))
    return max(1, -(-sentences // batch_sentences))


def train_batches(
    corpus: WalkCorpus,
    batch_sentences: int,
    config: SgnsConfig,
    rng: np.random.Generator,
    vocab: Vocabulary,
    lr_at: Callable[[int], float],
    step: Callable[[np.ndarray, np.ndarray, float], float],
    stats: TrainerStats,
    loss_sum: float = 0.0,
) -> float:
    """One epoch of batched training; returns ``loss_sum`` plus the
    epoch's pair-weighted loss.

    Walks with at least two nodes are taken in corpus order,
    ``batch_sentences`` at a time, flattened straight out of the walk
    matrix and turned into pairs by one :func:`generate_pairs` call.
    With ``config.subsample_threshold`` set, one ``rng.random`` draw
    covers the whole batch before the window draw.
    ``step(centers, contexts, lr)`` applies batch ``i``'s update at
    ``lr_at(i)`` and returns its mean pair loss; ``stats`` collects the
    work counters.
    """
    rec = get_recorder()
    keep = (vocab.keep_probabilities(config.subsample_threshold)
            if config.subsample_threshold is not None else None)
    rows = np.flatnonzero(corpus.lengths >= 2)
    cols = np.arange(corpus.max_walk_length)
    for i, base in enumerate(range(0, len(rows), batch_sentences)):
        batch = rows[base: base + batch_sentences]
        lengths = corpus.lengths[batch]
        tokens = corpus.matrix[batch][cols < lengths[:, None]]
        if keep is not None:
            kept = rng.random(len(tokens)) < keep[tokens]
            walk = np.repeat(np.arange(len(batch)), lengths)
            lengths = np.bincount(walk[kept], minlength=len(batch))
            tokens = tokens[kept]
        bounds = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        centers, contexts = generate_pairs(
            tokens, config.window, rng, config.dynamic_window, bounds
        )
        lr = lr_at(i)
        stats.sentences += len(batch)
        if not len(centers):
            continue
        if rec.enabled:
            rec.observe("sgns.lr", lr)
        loss = step(centers, contexts, lr)
        stats.pairs_trained += len(centers)
        stats.updates += 1
        stats.losses.append(loss)
        # Pair-weighted: mean_loss is per pair in every trainer.
        loss_sum += loss * len(centers)
    return loss_sum


def train_epochs(
    corpus: WalkCorpus,
    batch_sentences: int,
    config: SgnsConfig,
    rng: np.random.Generator,
    vocab: Vocabulary,
    step: Callable[[np.ndarray, np.ndarray, float], float],
    stats: TrainerStats,
    trainer: str,
) -> float:
    """All ``config.epochs`` epochs of :func:`train_batches` under one
    linear lr decay, each in an ``sgns_epoch`` span; returns the
    pair-weighted loss sum."""
    rec = get_recorder()
    per_epoch = num_batches(corpus, batch_sentences)
    total = config.epochs * per_epoch
    loss_sum = 0.0
    for epoch in range(config.epochs):
        with rec.span("sgns_epoch", epoch=epoch, trainer=trainer):
            loss_sum = train_batches(
                corpus, batch_sentences, config, rng, vocab,
                lambda i: config.learning_rate_at(
                    (epoch * per_epoch + i) / total),
                step, stats, loss_sum,
            )
    return loss_sum


class SgnsStep:
    """The SGNS ``step`` for :func:`train_batches`: one stale-snapshot
    update per batch, counting the negatives it draws (``K`` per batch
    with ``shared_negatives``, else ``K`` per pair).  Its workspace holds
    the step's batch-sized arrays, reused batch after batch."""

    def __init__(self, model: SkipGramModel, sampler: NegativeSampler,
                 config: SgnsConfig, rng: np.random.Generator) -> None:
        self.model = model
        self.sampler = sampler
        self.config = config
        self.rng = rng
        self.negatives_drawn = 0
        self.work = SgnsWorkspace()

    def __call__(self, centers: np.ndarray, contexts: np.ndarray,
                 lr: float) -> float:
        cfg, k = self.config, self.config.negatives
        if cfg.shared_negatives:
            shared = self.sampler.sample(k, self.rng)
            negatives = np.broadcast_to(shared, (len(centers), k))
            self.negatives_drawn += k
        else:
            negatives = self.sampler.sample_matrix(len(centers), k, self.rng)
            self.negatives_drawn += len(centers) * k
        # All pairs read this snapshot; the scatter-add below is the
        # stale concurrent update of §V-B.
        gc, go, gn, loss = self.model.batch_gradients(
            centers, contexts, negatives, work=self.work
        )
        self.model.apply_batch(
            centers, contexts, negatives, gc, go, gn, lr,
            update=cfg.update_mode, cap=cfg.update_cap, work=self.work,
        )
        return loss


class BatchedSgnsTrainer:
    """SGNS with one vectorized update per batch of sentences."""

    def __init__(self, config: SgnsConfig, batch_sentences: int = 1024) -> None:
        if batch_sentences < 1:
            raise ValueError(
                f"batch_sentences must be >= 1, got {batch_sentences}"
            )
        self.config = config
        self.batch_sentences = batch_sentences
        self.last_stats: TrainerStats | None = None

    def train(
        self,
        corpus: WalkCorpus,
        num_nodes: int,
        seed: SeedLike = None,
        model: SkipGramModel | None = None,
    ) -> SkipGramModel:
        """Train SGNS over the corpus; returns the (possibly new) model."""
        cfg = self.config
        rng = make_rng(seed)
        vocab = Vocabulary.from_corpus(corpus, num_nodes)
        sampler = NegativeSampler(vocab)
        if model is None:
            model = SkipGramModel(num_nodes, cfg.dim, seed=rng)

        stats = TrainerStats()
        start = time.perf_counter()
        step = SgnsStep(model, sampler, cfg, rng)
        loss_sum = train_epochs(corpus, self.batch_sentences, cfg, rng, vocab,
                                step, stats, "batched")
        stats.fp_ops = stats.pairs_trained * (1 + cfg.negatives) * 4 * cfg.dim
        stats.wall_seconds = time.perf_counter() - start
        stats.mean_loss = loss_sum / max(1, stats.pairs_trained)
        self.last_stats = stats
        publish_trainer_stats(stats, negatives_drawn=step.negatives_drawn)
        return model
