"""Sentence-sequential SGNS trainer (the "CPU" / unbatched baseline).

Processes one sentence at a time and applies every pair's update
immediately, so each update sees all previous ones — the semantics of the
open-source CPU word2vec the paper adopts (§V-B) and of the GPU baseline
whose one-kernel-launch-per-sentence structure motivates batching.
Per-sentence Python/numpy overhead here plays the role kernel-launch and
transfer overhead play on the GPU, which is why the Fig. 5 batching sweep
re-measures honestly on this axis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import EmbeddingError
from repro.observability import Recorder, get_recorder
from repro.rng import SeedLike, make_rng
from repro.embedding.negative import NegativeSampler
from repro.embedding.skipgram import (
    SgnsWorkspace,
    SkipGramModel,
    check_update,
    generate_pairs,
)
from repro.embedding.vocab import Vocabulary
from repro.walk.corpus import WalkCorpus


@dataclass(frozen=True)
class SgnsConfig:
    """word2vec hyperparameters.

    ``dim=8`` is the paper's recommended embedding dimension (Fig. 8d:
    accuracy saturates at 8, far below the customary 128).
    """

    dim: int = 8
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    subsample_threshold: float | None = None
    dynamic_window: bool = True
    update_mode: str = "capped"
    update_cap: int = 128
    # Draw one set of K negatives per *batch* instead of per pair — the
    # GPU word2vec trick of sharing negative gathers.  Caveat measured by
    # the test suite: sharing across a whole multi-thousand-pair batch
    # starves the objective of contrast (only K rows per batch ever
    # receive negative gradient) and stalls convergence; real GPU kernels
    # share within small thread groups.  Kept as an honest ablation knob.
    shared_negatives: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise EmbeddingError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise EmbeddingError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise EmbeddingError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate:
            raise EmbeddingError("learning_rate must be positive")
        check_update(self.update_mode, self.update_cap)

    def learning_rate_at(self, frac: float) -> float:
        """Linear decay over the run's progress ``frac``, floored (the
        word2vec schedule)."""
        return max(self.min_learning_rate,
                   self.learning_rate * (1.0 - min(1.0, frac)))


@dataclass
class TrainerStats:
    """Work counters of one training run (feed the hardware models).

    ``updates`` counts parameter-update events (one per sentence for the
    sequential trainer, one per batch for the batched trainer) — the
    analogue of GPU kernel launches.  fp-op counts follow the SGNS math:
    each pair costs about ``(1 + K) * 4d`` multiply-adds.

    ``mean_loss`` is the mean SGNS loss *per (center, context) pair*
    over the whole run, in every trainer — pair-weighted, so sequential
    and batched runs report the same unit and Fig. 5/6-style loss
    comparisons are apples-to-apples.  ``losses`` keeps the per-update
    mean-pair-loss trace (one entry per update event).
    """

    pairs_trained: int = 0
    sentences: int = 0
    updates: int = 0
    fp_ops: int = 0
    mean_loss: float = 0.0
    wall_seconds: float = 0.0
    losses: list[float] = field(default_factory=list)


def publish_trainer_stats(
    stats: TrainerStats,
    negatives_drawn: int | None = None,
    recorder: Recorder | None = None,
) -> None:
    """Flush one training run's counters into the (ambient) recorder."""
    rec = recorder if recorder is not None else get_recorder()
    if not rec.enabled:
        return
    rec.counter("sgns.runs")
    rec.counter("sgns.pairs", stats.pairs_trained)
    rec.counter("sgns.sentences", stats.sentences)
    rec.counter("sgns.updates", stats.updates)
    rec.counter("sgns.fp_ops", stats.fp_ops)
    if negatives_drawn is not None:
        rec.counter("sgns.negatives_drawn", negatives_drawn)
    if stats.wall_seconds > 0:
        rec.gauge("sgns.pairs_per_sec",
                  stats.pairs_trained / stats.wall_seconds)
    rec.gauge("sgns.mean_loss", stats.mean_loss)


class SequentialSgnsTrainer:
    """One-sentence-at-a-time SGNS training."""

    def __init__(self, config: SgnsConfig) -> None:
        self.config = config
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
        keep = (
            vocab.keep_probabilities(cfg.subsample_threshold)
            if cfg.subsample_threshold is not None
            else None
        )

        stats = TrainerStats()
        rec = get_recorder()
        track = rec.enabled
        start = time.perf_counter()
        total_sentences = cfg.epochs * sum(
            1 for _ in corpus.sentences(min_length=2)
        )
        seen = 0
        loss_accum = 0.0
        negatives_drawn = 0
        work = SgnsWorkspace()
        for epoch in range(cfg.epochs):
            with rec.span("sgns_epoch", epoch=epoch, trainer="sequential"):
                for sentence in corpus.sentences(min_length=2):
                    # The schedule counts every *visited* sentence,
                    # matching the pre-subsample ``total_sentences``
                    # denominator.  (Counting only surviving sentences
                    # left ``seen`` far below the total under
                    # subsampling, so the linear decay never reached its
                    # floor and the effective LR was biased high.)
                    lr = self._lr(seen, total_sentences)
                    seen += 1
                    if keep is not None:
                        sentence = vocab.subsample_sentence(sentence, keep, rng)
                        if len(sentence) < 2:
                            continue
                    centers, contexts = generate_pairs(
                        sentence, cfg.window, rng, cfg.dynamic_window
                    )
                    if len(centers) == 0:
                        continue
                    negatives = sampler.sample_matrix(
                        len(centers), cfg.negatives, rng
                    )
                    gc, go, gn, loss = model.batch_gradients(
                        centers, contexts, negatives, work=work
                    )
                    model.apply_batch(
                        centers, contexts, negatives, gc, go, gn, lr,
                        update=cfg.update_mode, cap=cfg.update_cap,
                        work=work,
                    )
                    if track:
                        rec.observe("sgns.lr", lr)
                    stats.pairs_trained += len(centers)
                    stats.sentences += 1
                    stats.updates += 1
                    stats.fp_ops += (
                        len(centers) * (1 + cfg.negatives) * 4 * cfg.dim
                    )
                    negatives_drawn += len(centers) * cfg.negatives
                    loss_accum += loss * len(centers)
                    stats.losses.append(loss)

        stats.wall_seconds = time.perf_counter() - start
        stats.mean_loss = loss_accum / max(1, stats.pairs_trained)
        self.last_stats = stats
        publish_trainer_stats(stats, negatives_drawn=negatives_drawn)
        return model

    def _lr(self, seen: int, total: int) -> float:
        """Linear learning-rate decay, floored (word2vec schedule)."""
        return self.config.learning_rate_at(seen / total)
