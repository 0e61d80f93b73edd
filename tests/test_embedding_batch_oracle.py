"""Bit-identity of the vectorized SGNS batch step against its oracle.

The batched trainer generates one batch's pairs with a single
``generate_pairs`` call, scatters with per-column ``bincount``, gathers
the output rows once and evaluates a branch-free sigmoid.  The oracle
below is the step as it was before: per-sentence pair generation plus
concatenate, ``np.add.at``, two separate gathers and a masked sigmoid.
Without subsampling both must produce the same bits; with subsampling the
batch draws its keep mask in one call, which changes the seeded stream
but not the distribution, so that case is pinned statistically.
"""

import numpy as np
import pytest

from repro.embedding import (
    BatchedHsTrainer,
    BatchedSgnsTrainer,
    NegativeSampler,
    SgnsConfig,
    SkipGramModel,
    TrainerStats,
    Vocabulary,
    generate_pairs,
)
from repro.embedding.batched import train_batches
from repro.embedding.embeddings import NodeEmbeddings
from repro.observability import Recorder, use_recorder
from repro.parallel.sgns import ParallelSgnsTrainer
from repro.rng import make_rng
from repro.walk.corpus import PAD, WalkCorpus

from tests.test_embedding_skipgram import (
    _reference_scatter,
    _reference_sigmoid,
)


def _oracle_gradients(model, centers, contexts, negatives):
    v_c = model.w_in[centers]
    u_o = model.w_out[contexts]
    u_n = model.w_out[negatives]
    pos_sig = _reference_sigmoid(np.einsum("bd,bd->b", v_c, u_o))
    neg_sig = _reference_sigmoid(np.einsum("bd,bkd->bk", v_c, u_n))
    pos_err = (pos_sig - 1.0)[:, None]
    grad_context = pos_err * v_c
    grad_negatives = neg_sig[:, :, None] * v_c[:, None, :]
    grad_center = pos_err * u_o + np.einsum("bk,bkd->bd", neg_sig, u_n)
    loss = -np.log(np.maximum(pos_sig, 1e-12)) - np.sum(
        np.log(np.maximum(1.0 - neg_sig, 1e-12)), axis=1
    )
    return grad_center, grad_context, grad_negatives, float(loss.mean())


def _oracle_train(cfg, batch_sentences, corpus, num_nodes, seed, model=None):
    """The batched trainer's step as a sentence loop (see module doc)."""
    rng = make_rng(seed)
    vocab = Vocabulary.from_corpus(corpus, num_nodes)
    sampler = NegativeSampler(vocab)
    if model is None:
        model = SkipGramModel(num_nodes, cfg.dim, seed=rng)
    keep = (vocab.keep_probabilities(cfg.subsample_threshold)
            if cfg.subsample_threshold is not None else None)
    sentences = list(corpus.sentences(min_length=2))
    total = cfg.epochs * max(1, -(-len(sentences) // batch_sentences))
    index = 0
    for _ in range(cfg.epochs):
        for base in range(0, len(sentences), batch_sentences):
            c_parts, o_parts = [], []
            for sentence in sentences[base: base + batch_sentences]:
                if keep is not None:
                    sentence = vocab.subsample_sentence(sentence, keep, rng)
                c, o = generate_pairs(sentence, cfg.window, rng,
                                      cfg.dynamic_window)
                c_parts.append(c)
                o_parts.append(o)
            frac = min(1.0, index / total)
            lr = max(cfg.min_learning_rate, cfg.learning_rate * (1.0 - frac))
            index += 1
            centers = np.concatenate(c_parts)
            contexts = np.concatenate(o_parts)
            if not len(centers):
                continue
            if cfg.shared_negatives:
                negatives = np.broadcast_to(
                    sampler.sample(cfg.negatives, rng),
                    (len(centers), cfg.negatives)).copy()
            else:
                negatives = sampler.sample_matrix(len(centers), cfg.negatives,
                                                  rng)
            gc, go, gn, _ = _oracle_gradients(model, centers, contexts,
                                              negatives)
            _reference_scatter(model.w_in, centers, gc, lr, cfg.update_mode,
                               cfg.update_cap)
            _reference_scatter(
                model.w_out, np.concatenate([contexts, negatives.reshape(-1)]),
                np.concatenate([go, gn.reshape(-1, cfg.dim)]), lr,
                cfg.update_mode, cfg.update_cap)
    return model


def _corpus(seed, num_walks=90, num_nodes=25, max_len=7, single_frac=0.3):
    """Skewed random walks (hub rows repeat a lot), many of length 1."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_nodes + 1)
    lengths = rng.integers(2, max_len + 1, size=num_walks)
    lengths[rng.random(num_walks) < single_frac] = 1
    matrix = np.full((num_walks, max_len), PAD, dtype=np.int64)
    for i, n in enumerate(lengths):
        matrix[i, :n] = rng.choice(num_nodes, size=n,
                                   p=weights / weights.sum())
    return WalkCorpus(matrix, lengths)


def _assert_same_model(a, b):
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.w_out, b.w_out)


class TestBatchedTrainerMatchesOracle:
    @pytest.mark.parametrize("batch_sentences", [1, 7, 1024])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("update", ["sum", "mean", "sqrt", "capped"])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_grid(self, dynamic, update, shared, batch_sentences):
        corpus = _corpus(1)
        cfg = SgnsConfig(dim=6, window=3, negatives=3, epochs=2,
                         learning_rate=0.2, dynamic_window=dynamic,
                         update_mode=update, update_cap=4,
                         shared_negatives=shared)
        fast = BatchedSgnsTrainer(cfg, batch_sentences).train(corpus, 25,
                                                              seed=7)
        slow = _oracle_train(cfg, batch_sentences, corpus, 25, seed=7)
        _assert_same_model(fast, slow)

    def test_corpus_of_single_node_walks_trains_nothing(self):
        corpus = WalkCorpus(np.arange(8)[:, None], np.ones(8, dtype=np.int64))
        cfg = SgnsConfig(dim=4, epochs=2)
        trainer = BatchedSgnsTrainer(cfg, batch_sentences=3)
        fast = trainer.train(corpus, 8, seed=2)
        _assert_same_model(fast, _oracle_train(cfg, 3, corpus, 8, seed=2))
        assert trainer.last_stats.pairs_trained == 0
        assert trainer.last_stats.updates == 0

    def test_single_node_walks_at_batch_starts(self):
        # Walks of one node sit between trainable ones; batches are cut
        # over trainable walks only, exactly as the sentence loop did.
        corpus = _corpus(4, single_frac=0.6)
        cfg = SgnsConfig(dim=4, epochs=1, learning_rate=0.1)
        fast = BatchedSgnsTrainer(cfg, batch_sentences=5).train(corpus, 25,
                                                                seed=3)
        _assert_same_model(fast, _oracle_train(cfg, 5, corpus, 25, seed=3))

    @pytest.mark.parametrize("batch_sentences", [7, 1024])
    def test_continued_training_on_grown_model(self, batch_sentences):
        # The IncrementalEmbedder.update path: grow, then fine-tune an
        # existing model on a new corpus that mentions the new nodes.
        cfg = SgnsConfig(dim=5, epochs=2, learning_rate=0.1)
        first, second = _corpus(5, num_nodes=20), _corpus(6, num_nodes=30)
        models = []
        for train in (
            lambda c, n, s, m=None: BatchedSgnsTrainer(
                cfg, batch_sentences).train(c, n, seed=s, model=m),
            lambda c, n, s, m=None: _oracle_train(
                cfg, batch_sentences, c, n, seed=s, model=m),
        ):
            model = train(first, 20, 8)
            model.grow(30, seed=9)
            models.append(train(second, 30, 10, model))
        _assert_same_model(*models)


class TestSubsampledBatches:
    """Batched subsampling draws the keep mask for the whole batch
    first, so seeded runs differ from the sentence loop; the distribution
    of what is kept must not."""

    def test_per_node_keep_rate_matches_keep_probabilities(self):
        # Walk i is (node i % 10, anchor 10); the rare anchor is always
        # kept, so a walk emits pairs iff its first node survives.
        vocab = Vocabulary(np.array([4000, 2000, 1000, 600, 300, 150, 80, 40,
                                     20, 10, 1]))
        keep = vocab.keep_probabilities(0.01)
        assert keep[:10].min() < 0.3 and keep[10] == 1.0
        walks = 20000
        matrix = np.column_stack((np.arange(walks) % 10,
                                  np.full(walks, 10)))
        corpus = WalkCorpus(matrix, np.full(walks, 2))
        cfg = SgnsConfig(window=1, dynamic_window=False,
                         subsample_threshold=0.01)
        batches = []
        train_batches(corpus, 1024, cfg, np.random.default_rng(0), vocab,
                      lambda i: 0.0,
                      lambda c, o, lr: batches.append(c) or 0.0,
                      TrainerStats())
        centers = np.concatenate(batches)
        kept = np.bincount(centers, minlength=11)[:10]
        n = walks // 10
        sigma = np.sqrt(n * keep[:10] * (1.0 - keep[:10]))
        assert np.all(np.abs(kept - n * keep[:10]) <= 5 * sigma + 1e-9)

    def test_linkpred_auc_within_seed_noise_of_sentence_loop(
        self, email_corpus, email_graph, email_edges
    ):
        from repro.tasks import LinkPredictionTask
        from repro.tasks.link_prediction import LinkPredictionConfig
        from repro.tasks.training import TrainSettings

        cfg = SgnsConfig(dim=8, epochs=3, subsample_threshold=1e-3)
        task = LinkPredictionTask(LinkPredictionConfig(
            training=TrainSettings(epochs=10, learning_rate=0.05)))
        n = email_graph.num_nodes
        aucs = {"batched": [], "loop": []}
        for seed in (1, 2, 3):
            for name, model in (
                ("batched", BatchedSgnsTrainer(cfg, 256).train(
                    email_corpus, n, seed=seed)),
                ("loop", _oracle_train(cfg, 256, email_corpus, n, seed)),
            ):
                result = task.run(NodeEmbeddings(model.w_in), email_edges,
                                  seed=seed)
                aucs[name].append(result.auc)
        assert min(aucs["batched"]) > 0.6
        assert abs(np.mean(aucs["batched"]) - np.mean(aucs["loop"])) < 0.05


class TestHierarchicalSoftmaxBatches:
    def test_subsampling_lowers_pairs(self, email_corpus, email_graph):
        n = email_graph.num_nodes
        plain = BatchedHsTrainer(SgnsConfig(dim=4, epochs=1), 256)
        plain.train(email_corpus, n, seed=3)
        sub = BatchedHsTrainer(
            SgnsConfig(dim=4, epochs=1, subsample_threshold=1e-4), 256)
        sub.train(email_corpus, n, seed=3)
        assert sub.last_stats.pairs_trained < plain.last_stats.pairs_trained

    def test_records_one_run_with_epoch_spans(self, email_corpus,
                                              email_graph):
        rec = Recorder()
        trainer = BatchedHsTrainer(SgnsConfig(dim=4, epochs=2), 256)
        with use_recorder(rec):
            trainer.train(email_corpus, email_graph.num_nodes, seed=3)
        assert rec.counters["sgns.runs"] == 1
        assert rec.counters["sgns.pairs"] == trainer.last_stats.pairs_trained
        epochs = list(rec.spans("sgns_epoch"))
        assert len(epochs) == 2
        assert all(s.attrs["trainer"] == "hsoftmax" for s in epochs)


class TestParallelNegatives:
    @pytest.mark.parametrize("shared", [False, True])
    def test_negatives_drawn_follows_shared_setting(
        self, email_corpus, email_graph, shared
    ):
        cfg = SgnsConfig(dim=4, epochs=1, negatives=3,
                         shared_negatives=shared)
        trainer = ParallelSgnsTrainer(cfg, workers=2, batch_sentences=64)
        rec = Recorder()
        with use_recorder(rec):
            trainer.train(email_corpus, email_graph.num_nodes, seed=6)
        stats = trainer.last_stats
        expected = (3 * stats.updates if shared
                    else 3 * stats.pairs_trained)
        assert rec.counters["sgns.negatives_drawn"] == expected
        assert stats.updates > 1
