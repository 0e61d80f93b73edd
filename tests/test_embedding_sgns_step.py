"""The SGNS step's workspace: bit-identity, memory and id checks.

``SgnsStep`` keeps one :class:`SgnsWorkspace` for a whole run: a sort-free
row index over vocabulary-sized stamps, reused gather and transposed
gradient buffers, and gathers into them.  The oracle is the step as a
plain sequence of fancy-index gathers, a masked sigmoid and ``np.add.at``
(the helpers of ``test_embedding_batch_oracle``); every case below must
match it bit for bit, batch after batch.
"""

import tracemalloc

import numpy as np
import pytest

from repro.embedding import (
    NegativeSampler,
    SgnsConfig,
    SkipGramModel,
    Vocabulary,
)
from repro.embedding.batched import SgnsStep
from repro.embedding.skipgram import SgnsWorkspace
from repro.errors import EmbeddingError

from tests.test_embedding_batch_oracle import _oracle_gradients
from tests.test_embedding_skipgram import _reference_scatter


def _sampler(num_nodes, seed=0):
    counts = np.random.default_rng(seed).integers(1, 50, size=num_nodes)
    return NegativeSampler(Vocabulary(counts))


def _oracle_step(model, sampler, cfg, rng, centers, contexts, lr):
    negatives = sampler.sample_matrix(len(centers), cfg.negatives, rng)
    gc, go, gn, loss = _oracle_gradients(model, centers, contexts, negatives)
    _reference_scatter(model.w_in, centers, gc, lr, cfg.update_mode,
                       cfg.update_cap)
    _reference_scatter(
        model.w_out, np.concatenate([contexts, negatives.reshape(-1)]),
        np.concatenate([go, gn.reshape(-1, model.dim)]), lr,
        cfg.update_mode, cfg.update_cap)
    return loss


def _pairs(rng, size, num_nodes):
    """Zipf-skewed ids, so hub rows repeat many times per batch."""
    weights = 1.0 / np.arange(1, num_nodes + 1)
    p = weights / weights.sum()
    return (rng.choice(num_nodes, size=size, p=p),
            rng.choice(num_nodes, size=size, p=p))


def _twin_models(num_nodes, dim, seed=1):
    fast = SkipGramModel(num_nodes, dim, seed=seed)
    fast.w_out[:] = np.random.default_rng(seed).normal(
        0, 0.3, size=fast.w_out.shape)
    slow = SkipGramModel(num_nodes, dim, seed=seed)
    slow.w_out[:] = fast.w_out
    return fast, slow


def _assert_same(fast, slow):
    assert np.array_equal(fast.w_in, slow.w_in)
    assert np.array_equal(fast.w_out, slow.w_out)


class TestStepMatchesOracle:
    @pytest.mark.parametrize("dim", [1, 3, 8, 128])
    @pytest.mark.parametrize("update", ["sum", "capped"])
    def test_batches_that_grow_and_shrink(self, dim, update):
        cfg = SgnsConfig(dim=dim, negatives=3, update_mode=update,
                         update_cap=4)
        fast, slow = _twin_models(40, dim)
        sampler = _sampler(40)
        step = SgnsStep(fast, sampler, cfg, np.random.default_rng(5))
        oracle_rng = np.random.default_rng(5)
        pairs_rng = np.random.default_rng(6)
        for size in (50, 400, 7, 1000, 1, 300, 1000):
            centers, contexts = _pairs(pairs_rng, size, 40)
            loss = step(centers, contexts, 0.2)
            expected = _oracle_step(slow, sampler, cfg, oracle_rng, centers,
                                    contexts, 0.2)
            assert loss == expected
            _assert_same(fast, slow)

    def test_model_grown_between_trainings(self):
        # One workspace across a grow(): its stamps must follow the
        # vocabulary, and the new rows must train like any other.
        cfg = SgnsConfig(dim=5, negatives=4)
        fast, slow = _twin_models(20, 5)
        rng_fast, rng_slow = (np.random.default_rng(2),
                              np.random.default_rng(2))
        pairs_rng = np.random.default_rng(3)
        step = SgnsStep(fast, _sampler(20), cfg, rng_fast)
        for num_nodes in (20, 35, 200):
            for model in (fast, slow):
                model.grow(num_nodes, seed=num_nodes)
            sampler = _sampler(num_nodes, seed=num_nodes)
            step.sampler = sampler
            for size in (30, 600):
                centers, contexts = _pairs(pairs_rng, size, num_nodes)
                step(centers, contexts, 0.1)
                _oracle_step(slow, sampler, cfg, rng_slow, centers, contexts,
                             0.1)
                _assert_same(fast, slow)

    @pytest.mark.parametrize("update", ["sum", "mean", "sqrt", "capped"])
    def test_one_row_vocabulary(self, update):
        cfg = SgnsConfig(dim=4, negatives=2, update_mode=update,
                         update_cap=3)
        fast, slow = _twin_models(1, 4)
        sampler = _sampler(1)
        step = SgnsStep(fast, sampler, cfg, np.random.default_rng(1))
        oracle_rng = np.random.default_rng(1)
        zeros = np.zeros(25, dtype=np.int64)
        for _ in range(3):
            step(zeros, zeros, 0.1)
            _oracle_step(slow, sampler, cfg, oracle_rng, zeros, zeros, 0.1)
            _assert_same(fast, slow)

    @pytest.mark.parametrize("update", ["sum", "mean", "sqrt", "capped"])
    def test_every_pair_hits_one_row(self, update):
        cfg = SgnsConfig(dim=3, negatives=2, update_mode=update,
                         update_cap=5, shared_negatives=True)
        fast, slow = _twin_models(30, 3)
        hub = np.full(500, 17, dtype=np.int64)
        # The shared negatives are the hub too: one distinct row per matrix.
        sampler = NegativeSampler(Vocabulary(np.eye(30, dtype=np.int64)[17]))
        step = SgnsStep(fast, sampler, cfg, np.random.default_rng(4))
        negatives = np.full((500, 2), 17)
        for _ in range(3):
            step(hub, hub, 0.05)
            gc, go, gn, _ = _oracle_gradients(slow, hub, hub, negatives)
            _reference_scatter(slow.w_in, hub, gc, 0.05, update, 5)
            _reference_scatter(
                slow.w_out, np.concatenate([hub, negatives.reshape(-1)]),
                np.concatenate([go, gn.reshape(-1, 3)]), 0.05, update, 5)
            _assert_same(fast, slow)


class TestWorkspaceContract:
    def _batch(self, seed, size=64):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, 12, size), rng.integers(0, 12, size),
                rng.integers(0, 12, (size, 3)))

    def test_gradients_without_workspace_are_independent(self):
        model, _ = _twin_models(12, 4)
        first = model.batch_gradients(*self._batch(1))
        kept = [g.copy() for g in first[:3]]
        model.batch_gradients(*self._batch(2))
        for got, want in zip(first[:3], kept):
            assert np.array_equal(got, want)

    def test_shared_workspace_returns_views_until_next_call(self):
        model, _ = _twin_models(12, 4)
        work = SgnsWorkspace()
        gc, go, gn, _ = model.batch_gradients(*self._batch(1), work=work)
        before = gc.copy()
        model.batch_gradients(*self._batch(2), work=work)
        assert not np.array_equal(gc, before)

    def test_foreign_gradients_scatter_like_own(self):
        # apply_batch copies gradients it did not produce into the
        # workspace; both routes land on the same bits.
        own, foreign = _twin_models(12, 4)
        c, o, n = self._batch(3)
        work = SgnsWorkspace()
        grads = own.batch_gradients(c, o, n, work=work)[:3]
        own.apply_batch(c, o, n, *grads, lr=0.3, work=work)
        grads = foreign.batch_gradients(c, o, n)[:3]
        foreign.apply_batch(c, o, n, *(g.copy() for g in grads), lr=0.3,
                            work=SgnsWorkspace())
        _assert_same(own, foreign)

    def test_steady_state_step_allocates_less_than_one_gradient(self):
        # After a warm-up batch, a same-sized step allocates less than one
        # (B * (1 + K) * d) float64 array: the gather, the gradients and
        # the row index all live in the reused workspace.
        cfg = SgnsConfig()
        num_nodes, size = 3000, 20000
        model = SkipGramModel(num_nodes, cfg.dim, seed=1)
        step = SgnsStep(model, _sampler(num_nodes), cfg,
                        np.random.default_rng(2))
        rng = np.random.default_rng(3)
        step(*_pairs(rng, size, num_nodes), 0.025)
        centers, contexts = _pairs(rng, size, num_nodes)
        tracemalloc.start()
        try:
            step(centers, contexts, 0.025)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * (1 + cfg.negatives) * cfg.dim * 8


class TestIdRange:
    @pytest.mark.parametrize("which", ["centers", "contexts", "negatives"])
    @pytest.mark.parametrize("bad", [-1, -12, 12, 10**6])
    def test_bad_id_raises_before_any_update(self, which, bad):
        model, _ = _twin_models(12, 4)
        before = model.w_in.copy(), model.w_out.copy()
        ids = {"centers": np.array([0, 1, 2]),
               "contexts": np.array([3, 4, 5]),
               "negatives": np.array([[6, 7], [8, 9], [10, 11]])}
        ids[which] = ids[which].copy()
        ids[which].flat[1] = bad
        with pytest.raises(IndexError, match="out of bounds"):
            model.batch_gradients(ids["centers"], ids["contexts"],
                                  ids["negatives"])
        grads = [np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 2, 4))]
        with pytest.raises(IndexError, match="out of bounds"):
            model.apply_batch(ids["centers"], ids["contexts"],
                              ids["negatives"], *grads, lr=0.1)
        assert np.array_equal(model.w_in, before[0])
        assert np.array_equal(model.w_out, before[1])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_scatter_rejects_bad_rows(self, bad):
        matrix = np.zeros((5, 2))
        with pytest.raises(IndexError):
            SkipGramModel._scatter(matrix, np.array([0, bad]),
                                   np.ones((2, 2)), 0.1, "sum", 1)
        assert not matrix.any()


class TestUpdateSettings:
    @pytest.mark.parametrize("cap", [0, -1, -128])
    def test_config_rejects_cap_below_one(self, cap):
        with pytest.raises(EmbeddingError, match="cap"):
            SgnsConfig(update_cap=cap)

    @pytest.mark.parametrize("mode", ["bogus", "Capped", ""])
    def test_config_rejects_unknown_mode(self, mode):
        with pytest.raises(EmbeddingError, match="update must be one of"):
            SgnsConfig(update_mode=mode)

    @pytest.mark.parametrize("mode", ["sum", "mean", "sqrt", "capped"])
    def test_config_accepts_every_mode_and_cap_one(self, mode):
        assert SgnsConfig(update_mode=mode, update_cap=1).update_cap == 1

    @pytest.mark.parametrize("cap", [0, -3])
    def test_apply_batch_rejects_cap_below_one(self, cap):
        model, _ = _twin_models(6, 3)
        c, o, n = np.array([0]), np.array([1]), np.array([[2]])
        before = model.w_in.copy()
        grads = model.batch_gradients(c, o, n)[:3]
        with pytest.raises(EmbeddingError, match="cap"):
            model.apply_batch(c, o, n, *grads, lr=0.1, update="sum",
                              cap=cap)
        assert np.array_equal(model.w_in, before)
