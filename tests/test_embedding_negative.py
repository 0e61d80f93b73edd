"""Unit tests for alias sampling and the negative sampler."""

import numpy as np
import pytest

from repro.errors import EmbeddingError
from repro.embedding.negative import AliasTable, NegativeSampler
from repro.embedding.vocab import Vocabulary


class TestAliasTable:
    def test_reconstructed_probabilities_exact(self):
        weights = np.array([5.0, 1.0, 3.0, 1.0])
        table = AliasTable(weights)
        expected = weights / weights.sum()
        assert np.allclose(table.probabilities(), expected)

    def test_uniform_weights(self):
        table = AliasTable(np.ones(7))
        assert np.allclose(table.probabilities(), 1 / 7)

    def test_zero_weight_entries_never_sampled(self, rng):
        table = AliasTable(np.array([1.0, 0.0, 1.0]))
        draws = table.sample(5000, rng)
        assert 1 not in draws

    def test_empirical_distribution(self, rng):
        weights = np.array([0.7, 0.2, 0.1])
        table = AliasTable(weights)
        draws = table.sample(20000, rng)
        freqs = np.bincount(draws, minlength=3) / len(draws)
        assert np.allclose(freqs, weights, atol=0.02)

    def test_single_entry(self, rng):
        table = AliasTable(np.array([3.0]))
        assert np.all(table.sample(10, rng) == 0)

    def test_rejects_empty(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.array([1.0, -0.5]))

    def test_rejects_all_zero(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.zeros(3))

    def test_deterministic_by_seed(self):
        table = AliasTable(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(table.sample(100, 42), table.sample(100, 42))


def _reference_alias(weights):
    """The numpy-scalar construction the list-based build replaced."""
    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    prob = weights * (n / weights.sum())
    table = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if prob[i] < 1.0]
    large = [i for i in range(n) if prob[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        table[s] = prob[s]
        alias[s] = l
        prob[l] = prob[l] - (1.0 - prob[s])
        if prob[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in small + large:
        table[i] = 1.0
        alias[i] = i
    return table, alias


class TestAliasTableMatchesReference:
    @pytest.mark.parametrize("weights", [
        np.array([0.0, 3.0, 0.0, 0.0, 1.0]),   # zero weights
        np.eye(9)[4],                           # a single nonzero weight
        np.full(13, 2.5),                       # all equal
        np.array([7.0]),                        # V = 1
        np.random.default_rng(0).zipf(1.5, 5246).astype(float) ** 0.75,
    ], ids=["zeros", "single-nonzero", "all-equal", "one-entry", "zipf"])
    def test_tables_equal_reference(self, weights):
        table = AliasTable(weights)
        prob, alias = _reference_alias(weights)
        assert table.prob.dtype == np.float64 and table.alias.dtype == np.int64
        assert np.array_equal(table.prob, prob)
        assert np.array_equal(table.alias, alias)


class TestNegativeSampler:
    def test_absent_nodes_never_drawn(self, rng):
        vocab = Vocabulary(np.array([10, 0, 5, 0]))
        sampler = NegativeSampler(vocab)
        draws = sampler.sample(5000, rng)
        assert set(np.unique(draws)) <= {0, 2}

    def test_matrix_shape(self, rng):
        vocab = Vocabulary(np.array([10, 5, 5]))
        sampler = NegativeSampler(vocab)
        matrix = sampler.sample_matrix(7, 3, rng)
        assert matrix.shape == (7, 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            NegativeSampler(Vocabulary(np.zeros(4, dtype=int)))

    def test_smoothing_flattens_distribution(self, rng):
        counts = np.array([1000, 10])
        smoothed = NegativeSampler(Vocabulary(counts), power=0.75)
        draws = smoothed.sample(20000, rng)
        freq_rare = np.mean(draws == 1)
        raw_share = 10 / 1010
        assert freq_rare > raw_share  # 0.75 power boosts rare nodes
