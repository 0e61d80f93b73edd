"""Negative sampling for SGNS.

word2vec draws "negative" context nodes from the smoothed unigram
distribution ``P(w) proportional to count(w)^0.75``.  We implement the
draw with Walker's alias method — O(V) build, O(1) per sample — which is
also a reusable substrate (the hardware models use it for synthetic
address streams).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import SeedLike, make_rng
from repro.embedding.vocab import Vocabulary


class AliasTable:
    """Walker alias method for O(1) categorical sampling.

    Build from any non-negative weight vector; ``sample(n, rng)`` draws
    ``n`` iid indices with probability proportional to the weights.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) == 0:
            raise EmbeddingError("weights must be a non-empty 1-D array")
        if weights.min() < 0:
            raise EmbeddingError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise EmbeddingError("weights must not all be zero")
        n = len(weights)
        # Python floats are IEEE doubles, so this list-based stack loop
        # computes the same tables as numpy-scalar indexing, faster.
        prob = (weights * (n / total)).tolist()
        table = [1.0] * n
        alias = list(range(n))

        small = [i for i, p in enumerate(prob) if p < 1.0]
        large = [i for i, p in enumerate(prob) if p >= 1.0]
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
        # Leftovers are 1.0 within float error; they keep table 1.0 and
        # their own index.
        self.prob = np.array(table, dtype=np.float64)
        self.alias = np.array(alias, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.prob)

    def sample(self, size: int, rng_or_seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` iid indices from the weighted distribution."""
        rng = make_rng(rng_or_seed)
        slots = rng.integers(0, len(self.prob), size=size)
        accept = rng.random(size) < self.prob[slots]
        return np.where(accept, slots, self.alias[slots])

    def probabilities(self) -> np.ndarray:
        """Reconstruct the exact distribution the table samples from.

        Each slot contributes ``prob/n`` to itself and ``(1-prob)/n`` to
        its alias; used by property tests to verify the construction.
        """
        n = len(self.prob)
        out = np.zeros(n, dtype=np.float64)
        np.add.at(out, np.arange(n), self.prob / n)
        np.add.at(out, self.alias, (1.0 - self.prob) / n)
        return out


class NegativeSampler:
    """Draws negative context nodes from the unigram^0.75 distribution."""

    def __init__(self, vocab: Vocabulary, power: float = 0.75) -> None:
        weights = vocab.unigram_weights(power)
        if weights.sum() <= 0:
            raise EmbeddingError(
                "corpus is empty: no node has positive frequency to sample"
            )
        self.table = AliasTable(weights)

    def sample(self, size: int, rng_or_seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` negative node ids (iid, may repeat)."""
        return self.table.sample(size, rng_or_seed)

    def sample_matrix(
        self, rows: int, cols: int, rng_or_seed: SeedLike = None
    ) -> np.ndarray:
        """Draw a ``(rows, cols)`` matrix of negatives (one row per pair)."""
        return self.sample(rows * cols, rng_or_seed).reshape(rows, cols)
