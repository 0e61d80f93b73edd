"""Skip-gram with negative sampling: model parameters and gradients.

The SGNS objective for a (center, context) pair with negatives
``n_1..n_K`` is

    L = -log sigma(v_c . u_o) - sum_k log sigma(-v_c . u_{n_k})

where ``v`` rows live in the input matrix (the embeddings the pipeline
keeps) and ``u`` rows in the output matrix.  Both trainers share this
module's math so the sequential and batched paths are provably the same
model; they differ only in *when* parameter updates become visible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import SeedLike, make_rng


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Branch-free: ``exp(-|x|)`` never overflows, and each side of the
    select is the textbook form for its sign, so the result is
    bit-identical to evaluating the two halves separately.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def generate_pairs(
    tokens: np.ndarray,
    window: int,
    rng: np.random.Generator,
    dynamic_window: bool = True,
    bounds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Emit (center, context) pairs from a batch of walks.

    ``tokens`` holds the walks back to back and ``bounds`` (length
    ``S + 1``) their offsets, so walk ``s`` is
    ``tokens[bounds[s]:bounds[s + 1]]``; ``bounds=None`` means one walk.
    Mirrors word2vec: for each center position, the effective window
    shrinks to a uniform random ``b in [1, window]`` (``dynamic_window``),
    which implicitly weights near contexts higher, and never crosses the
    center's own walk.  Walks of < 2 nodes yield no pairs and draw no
    window.  One ``rng.integers`` call covers every other token, and
    numpy's bounded draws do not depend on how a run is split, so the
    result and the RNG state equal per-walk calls concatenated.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    n = len(tokens)
    bounds = np.asarray([0, n] if bounds is None else bounds,
                        dtype=np.int64)
    lengths = np.diff(bounds)
    first = np.repeat(bounds[:-1], lengths)  # each token's walk start
    last = np.repeat(bounds[1:], lengths)    # ... and end (exclusive)
    live = last - first >= 2
    if dynamic_window:
        spans = np.zeros(n, dtype=np.int64)
        spans[live] = rng.integers(1, window + 1,
                                   size=int(np.count_nonzero(live)))
    else:
        spans = np.where(live, window, 0)
    # Vectorized construction of the (center, context) stream in the
    # exact order of the natural double loop: centers ascend, and each
    # center's contexts ascend over [lo, hi) skipping the center itself.
    idx = np.arange(n, dtype=np.int64)
    lo = np.maximum(first, idx - spans)
    hi = np.minimum(last, idx + spans + 1)
    counts = hi - lo - 1  # the center position is excluded
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    center_idx = np.repeat(idx, counts)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    context_idx = np.repeat(lo, counts) + within
    context_idx += context_idx >= center_idx  # hop over the center
    return (tokens[center_idx], tokens[context_idx])


class SkipGramModel:
    """SGNS parameter matrices with batched loss/gradient evaluation."""

    def __init__(self, num_nodes: int, dim: int, seed: SeedLike = None) -> None:
        if num_nodes < 1:
            raise EmbeddingError(f"num_nodes must be >= 1, got {num_nodes}")
        if dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {dim}")
        rng = make_rng(seed)
        # word2vec initialization: small uniform input vectors, zero output.
        self.w_in = (rng.random((num_nodes, dim)) - 0.5) / dim
        self.w_out = np.zeros((num_nodes, dim), dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return self.w_in.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.w_in.shape[1]

    def grow(self, new_num_nodes: int, seed: SeedLike = None) -> None:
        """Extend the vocabulary to ``new_num_nodes`` rows in place.

        New input rows get the standard word2vec small-uniform init and
        new output rows zeros; existing rows are untouched.  Used by the
        incremental pipeline when appended edges introduce unseen nodes.
        """
        if new_num_nodes < self.num_nodes:
            raise EmbeddingError(
                f"cannot shrink vocabulary from {self.num_nodes} to "
                f"{new_num_nodes}"
            )
        if new_num_nodes == self.num_nodes:
            return
        rng = make_rng(seed)
        extra = new_num_nodes - self.num_nodes
        new_in = (rng.random((extra, self.dim)) - 0.5) / self.dim
        self.w_in = np.vstack([self.w_in, new_in])
        self.w_out = np.vstack(
            [self.w_out, np.zeros((extra, self.dim), dtype=np.float64)]
        )

    # ------------------------------------------------------------------
    def batch_gradients(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Evaluate gradients for a batch of pairs against *current* weights.

        ``centers``/``contexts`` have shape ``(B,)``; ``negatives`` has
        shape ``(B, K)``.  Returns ``(grad_center, grad_context,
        grad_negatives, mean_loss)`` where gradient shapes match the
        corresponding embedding gathers.  All pairs read the same weight
        snapshot — applying these with a scatter-add is exactly the stale
        "concurrent model update" the paper's batched GPU kernel performs.
        """
        # One gather of every output row a pair touches; the positive
        # and negative blocks are views into it.  ``np.take`` gathers
        # rows several times faster than fancy indexing with a 2-D index.
        v_c = np.take(self.w_in, centers, axis=0)      # (B, d)
        u = np.take(self.w_out, np.column_stack((contexts, negatives)),
                    axis=0)                            # (B, 1 + K, d)
        u_o = u[:, 0]                                  # (B, d)
        u_n = u[:, 1:]                                 # (B, K, d)

        pos_score = np.einsum("bd,bd->b", v_c, u_o)
        neg_score = np.einsum("bd,bkd->bk", v_c, u_n)

        pos_sig = sigmoid(pos_score)           # want -> 1
        neg_sig = sigmoid(neg_score)           # want -> 0

        # dL/dscore: (sigma - target); the negatives' error is neg_sig.
        pos_err = (pos_sig - 1.0)[:, None]      # (B, 1)

        grad_context = pos_err * v_c                       # (B, d)
        # einsum writes the (B, K, d) outer product about twice as fast
        # as a broadcast multiply; the products are the same.
        grad_negatives = np.einsum("bk,bd->bkd", neg_sig, v_c)
        grad_center = pos_err * u_o + np.einsum("bk,bkd->bd", neg_sig, u_n)

        with np.errstate(divide="ignore"):
            loss = -np.log(np.maximum(pos_sig, 1e-12)) - np.sum(
                np.log(np.maximum(1.0 - neg_sig, 1e-12)), axis=1
            )
        return grad_center, grad_context, grad_negatives, float(loss.mean())

    def apply_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        grad_center: np.ndarray,
        grad_context: np.ndarray,
        grad_negatives: np.ndarray,
        lr: float,
        update: str = "capped",
        cap: int = 128,
    ) -> None:
        """Apply the batch's gradients with one scatter per matrix.

        Modes control how gradients landing on the same embedding row
        combine — the knob that decides how faithful the batch is to
        hogwild's sequential-apply semantics on power-law graphs, where a
        hub row appears in thousands of pairs per batch:

        - ``"sum"`` — plain accumulation: exact for distinct rows but
          compounds on hubs and can diverge on power-law graphs (shown by
          the ``bench_ablation_w2v_update`` experiment);
        - ``"mean"`` — each row moves one pair-sized step per batch:
          unconditionally stable but starves hub rows of progress;
        - ``"sqrt"`` — divides by ``sqrt(count)``: sublinear hub steps;
        - ``"capped"`` (default) — full sum up to ``cap`` contributions
          per row, then scaled down proportionally (equivalently
          ``mean * min(count, cap)``).  This mirrors what racy concurrent
          GPU updates achieve in practice — cold rows get exact hogwild
          progress, hot rows saturate — and it is the mode that matches
          the paper's "batching costs no accuracy" result on both
          community graphs and hub-heavy interaction graphs.
        """
        if update not in ("mean", "sum", "sqrt", "capped"):
            raise EmbeddingError(
                f"update must be one of 'mean', 'sum', 'sqrt', 'capped'; "
                f"got {update!r}"
            )
        self._scatter(self.w_in, centers, grad_center, lr, update, cap)
        flat_neg = negatives.reshape(-1)
        out_rows = np.concatenate([contexts, flat_neg])
        out_grads = np.concatenate(
            [grad_context, grad_negatives.reshape(len(flat_neg), -1)], axis=0
        )
        self._scatter(self.w_out, out_rows, out_grads, lr, update, cap)

    @staticmethod
    def _scatter(
        matrix: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
        update: str,
        cap: int,
    ) -> None:
        uniq, inverse = np.unique(rows, return_inverse=True)
        u = len(uniq)
        # bincount sums each row's gradients in input order, so the
        # result is bit-identical to a sequential scatter-add.
        acc = np.empty((u, matrix.shape[1]), dtype=np.float64)
        for j, column in enumerate(grads.T):
            acc[:, j] = np.bincount(inverse, weights=column, minlength=u)
        counts = np.bincount(inverse, minlength=u)
        if update == "mean":
            acc /= counts[:, None]
        elif update == "sqrt":
            acc /= np.sqrt(counts)[:, None]
        elif update == "capped":
            acc /= np.maximum(1.0, counts / cap)[:, None]
        matrix[uniq] -= lr * acc

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist both matrices (resume incremental training later)."""
        np.savez_compressed(path, w_in=self.w_in, w_out=self.w_out)

    @classmethod
    def load(cls, path) -> "SkipGramModel":
        """Load a model saved by :meth:`save`."""
        with np.load(path) as data:
            missing = {"w_in", "w_out"} - set(data.files)
            if missing:
                raise EmbeddingError(
                    f"{path}: missing arrays {sorted(missing)}"
                )
            model = cls.__new__(cls)
            model.w_in = np.ascontiguousarray(data["w_in"],
                                              dtype=np.float64)
            model.w_out = np.ascontiguousarray(data["w_out"],
                                               dtype=np.float64)
            if model.w_in.shape != model.w_out.shape:
                raise EmbeddingError(
                    f"{path}: w_in {model.w_in.shape} and w_out "
                    f"{model.w_out.shape} shapes differ"
                )
            return model

    # ------------------------------------------------------------------
    def pair_loss(self, center: int, context: int, negatives: np.ndarray) -> float:
        """Loss of a single pair (used by gradient-check tests)."""
        _, _, _, loss = self.batch_gradients(
            np.array([center]), np.array([context]),
            np.asarray(negatives, dtype=np.int64)[None, :],
        )
        return loss
