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
from repro.nn.layers import sigmoid
from repro.rng import SeedLike, make_rng

_UPDATE_MODES = ("mean", "sum", "sqrt", "capped")


def check_update(update: str, cap: int) -> None:
    """Reject an unknown update mode or a cap below one contribution."""
    if update not in _UPDATE_MODES:
        raise EmbeddingError(
            f"update must be one of {', '.join(map(repr, _UPDATE_MODES))}; "
            f"got {update!r}"
        )
    if cap < 1:
        raise EmbeddingError(f"update cap must be >= 1, got {cap}")


def _check_ids(ids: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` unless every id indexes a row of ``size``.

    The gathers below run with ``mode="clip"`` (``mode="raise"`` makes
    ``np.take(out=...)`` buffer a copy), so this is their range check;
    unlike plain indexing it also rejects negative ids.
    """
    if len(ids) and (ids.min() < 0 or ids.max() >= size):
        bad = ids[(ids < 0) | (ids >= size)][0]
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {size}"
        )


class SgnsWorkspace:
    """Grow-only scratch memory for SGNS batch steps.

    Holds every batch-sized array of :meth:`SkipGramModel.batch_gradients`
    and :meth:`SkipGramModel.apply_batch`: the ``[contexts | negatives]``
    row ids, the gathered embedding rows, the gradients (stored
    transposed, one contiguous row per embedding column, so the scatter's
    per-column ``bincount`` reads contiguous memory) and the row-index
    stamps, which are vocabulary-sized.  A trainer keeps one for a whole
    run, so steady-state batches allocate nothing batch-sized; gradients
    returned with a workspace are views into it and stay valid only
    until its next use.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._arange = np.empty(0, dtype=np.int64)
        # The (grad_context, grad_negatives) views batch_gradients last
        # returned; apply_batch scatters these without copying them.
        self.out_grads: tuple[np.ndarray | None, ...] = (None, None)

    def buffer(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first ``size`` elements of buffer ``name``, contents
        undefined; grows it by at least a quarter when it is too short."""
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size:
            grown = 0 if buf is None else len(buf) + len(buf) // 4
            buf = self._buffers[name] = np.empty(max(size, grown),
                                                 dtype=dtype)
        return buf[:size]

    def arange(self, size: int) -> np.ndarray:
        """``np.arange(size)`` as a view of a cached int64 array."""
        if len(self._arange) < size:
            self._arange = np.arange(max(size, len(self._arange) * 5 // 4),
                                     dtype=np.int64)
        return self._arange[:size]

    def row_index(self, rows: np.ndarray, num_rows: int
                  ) -> tuple[np.ndarray, np.ndarray]:
        """``(uniq, inverse)`` with ``uniq[inverse] == rows``, in O(n).

        ``uniq`` holds each distinct row once, in no particular order.
        Two ``num_rows``-sized stamps index the rows without sorting:
        ``seen[r]`` ends up holding one position of row ``r``, which
        elects that position as the row's representative, and
        ``slot[r]`` numbers the representatives.  Neither stamp needs
        clearing between calls, since every entry read was just written.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        index = self.arange(n)
        seen = self.buffer("seen", num_rows, np.int64)
        slot = self.buffer("slot", num_rows, np.int64)
        seen[rows] = index
        first = np.take(seen, rows, out=self.buffer("stamp", n, np.int64),
                        mode="clip")
        mask = np.equal(first, index, out=self.buffer("mask", n, np.bool_))
        uniq = np.compress(
            mask, rows,
            out=self.buffer("uniq", int(np.count_nonzero(mask)), np.int64))
        slot[uniq] = index[: len(uniq)]
        inverse = np.take(slot, rows, out=first, mode="clip")
        return uniq, inverse


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


def _out_rows(work: SgnsWorkspace, contexts: np.ndarray,
              negatives: np.ndarray) -> np.ndarray:
    """``[contexts | negatives.ravel()]``, the output rows in scatter
    order, written into ``work``."""
    b = len(contexts)
    rows = work.buffer("rows", b * (1 + negatives.shape[1]), np.int64)
    rows[:b] = contexts
    rows[b:].reshape(negatives.shape)[...] = negatives
    return rows


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
        work: SgnsWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Evaluate gradients for a batch of pairs against *current* weights.

        ``centers``/``contexts`` have shape ``(B,)``; ``negatives`` has
        shape ``(B, K)``.  Returns ``(grad_center, grad_context,
        grad_negatives, mean_loss)`` where gradient shapes match the
        corresponding embedding gathers.  All pairs read the same weight
        snapshot — applying these with a scatter-add is exactly the stale
        "concurrent model update" the paper's batched GPU kernel performs.

        The gradients live in ``work`` (a fresh workspace when ``None``)
        as transposed views; with a shared workspace they stay valid only
        until its next use.  Ids outside ``[0, num_nodes)`` raise
        ``IndexError``.
        """
        work = SgnsWorkspace() if work is None else work
        work.out_grads = (None, None)  # lets a grown buffer free the old
        b, k = negatives.shape
        d, n = self.dim, b * (1 + k)
        _check_ids(centers, self.num_nodes)
        rows = _out_rows(work, contexts, negatives)
        _check_ids(rows, self.num_nodes)
        # One gather per matrix, into reused buffers.  The output rows
        # come in scatter order, [contexts | negatives], so ``u_o`` and
        # ``u_n`` are contiguous blocks of one gather.
        v_c = np.take(self.w_in, centers, axis=0, mode="clip",
                      out=work.buffer("v_c", b * d).reshape(b, d))
        u = np.take(self.w_out, rows, axis=0, mode="clip",
                    out=work.buffer("gather", n * d).reshape(n, d))
        u_o = u[:b]                                    # (B, d)
        u_n = u[b:].reshape(b, k, d)                   # (B, K, d)

        pos_sig = sigmoid(np.einsum("bd,bd->b", v_c, u_o))     # want -> 1
        neg_sig = sigmoid(np.einsum("bd,bkd->bk", v_c, u_n))   # want -> 0

        # dL/dscore: (sigma - target); the negatives' error is neg_sig.
        pos_err = (pos_sig - 1.0)[:, None]      # (B, 1)

        grad_center = np.einsum(
            "bk,bkd->bd", neg_sig, u_n,
            out=work.buffer("grad_center", d * b).reshape(d, b).T)
        grad_center += np.multiply(pos_err, u_o, out=u_o)
        # The gathered rows are dead now; their buffer takes the output
        # gradients, transposed: row j of ``grad_out`` is column j of
        # ``[grad_context | grad_negatives]`` in scatter order.
        grad_out = work.buffer("gather", d * n).reshape(d, n)
        grad_context = np.multiply(pos_err, v_c, out=grad_out[:, :b].T)
        grad_negatives = np.einsum(
            "bk,bd->dbk", neg_sig, v_c,
            out=grad_out[:, b:].reshape(d, b, k)).transpose(1, 2, 0)
        work.out_grads = (grad_context, grad_negatives)

        with np.errstate(divide="ignore"):
            np.maximum(pos_sig, 1e-12, out=pos_sig)
            np.subtract(1.0, neg_sig, out=neg_sig)
            np.maximum(neg_sig, 1e-12, out=neg_sig)
            loss = -np.log(pos_sig) - np.sum(np.log(neg_sig, out=neg_sig),
                                             axis=1)
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
        work: SgnsWorkspace | None = None,
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

        Gradients that :meth:`batch_gradients` wrote into ``work`` are
        scattered in place; others are first copied into it.
        """
        work = SgnsWorkspace() if work is None else work
        b, k = negatives.shape
        d, n = self.dim, b * (1 + k)
        # Every id is checked before the first scatter changes anything.
        _check_ids(centers, self.num_nodes)
        rows = _out_rows(work, contexts, negatives)
        _check_ids(rows, self.num_nodes)
        self._scatter(self.w_in, centers, grad_center, lr, update, cap, work)
        grad_out = work.buffer("gather", d * n).reshape(d, n)
        ctx, neg = work.out_grads
        if ctx is not grad_context or neg is not grad_negatives:
            grad_out[:, :b] = grad_context.T
            grad_out[:, b:].reshape(d, b, k)[...] = (
                grad_negatives.transpose(2, 0, 1))
        self._scatter(self.w_out, rows, grad_out.T, lr, update, cap, work)

    @staticmethod
    def _scatter(
        matrix: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
        update: str,
        cap: int,
        work: SgnsWorkspace | None = None,
    ) -> None:
        """``matrix[r] -= lr * combined gradients of r`` for each row ``r``
        in ``rows``; ``grads`` is ``(len(rows), d)``, fastest when it is
        the transpose of a C-ordered array."""
        check_update(update, cap)
        work = SgnsWorkspace() if work is None else work
        _check_ids(rows, len(matrix))
        uniq, inverse = work.row_index(rows, len(matrix))
        u, d = len(uniq), matrix.shape[1]
        # bincount sums each row's gradients in input order, so the
        # result is bit-identical to a sequential scatter-add.
        acc = work.buffer("acc", d * u).reshape(d, u)
        for j, column in enumerate(grads.T):
            acc[j] = np.bincount(inverse, weights=column, minlength=u)
        counts = np.bincount(inverse, minlength=u)
        if update == "mean":
            acc /= counts
        elif update == "sqrt":
            acc /= np.sqrt(counts)
        elif update == "capped":
            acc /= np.maximum(1.0, counts / cap)
        acc *= lr
        # Distinct rows, so a gather, subtract and put is ``-=``.
        moved = np.take(matrix, uniq, axis=0, mode="clip",
                        out=work.buffer("moved", u * d).reshape(u, d))
        moved -= acc.T
        matrix[uniq] = moved

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
