"""Unit tests for the SGNS model math (gradients verified numerically)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmbeddingError
from repro.embedding.skipgram import SkipGramModel, generate_pairs, sigmoid


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-20, 20, 101)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        assert np.allclose(s + sigmoid(-x), 1.0)

    def test_extreme_values_finite(self):
        assert np.isfinite(sigmoid(np.array([-1e6, 1e6]))).all()


class TestGeneratePairs:
    def test_short_sentence_yields_nothing(self, rng):
        c, o = generate_pairs(np.array([5]), window=3, rng=rng)
        assert len(c) == 0 and len(o) == 0

    def test_fixed_window_pair_count(self, rng):
        sentence = np.arange(5)
        c, o = generate_pairs(sentence, window=2, rng=rng, dynamic_window=False)
        # Each position pairs with up to 2 on each side: 4+... total 14.
        assert len(c) == 14
        assert len(c) == len(o)

    def test_no_self_pairs(self, rng):
        c, o = generate_pairs(np.arange(6), window=3, rng=rng)
        assert np.all(c != o) or np.any(c != o)  # positions differ even if ids could repeat
        # With distinct ids, center never equals context.
        assert not np.any((c == o))

    def test_dynamic_window_produces_fewer_or_equal_pairs(self, rng):
        sentence = np.arange(8)
        fixed_c, _ = generate_pairs(sentence, 4, rng, dynamic_window=False)
        dyn_c, _ = generate_pairs(sentence, 4, rng, dynamic_window=True)
        assert len(dyn_c) <= len(fixed_c)

    def test_pairs_within_window(self, rng):
        sentence = np.arange(10)
        c, o = generate_pairs(sentence, 2, rng, dynamic_window=False)
        assert np.all(np.abs(c - o) <= 2)


def _reference_generate_pairs(sentence, window, rng, dynamic_window=True):
    """The pre-vectorization per-sentence double loop, kept as the
    equivalence oracle for the hot-path implementation."""
    n = len(sentence)
    if n < 2:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    centers: list[int] = []
    contexts: list[int] = []
    if dynamic_window:
        spans = rng.integers(1, window + 1, size=n)
    else:
        spans = np.full(n, window)
    for i in range(n):
        b = int(spans[i])
        lo = max(0, i - b)
        hi = min(n, i + b + 1)
        for j in range(lo, hi):
            if j != i:
                centers.append(int(sentence[i]))
                contexts.append(int(sentence[j]))
    return (np.asarray(centers, dtype=np.int64),
            np.asarray(contexts, dtype=np.int64))


class TestGeneratePairsVectorized:
    """Regression: generate_pairs was vectorized; it must stay
    bit-identical to the double loop — same pair stream order and the
    same RNG draw sequence — so every SGNS corpus is unchanged."""

    @pytest.mark.parametrize("dynamic", [True, False])
    @pytest.mark.parametrize("window", [1, 2, 5, 9])
    def test_bit_identical_to_reference(self, dynamic, window):
        master = np.random.default_rng(42)
        for n in (2, 3, 5, 8, 17, 33):
            sentence = master.integers(0, 50, size=n)
            seed = int(master.integers(0, 2**31))
            c_new, o_new = generate_pairs(
                sentence, window, np.random.default_rng(seed),
                dynamic_window=dynamic,
            )
            c_ref, o_ref = _reference_generate_pairs(
                sentence, window, np.random.default_rng(seed),
                dynamic_window=dynamic,
            )
            assert np.array_equal(c_new, c_ref)
            assert np.array_equal(o_new, o_ref)
            assert c_new.dtype == np.int64 and o_new.dtype == np.int64

    def test_rng_state_advances_identically(self):
        # Downstream draws (negative sampling) must see the same stream.
        rng_new = np.random.default_rng(7)
        rng_ref = np.random.default_rng(7)
        sentence = np.arange(20)
        generate_pairs(sentence, 4, rng_new)
        _reference_generate_pairs(sentence, 4, rng_ref)
        assert rng_new.integers(0, 10**9) == rng_ref.integers(0, 10**9)

    def test_faster_than_reference_loop(self):
        # The vectorized path must beat the Python double loop on a
        # long sentence (~30-100x in practice; assert a loose 2x so the
        # test stays robust on loaded CI machines).
        import time

        sentence = np.random.default_rng(0).integers(0, 1000, size=4000)

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                rng = np.random.default_rng(1)
                start = time.perf_counter()
                fn(sentence, 8, rng, dynamic_window=True)
                times.append(time.perf_counter() - start)
            return min(times)

        fast = best_of(generate_pairs)
        slow = best_of(_reference_generate_pairs)
        assert fast * 2 < slow


class TestGeneratePairsBatched:
    """The batch form (flat tokens plus per-walk ``bounds``) must equal
    per-walk calls concatenated: same pairs, same RNG state after."""

    @given(
        st.lists(st.lists(st.integers(0, 20), max_size=9), max_size=12),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_walk_calls(self, walks, window, dynamic, seed):
        tokens = np.array([v for w in walks for v in w], dtype=np.int64)
        bounds = np.zeros(len(walks) + 1, dtype=np.int64)
        np.cumsum([len(w) for w in walks], out=bounds[1:])
        rng_batch = np.random.default_rng(seed)
        c, o = generate_pairs(tokens, window, rng_batch, dynamic, bounds)
        rng_walk = np.random.default_rng(seed)
        parts = [
            _reference_generate_pairs(np.array(w, dtype=np.int64), window,
                                      rng_walk, dynamic)
            for w in walks
        ]
        empty = [np.empty(0, dtype=np.int64)]
        assert np.array_equal(c, np.concatenate(empty + [p[0] for p in parts]))
        assert np.array_equal(o, np.concatenate(empty + [p[1] for p in parts]))
        assert c.dtype == np.int64 and o.dtype == np.int64
        assert rng_batch.bit_generator.state == rng_walk.bit_generator.state

    def test_batch_of_single_node_walks_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        c, o = generate_pairs(np.arange(5), 4, rng,
                              bounds=np.arange(6))
        assert len(c) == 0 and len(o) == 0
        assert rng.bit_generator.state == before


def _reference_sigmoid(x):
    """The pre-branch-free masked form, kept as the bit-identity oracle."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_scatter(matrix, rows, grads, lr, update, cap):
    """The pre-bincount ``np.add.at`` scatter, kept as the oracle."""
    uniq, inverse = np.unique(rows, return_inverse=True)
    acc = np.zeros((len(uniq), matrix.shape[1]), dtype=np.float64)
    np.add.at(acc, inverse, grads)
    counts = np.bincount(inverse)
    if update == "mean":
        acc /= counts[:, None]
    elif update == "sqrt":
        acc /= np.sqrt(counts)[:, None]
    elif update == "capped":
        acc /= np.maximum(1.0, counts / cap)[:, None]
    matrix[uniq] -= lr * acc


def _hard_floats(rng, size):
    """Normals mixed with +-1e6, zeros of both signs and denormals."""
    x = rng.normal(0, 5, size=size)
    specials = np.array([1e6, -1e6, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                         -1e-310, 745.0, -745.0, 36.0, -36.0])
    pick = rng.random(size) < 0.3
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    return x


class TestKernelsBitIdentical:
    def test_sigmoid_matches_masked_form(self, rng):
        x = _hard_floats(rng, 5000)
        assert np.array_equal(sigmoid(x), _reference_sigmoid(x))
        grid = x.reshape(50, 100)
        assert np.array_equal(sigmoid(grid), _reference_sigmoid(grid))

    @pytest.mark.parametrize("update", ["sum", "mean", "sqrt", "capped"])
    def test_scatter_matches_add_at(self, rng, update):
        # Heavily duplicated rows: a handful of hubs take most updates.
        rows = np.where(rng.random(4000) < 0.8, rng.integers(0, 3, 4000),
                        rng.integers(0, 50, 4000))
        grads = _hard_floats(rng, 4000 * 6).reshape(4000, 6)
        fast = rng.normal(size=(50, 6))
        slow = fast.copy()
        SkipGramModel._scatter(fast, rows, grads, 0.025, update, 16)
        _reference_scatter(slow, rows, grads, 0.025, update, 16)
        assert np.array_equal(fast, slow)


class TestSkipGramModel:
    def test_init_shapes(self):
        model = SkipGramModel(10, 4, seed=1)
        assert model.w_in.shape == (10, 4)
        assert model.w_out.shape == (10, 4)
        assert np.all(model.w_out == 0.0)
        assert np.all(np.abs(model.w_in) <= 0.5 / 4)

    def test_invalid_dims(self):
        with pytest.raises(EmbeddingError):
            SkipGramModel(0, 4)
        with pytest.raises(EmbeddingError):
            SkipGramModel(4, 0)

    def test_initial_loss_is_log2_times_scores(self):
        # With w_out = 0 every score is 0, so the loss is (1+K) * ln 2.
        model = SkipGramModel(5, 8, seed=1)
        loss = model.pair_loss(0, 1, np.array([2, 3, 4]))
        assert loss == pytest.approx(4 * np.log(2.0), rel=1e-6)

    def test_gradients_match_finite_differences(self):
        model = SkipGramModel(6, 5, seed=2)
        rng = np.random.default_rng(3)
        model.w_out[:] = rng.normal(0, 0.3, size=model.w_out.shape)
        centers = np.array([0, 1])
        contexts = np.array([2, 3])
        negatives = np.array([[4, 5], [5, 0]])
        gc, go, gn, _ = model.batch_gradients(centers, contexts, negatives)

        eps = 1e-6

        def total_loss():
            _, _, _, loss = model.batch_gradients(centers, contexts, negatives)
            return loss * len(centers)  # batch_gradients returns the mean

        # Probe a few coordinates of each gradient block.
        for b, row in ((0, centers[0]), (1, centers[1])):
            for d in range(3):
                old = model.w_in[row, d]
                model.w_in[row, d] = old + eps
                up = total_loss()
                model.w_in[row, d] = old - eps
                down = total_loss()
                model.w_in[row, d] = old
                numeric = (up - down) / (2 * eps)
                assert gc[b, d] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

        old = model.w_out[contexts[0], 1]
        model.w_out[contexts[0], 1] = old + eps
        up = total_loss()
        model.w_out[contexts[0], 1] = old - eps
        down = total_loss()
        model.w_out[contexts[0], 1] = old
        numeric = (up - down) / (2 * eps)
        assert go[0, 1] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_training_pair_reduces_its_loss(self):
        model = SkipGramModel(6, 4, seed=4)
        centers = np.array([0])
        contexts = np.array([1])
        negatives = np.array([[2, 3]])
        before = model.pair_loss(0, 1, negatives[0])
        for _ in range(50):
            gc, go, gn, _ = model.batch_gradients(centers, contexts, negatives)
            model.apply_batch(centers, contexts, negatives, gc, go, gn, lr=0.1)
        after = model.pair_loss(0, 1, negatives[0])
        assert after < before


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = SkipGramModel(7, 4, seed=1)
        rng = np.random.default_rng(2)
        model.w_out[:] = rng.normal(size=model.w_out.shape)
        path = tmp_path / "model.npz"
        model.save(path)
        back = SkipGramModel.load(path)
        assert np.array_equal(back.w_in, model.w_in)
        assert np.array_equal(back.w_out, model.w_out)

    def test_load_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, w_in=np.zeros((2, 2)))
        with pytest.raises(EmbeddingError, match="missing"):
            SkipGramModel.load(path)

    def test_load_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, w_in=np.zeros((2, 2)), w_out=np.zeros((3, 2)))
        with pytest.raises(EmbeddingError, match="shapes differ"):
            SkipGramModel.load(path)

    def test_loaded_model_continues_training(self, tmp_path):
        model = SkipGramModel(6, 4, seed=3)
        path = tmp_path / "model.npz"
        model.save(path)
        back = SkipGramModel.load(path)
        centers = np.array([0])
        contexts = np.array([1])
        negatives = np.array([[2, 3]])
        before = back.pair_loss(0, 1, negatives[0])
        for _ in range(30):
            gc, go, gn, _ = back.batch_gradients(centers, contexts, negatives)
            back.apply_batch(centers, contexts, negatives, gc, go, gn, lr=0.1)
        assert back.pair_loss(0, 1, negatives[0]) < before


class TestApplyBatchModes:
    def setup_pairs(self):
        model = SkipGramModel(5, 4, seed=5)
        rng = np.random.default_rng(6)
        model.w_out[:] = rng.normal(0, 0.2, size=model.w_out.shape)
        centers = np.array([0, 0, 0, 1])
        contexts = np.array([1, 2, 3, 2])
        negatives = np.array([[4], [4], [4], [3]])
        grads = model.batch_gradients(centers, contexts, negatives)[:3]
        return model, centers, contexts, negatives, grads

    def test_sum_accumulates_duplicates(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - 1.0 * (gc[0] + gc[1] + gc[2])
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="sum")
        assert np.allclose(model.w_in[0], expected)

    def test_mean_averages_duplicates(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - 1.0 * (gc[0] + gc[1] + gc[2]) / 3.0
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="mean")
        assert np.allclose(model.w_in[0], expected)

    def test_capped_full_sum_below_cap(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - (gc[0] + gc[1] + gc[2])  # 3 <= cap
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="capped", cap=8)
        assert np.allclose(model.w_in[0], expected)

    def test_capped_scales_above_cap(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - (gc[0] + gc[1] + gc[2]) * (2.0 / 3.0)
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="capped", cap=2)
        assert np.allclose(model.w_in[0], expected)

    def test_unknown_mode_rejected(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        with pytest.raises(EmbeddingError):
            model.apply_batch(c, o, n, gc, go, gn, lr=0.1, update="bogus")
