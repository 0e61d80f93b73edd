"""Unit tests for loss functions."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import BCEWithLogitsLoss, CrossEntropyLoss


class TestBCE:
    def test_zero_logits_loss_is_log2(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]))
        assert value == pytest.approx(np.log(2.0))

    def test_confident_correct_loss_near_zero(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([20.0, -20.0]), np.array([1.0, 0.0]))
        assert value < 1e-6

    def test_extreme_logits_finite(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(value)

    def test_gradient_is_sigmoid_minus_target_over_n(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.0, 2.0])
        targets = np.array([1.0, 0.0])
        loss.forward(logits, targets)
        grad = loss.backward()
        sig = 1 / (1 + np.exp(-logits))
        assert np.allclose(grad, (sig - targets) / 2)

    def test_gradient_preserves_column_shape(self):
        loss = BCEWithLogitsLoss()
        loss.forward(np.zeros((3, 1)), np.ones(3))
        assert loss.backward().shape == (3, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            BCEWithLogitsLoss().forward(np.zeros(3), np.zeros(2))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(TrainingError):
            BCEWithLogitsLoss().backward()

    def test_predictions_are_probabilities(self):
        loss = BCEWithLogitsLoss()
        loss.forward(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))
        probs = loss.predictions()
        assert np.all((probs > 0) & (probs < 1))


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        loss = CrossEntropyLoss()
        value = loss.forward(np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]))
        assert value == pytest.approx(np.log(3.0))

    def test_confident_correct_loss_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.array([[30.0, 0.0, 0.0]])
        assert loss.forward(logits, np.array([0])) < 1e-6

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        loss = CrossEntropyLoss()
        logits = np.array([[1.0, 2.0, 3.0]])
        loss.forward(logits, np.array([2]))
        grad = loss.backward()
        exp = np.exp(logits - logits.max())
        softmax = exp / exp.sum()
        expected = softmax.copy()
        expected[0, 2] -= 1.0
        assert np.allclose(grad, expected)

    def test_predictions_sum_to_one(self):
        loss = CrossEntropyLoss()
        loss.forward(np.random.default_rng(0).normal(size=(6, 4)),
                     np.zeros(6, dtype=int))
        assert np.allclose(loss.predictions().sum(axis=1), 1.0)

    def test_1d_logits_rejected(self):
        with pytest.raises(TrainingError):
            CrossEntropyLoss().forward(np.zeros(3), np.zeros(3, dtype=int))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(TrainingError):
            CrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_large_logits_stable(self):
        loss = CrossEntropyLoss()
        value = loss.forward(np.array([[1e4, 0.0]]), np.array([0]))
        assert np.isfinite(value)


def _masked_sigmoid(x):
    """The masked two-branch sigmoid each layer used to carry."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SPECIALS = np.array([1e6, -1e6, np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0,
                      5e-324, -5e-324, 1e-310, -1e-310, 745.0, -745.0,
                      36.0, -36.0])


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestSharedSigmoid:
    """BCE, the Sigmoid layer and link prediction all run the one
    branch-free ``repro.nn.layers.sigmoid``; it must equal the masked
    form bit for bit, NaN payloads and signed zeros included."""

    def _inputs(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 20, size=4000)
        x[::5] = np.resize(_SPECIALS, len(x[::5]))
        return x

    def test_sigmoid_bits(self):
        from repro.nn.layers import sigmoid

        x = self._inputs()
        assert np.array_equal(_bits(sigmoid(x)), _bits(_masked_sigmoid(x)))
        assert np.array_equal(_bits(sigmoid(_SPECIALS)),
                              _bits(_masked_sigmoid(_SPECIALS)))

    def test_sigmoid_layer_bits(self):
        from repro.nn import Sigmoid

        x = self._inputs().reshape(40, 100)
        assert np.array_equal(_bits(Sigmoid().forward(x)),
                              _bits(_masked_sigmoid(x)))

    def test_bce_probabilities_and_loss(self):
        x = self._inputs()
        finite = np.isfinite(x)
        y = (np.arange(len(x)) % 2).astype(np.float64)
        loss = BCEWithLogitsLoss()
        with np.errstate(invalid="ignore"):  # inf * 0 in the loss term
            value = loss.forward(x, y)
        assert np.array_equal(_bits(loss.predictions()),
                              _bits(_masked_sigmoid(x)))
        z, t = x[finite], y[finite]
        expected = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        assert loss.forward(z, t) == float(expected.mean())
        assert np.isnan(value)  # NaN logits poison the mean, as before

    def test_link_prediction_uses_shared_sigmoid(self):
        from repro.nn.layers import sigmoid
        from repro.tasks import link_prediction

        assert link_prediction.sigmoid is sigmoid
        assert not hasattr(link_prediction, "_sigmoid")
