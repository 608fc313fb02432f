"""Maximum-entropy classifier: gradient, optimum, and prediction checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oerrec.maxent import (
    GRAD_TOL,
    MAX_ITER,
    MaxEntModel,
    predict_batch,
    train_maxent,
    _objective,
)
from oracles import finite_diff_maxent_grad, maxent_objective, oracle_softmax


def random_instance(seed, n=12, d=3, k=3):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, d))
    y = np.concatenate([np.arange(k), g.integers(0, k, n - k)])
    return X, y


def analytic_grad(X, y, W, b, lam):
    # The closed form the trainer ascends: (onehot - softmax) pullback.
    scores = X @ W.T + b
    scores -= scores.max(axis=1, keepdims=True)
    P = np.exp(scores)
    P /= P.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(P)
    onehot[np.arange(len(y)), y] = 1.0
    R = onehot - P
    return R.T @ X - lam * W, R.sum(axis=0)


class TestObjectiveAndGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_objective_matches_oracle_transcription(self, seed):
        X, y = random_instance(seed)
        g = np.random.default_rng(seed + 100)
        W = g.normal(size=(3, 3))
        b = g.normal(size=3)
        assert _objective(W, b, X, y, lam=0.7) == pytest.approx(
            maxent_objective(X.tolist(), list(y), W.tolist(), list(b), 0.7),
            abs=1e-9,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        X, y = random_instance(seed)
        g = np.random.default_rng(seed + 200)
        W = g.normal(size=(3, 3)) * 0.5
        b = g.normal(size=3) * 0.5
        gW, gb = analytic_grad(X, y, W, b, lam=1.0)
        fW, fb = finite_diff_maxent_grad(X.tolist(), list(y), W.tolist(), list(b), 1.0)
        scale = np.maximum(1.0, np.abs(gW))
        assert np.max(np.abs(gW - fW) / scale) < 1e-6
        assert np.max(np.abs(gb - fb) / np.maximum(1.0, np.abs(gb))) < 1e-6


class TestTraining:
    def test_linearly_separable_reaches_full_accuracy(self):
        g = np.random.default_rng(0)
        X0 = g.normal(loc=-3.0, size=(10, 2))
        X1 = g.normal(loc=+3.0, size=(10, 2))
        X = np.vstack([X0, X1])
        y = np.array([0] * 10 + [1] * 10)
        model = train_maxent(X, y, lam=1e-4)
        pred, _ = predict_batch(model, X)
        assert np.array_equal(pred, y)

    def test_identical_features_recover_class_priors(self):
        X = np.ones((10, 2))
        y = np.array([0] * 7 + [1] * 3)
        model = train_maxent(X, y, lam=1.0)
        _, probs = predict_batch(model, np.ones((1, 2)))
        assert probs[0] == pytest.approx([0.7, 0.3], abs=1e-6)

    def test_objective_not_below_zero_init(self):
        for seed in range(5):
            X, y = random_instance(seed)
            model = train_maxent(X, y, lam=0.5)
            f0 = _objective(np.zeros((3, 3)), np.zeros(3), X, y, 0.5)
            f1 = _objective(model.weights, model.intercepts, X, y, 0.5)
            assert f1 >= f0

    def test_converges_to_stationary_point(self):
        X, y = random_instance(3)
        model = train_maxent(X, y, lam=1.0)
        assert model.iterations < MAX_ITER
        assert model.final_grad_norm <= GRAD_TOL
        gW, gb = analytic_grad(X, y, model.weights, model.intercepts, 1.0)
        assert float(np.sqrt((gW**2).sum() + (gb**2).sum())) <= GRAD_TOL

    def test_deterministic(self):
        X, y = random_instance(7)
        a = train_maxent(X, y, lam=1.0)
        b = train_maxent(X, y, lam=1.0)
        assert np.array_equal(a.weights, b.weights)
        assert a.iterations == b.iterations

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="classes without examples"):
            train_maxent(np.ones((3, 2)), [0, 0, 2])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            train_maxent(np.ones((2, 2)), [0, 1], lam=-1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_maxent(np.zeros((0, 2)), [])

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            train_maxent(X, [0, 1])

    def test_round_trip_dict(self):
        X, y = random_instance(11)
        model = train_maxent(X, y, lam=2.0)
        again = MaxEntModel.from_dict(model.to_dict())
        assert np.allclose(again.weights, model.weights)
        assert np.allclose(again.intercepts, model.intercepts)
        assert again.lam == model.lam


class TestPredict:
    def test_zero_weight_model_uniform(self):
        model = MaxEntModel(np.zeros((3, 2)), np.zeros(3), lam=1.0)
        labels, probs = predict_batch(model, np.array([[5.0, -2.0]]))
        assert labels[0] == 0
        assert probs[0] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_hand_set_weights_match_direct_softmax(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([0.1, -0.1])
        model = MaxEntModel(W, b, lam=0.0)
        labels, probs = predict_batch(model, np.array([[0.3, 0.9]]))
        expected = oracle_softmax([0.3 + 0.1, 0.9 - 0.1])
        assert probs[0] == pytest.approx(expected, abs=1e-12)
        assert labels[0] == int(np.argmax(expected))

    def test_dimension_mismatch_rejected(self):
        model = MaxEntModel(np.zeros((2, 3)), np.zeros(2), lam=1.0)
        with pytest.raises(ValueError):
            predict_batch(model, np.ones((1, 2)))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=1000))
    def test_probabilities_sum_to_one(self, seed):
        g = np.random.default_rng(seed)
        model = MaxEntModel(g.normal(size=(4, 3)), g.normal(size=4), lam=1.0)
        _, probs = predict_batch(model, g.normal(size=(1, 3)) * 10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)

    def test_argmax_tie_breaks_low_index(self):
        model = MaxEntModel(np.zeros((4, 2)), np.zeros(4), lam=1.0)
        labels, _ = predict_batch(model, np.array([[1.0, 1.0]]))
        assert labels[0] == 0
