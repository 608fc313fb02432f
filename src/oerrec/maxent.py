"""Maximum-Entropy (multinomial logistic) community classifier.

Maximizes the L2-regularized multinomial log-likelihood

    sum_i log p(y_i | x_i) - (lambda/2) ||W||^2

with unregularized intercepts, by gradient ascent with backtracking from
zero weights. The objective is concave, so the fit is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRAD_TOL = 1e-6
MAX_ITER = 10_000


@dataclass
class MaxEntModel:
    weights: np.ndarray  # (k, d)
    intercepts: np.ndarray  # (k,)
    lam: float
    iterations: int = 0
    final_grad_norm: float = 0.0
    feature_space: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "intercepts": self.intercepts.tolist(),
            "lambda": self.lam,
            "convergence": {"iterations": self.iterations,
                            "final_grad_norm": self.final_grad_norm},
            "feature_space": self.feature_space,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MaxEntModel":
        return cls(
            weights=np.asarray(d["weights"], dtype=np.float64),
            intercepts=np.asarray(d["intercepts"], dtype=np.float64),
            lam=d["lambda"],
            iterations=d["convergence"]["iterations"],
            final_grad_norm=d["convergence"]["final_grad_norm"],
            feature_space=d.get("feature_space", {}),
        )


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _objective(W, b, X, Y, lam) -> float:
    scores = X @ W.T + b
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    ll = float((shifted[np.arange(len(X)), Y] - log_z).sum())
    return ll - 0.5 * lam * float((W * W).sum())


def train_maxent(X: np.ndarray, labels, lam: float = 1.0) -> MaxEntModel:
    """Fit on (n, d) vectors with integer community labels in [0, k)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or Y.shape != (X.shape[0],):
        raise ValueError(f"shape mismatch: X {X.shape}, labels {Y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if Y.size == 0:
        raise ValueError("empty training set")
    k = int(Y.max()) + 1
    present = np.bincount(Y, minlength=k)
    if np.any(present == 0):
        missing = np.flatnonzero(present == 0).tolist()
        raise ValueError(f"classes without examples: {missing}")

    n, d = X.shape
    W = np.zeros((k, d))
    b = np.zeros(k)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), Y] = 1.0

    f = _objective(W, b, X, Y, lam)
    step = 1.0
    grad_norm = np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        P = _softmax(X @ W.T + b)
        R = onehot - P  # (n, k)
        gW = R.T @ X - lam * W
        gb = R.sum(axis=0)
        grad_norm = float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))
        if grad_norm <= GRAD_TOL:
            it -= 1
            break
        # backtracking keeps the objective non-decreasing
        while True:
            W_new = W + step * gW
            b_new = b + step * gb
            f_new = _objective(W_new, b_new, X, Y, lam)
            if f_new >= f:
                break
            step *= 0.5
            if step < 1e-18:
                break
        if f_new < f:
            break  # no representable ascent step left
        W, b, f = W_new, b_new, f_new
        step = min(step * 1.5, 1e6)

    return MaxEntModel(W, b, lam, iterations=it, final_grad_norm=grad_norm)


def predict_batch(model: MaxEntModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax class distribution of each row of X (n, d); each label is the
    argmax, ties to the lower index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) matrix, got shape {X.shape}")
    probs = _softmax(X @ model.weights.T + model.intercepts)
    return np.argmax(probs, axis=1), probs
