"""Cheap surrogate models over encoded design points.

The adaptive engine's surrogates are deliberately modest: a
nearest-neighbour interpolator and a ridge-regularised linear model, both
exact, dependency-free (numpy only), and refit from scratch on every
batch — at campaign scales (10^2–10^4 candidates, 10^1–10^3 observations)
a refit costs microseconds, and statelessness is what keeps the sampler
bit-reproducible.  The two see the objective differently — the linear
model extrapolates global trend, the neighbour model tracks local
structure — and :class:`SurrogateEnsemble` turns their *disagreement*
into the uncertainty signal the explore half of the acquisition rule
feeds on (Memeti & Pllana 2021 use the same trick with heavier models).
"""

from __future__ import annotations

import numpy as np


class NearestNeighbourSurrogate:
    """Inverse-distance-weighted k-NN regression.

    Prediction at an observed point reproduces its observation exactly
    (distance ~ 0 dominates the weights), so the exploit ranking never
    re-proposes a known point over an equally-promising unknown one.
    """

    name = "knn"

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestNeighbourSurrogate":
        if len(X) == 0:
            raise ValueError("cannot fit on zero observations")
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y, dtype=float)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("fit before predict")
        X = np.asarray(X, dtype=float)
        # (m, n) pairwise distances; small spaces make this exact approach
        # cheaper than any index structure.
        d = np.sqrt(
            ((X[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
        )
        k = min(self.k, len(self._X))
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        rows = np.arange(len(X))[:, None]
        w = 1.0 / (d[rows, nearest] + 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        return (w * self._y[nearest]).sum(axis=1)


class LinearSurrogate:
    """Ridge-regularised least squares with intercept.

    The regulariser keeps the fit defined when observations are fewer
    than features (the first adaptive batches) and never penalises the
    intercept.
    """

    name = "linear"

    def __init__(self, ridge: float = 1e-6):
        if ridge < 0:
            raise ValueError("ridge must be >= 0")
        self.ridge = ridge
        self._beta: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSurrogate":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit on zero observations")
        A = np.hstack([np.ones((len(X), 1)), X])
        reg = self.ridge * np.eye(A.shape[1])
        reg[0, 0] = 0.0  # free intercept
        self._beta = np.linalg.solve(A.T @ A + reg, A.T @ y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._beta is None:
            raise RuntimeError("fit before predict")
        X = np.asarray(X, dtype=float)
        return np.hstack([np.ones((len(X), 1)), X]) @ self._beta


class SurrogateEnsemble:
    """The k-NN + linear pair: mean prediction and model disagreement.

    ``predict_with_uncertainty`` averages the members, and its
    uncertainty is the absolute spread between them — zero where both
    models agree (well-sampled, locally linear regions), large where
    global trend and local structure tell different stories, which is
    exactly where another sample buys the most information.
    """

    def __init__(self, k: int = 5, ridge: float = 1e-6):
        self.members = (NearestNeighbourSurrogate(k), LinearSurrogate(ridge))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SurrogateEnsemble":
        for member in self.members:
            member.fit(X, y)
        return self

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The members' mean prediction and their absolute spread, from
        one prediction per member."""
        preds = np.stack([m.predict(X) for m in self.members])
        return preds.mean(axis=0), np.abs(preds.max(axis=0) - preds.min(axis=0))
