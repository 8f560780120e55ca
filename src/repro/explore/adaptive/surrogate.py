"""Cheap surrogate models over encoded design points.

The adaptive engine's surrogates are deliberately modest: a
nearest-neighbour interpolator and a ridge-regularised linear model, both
exact and dependency-free (numpy only).  The two see the objective
differently — the linear model extrapolates global trend, the neighbour
model tracks local structure — and :class:`SurrogateEnsemble` turns their
*disagreement* into the uncertainty signal the explore half of the
acquisition rule feeds on (Memeti & Pllana 2021 use the same trick with
heavier models).

The linear model is refit from scratch on every batch: a ``(d+1)``-square
solve.  The neighbour model's cost is the search, so that state persists:
:class:`NearestNeighbours` keeps every candidate's ``k`` nearest
observations across batches, and a batch only measures the candidates
against the observations that arrived since the last one.  Because
observations only ever append, the merge is exact — it selects the same
neighbours in the same order as a full stable sort over every
observation, so the weighted sums, and with them the sampler's proposal
sequence, are bit-identical to a from-scratch refit.
"""

from __future__ import annotations

import numpy as np


class NearestNeighbours:
    """Every query row's ``k`` nearest reference rows, kept across appends.

    ``distance`` and ``column`` are ``(queries, min(k, references))``:
    each row's nearest references in ascending distance, ties in
    reference (column) order — the first ``k`` of a stable argsort of the
    row's distances to every reference seen.

    :meth:`extend` appends references.  The ``k`` nearest of the first
    ``n + m`` references lie among the ``k`` nearest of the first ``n``
    and the ``m`` new ones, so it measures only the new rows and re-sorts
    the ``(queries, k + m)`` block: the kept entries (already in
    ``(distance, column)`` order) followed by the new columns (higher
    column numbers, in order).  A stable sort of that block reproduces the
    full sort's first ``k`` exactly, ties at the ``k``-th distance
    included, and each distance is computed by the same expression as in
    a full ``(queries, references)`` matrix, so it is the same float.
    """

    def __init__(self, queries: np.ndarray, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.queries = np.asarray(queries, dtype=float)
        self.k = k
        self.references = 0
        self.distance = np.empty((len(self.queries), 0))
        self.column = np.empty((len(self.queries), 0), dtype=np.intp)

    def extend(self, X: np.ndarray) -> "NearestNeighbours":
        """Append the reference rows ``X``, numbered from ``references``."""
        X = np.asarray(X, dtype=float)
        if len(X) == 0:
            return self
        fresh = np.sqrt(
            ((self.queries[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        )
        columns = np.arange(self.references, self.references + len(X))
        distance = np.concatenate([self.distance, fresh], axis=1)
        column = np.concatenate(
            [self.column, np.broadcast_to(columns, fresh.shape)], axis=1
        )
        order = np.argsort(distance, axis=1, kind="stable")[:, :self.k]
        self.distance = np.take_along_axis(distance, order, axis=1)
        self.column = np.take_along_axis(column, order, axis=1)
        self.references += len(X)
        return self

    def predict(self, y: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Inverse-distance-weighted mean of the reference targets ``y``
        over each selected query row's neighbours."""
        if self.references == 0:
            raise RuntimeError("no references to predict from")
        w = 1.0 / (self.distance[rows] + 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        return (w * np.asarray(y, dtype=float)[self.column[rows]]).sum(axis=1)


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
        return NearestNeighbours(X, self.k).extend(self._X).predict(self._y)


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
        return mean_and_spread([m.predict(X) for m in self.members])


def mean_and_spread(
    predictions: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble rule: the members' mean prediction, and the absolute
    spread between them as the uncertainty."""
    preds = np.stack(predictions)
    return preds.mean(axis=0), np.abs(preds.max(axis=0) - preds.min(axis=0))
