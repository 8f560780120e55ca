"""The k-NN / linear surrogates and their disagreement ensemble."""

import numpy as np
import pytest

from repro.explore.adaptive.surrogate import (
    LinearSurrogate,
    NearestNeighbourSurrogate,
    SurrogateEnsemble,
)


def _grid(n=25):
    xs = np.linspace(0.0, 1.0, n)
    return np.array([[x, y] for x in xs for y in xs])


def test_knn_reproduces_observations_exactly():
    X = _grid(5)
    y = X[:, 0] * 2 + X[:, 1]
    model = NearestNeighbourSurrogate(k=3).fit(X, y)
    assert model.predict(X) == pytest.approx(y, abs=1e-6)


def test_linear_recovers_a_linear_function():
    X = _grid(6)
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5
    model = LinearSurrogate(ridge=1e-9).fit(X, y)
    probe = np.array([[0.25, 0.75], [0.9, 0.1]])
    want = 3.0 * probe[:, 0] - 2.0 * probe[:, 1] + 0.5
    assert model.predict(probe) == pytest.approx(want, abs=1e-6)


def test_linear_stays_defined_with_fewer_points_than_features():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    model = LinearSurrogate().fit(X, np.array([0.0, 1.0]))
    assert np.isfinite(model.predict(np.array([[0.5, 0.5]]))).all()


def test_ensemble_uncertainty_is_zero_on_agreement_and_positive_on_curvature():
    X = _grid(7)
    linear_y = X[:, 0] + X[:, 1]
    ens = SurrogateEnsemble().fit(X, linear_y)
    probe = X[::5]
    # Both members represent a linear function exactly (k-NN at observed
    # points), so disagreement at observed points is ~0.
    assert ens.predict_with_uncertainty(probe)[1] == pytest.approx(0.0, abs=1e-6)

    curved_y = (X[:, 0] - 0.5) ** 2
    ens = SurrogateEnsemble().fit(X[::3], curved_y[::3])
    off_grid = np.array([[0.5, 0.5], [0.05, 0.95]])
    assert (ens.predict_with_uncertainty(off_grid)[1] > 0).all()


def test_fit_validation():
    with pytest.raises(ValueError):
        NearestNeighbourSurrogate(k=0)
    with pytest.raises(ValueError):
        LinearSurrogate(ridge=-1.0)
    with pytest.raises(ValueError):
        NearestNeighbourSurrogate().fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(RuntimeError):
        LinearSurrogate().predict(np.array([[0.0]]))
