"""The k-NN / linear surrogates and their disagreement ensemble."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.explore.adaptive import reference
from repro.explore.adaptive.surrogate import (
    LinearSurrogate,
    NearestNeighbours,
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


def test_nearest_neighbours_rejects_k_below_one_and_predicting_empty():
    with pytest.raises(ValueError):
        NearestNeighbours(_grid(3), k=0)
    with pytest.raises(RuntimeError):
        NearestNeighbours(_grid(3), k=2).predict(np.empty(0))


@st.composite
def _append_schedules(draw):
    """A small grid encoding (few levels per axis, so equal distances
    abound), a reference sequence drawn from it with repeats, and the
    sizes it arrives in — zero-sized and single-row appends included."""
    dims = draw(st.integers(min_value=1, max_value=3))
    levels = draw(st.integers(min_value=2, max_value=4))
    axis = np.linspace(0.0, 1.0, levels)
    grid = np.array(np.meshgrid(*[axis] * dims)).reshape(dims, -1).T
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(grid) - 1),
        min_size=1, max_size=30,
    ))
    # Sorted cut points, repeats allowed: equal cuts are empty appends.
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(picks)), max_size=8,
    )))
    sizes = np.diff([0, *cuts, len(picks)]).tolist()
    y = draw(st.lists(
        st.floats(min_value=-1e3, max_value=1e3), min_size=len(picks),
        max_size=len(picks),
    ))
    return grid, grid[picks], np.array(y), sizes


@settings(max_examples=200, deadline=None)
@given(
    case=_append_schedules(),
    k=st.integers(min_value=1, max_value=8),
)
def test_running_top_k_matches_the_full_sort_oracle_bit_for_bit(case, k):
    queries, references, y, sizes = case
    state = NearestNeighbours(queries, k)
    seen = 0
    for size in sizes:
        state.extend(references[seen:seen + size])
        seen += size
        assert state.references == seen
        if seen == 0:
            continue
        # Fewer than k references in the early rounds: every one of them.
        distance, column = reference.knn_nearest(
            references[:seen], queries, k
        )
        assert state.column.shape == (len(queries), min(k, seen))
        assert np.array_equal(state.column, column)
        assert np.array_equal(state.distance, distance)
        rows = np.arange(0, len(queries), 2)
        assert np.array_equal(
            state.predict(y[:seen], rows),
            reference.knn_predict(references[:seen], y[:seen], queries, k)[rows],
        )


def test_knn_surrogate_predicts_as_the_full_sort_oracle():
    X = _grid(6)
    y = np.sin(7.0 * X[:, 0]) + X[:, 1] ** 2
    probe = _grid(11)
    assert np.array_equal(
        NearestNeighbourSurrogate(k=4).fit(X[::2], y[::2]).predict(probe),
        reference.knn_predict(X[::2], y[::2], probe, 4),
    )
