"""Reference implementations of the surrogate sampler's two searches.

These are the from-scratch forms the sampler computed on every batch
before its neighbour search became incremental and its hill-climb
neighbourhood a vectorised code comparison, kept as behavioural oracles —
the role :mod:`repro.simmpi.reference` plays for the event engine.  The
contract, enforced by ``tests/explore/adaptive/test_surrogate.py`` and
``tests/explore/adaptive/test_encoding.py``:

* :func:`knn_predict` — one full ``(queries, references)`` distance
  matrix and a full stable argsort per call.  :class:`~repro.explore.
  adaptive.surrogate.NearestNeighbours`, extended in any schedule of
  appends, selects the same neighbours in the same order and predicts the
  same floats, bit for bit.
* :func:`coordinate_neighbours` — the Python ``!=`` test per candidate
  and feature.  Comparing :attr:`~repro.explore.adaptive.encoding.
  SpaceEncoder.codes` selects the same candidates.

Only tests import this module.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.explore.space import DesignPoint


def knn_nearest(
    references: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's ``min(k, len(references))`` nearest references as
    ``(distances, columns)``, from a full stable argsort."""
    X = np.asarray(queries, dtype=float)
    R = np.asarray(references, dtype=float)
    d = np.sqrt(((X[:, None, :] - R[None, :, :]) ** 2).sum(axis=2))
    nearest = np.argsort(d, axis=1, kind="stable")[:, :min(k, len(R))]
    rows = np.arange(len(X))[:, None]
    return d[rows, nearest], nearest


def knn_predict(
    references: np.ndarray, y: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Inverse-distance-weighted k-NN prediction at ``queries``."""
    d, nearest = knn_nearest(references, queries, k)
    w = 1.0 / (d + 1e-12)
    w /= w.sum(axis=1, keepdims=True)
    return (w * np.asarray(y, dtype=float)[nearest]).sum(axis=1)


def coordinate_neighbours(
    candidates: Sequence[DesignPoint],
    best: DesignPoint,
    features: Sequence[str],
) -> list[int]:
    """Positions of the candidates differing from ``best`` in exactly one
    feature, by Python ``!=`` on the values."""
    return [
        pos for pos, point in enumerate(candidates)
        if sum(point.get(name) != best.get(name) for name in features) == 1
    ]
