"""SpaceEncoder: feature selection, scaling, determinism, equality codes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.explore.adaptive import reference
from repro.explore.adaptive.encoding import SpaceEncoder
from repro.explore.space import DesignSpace

from tests.explore.adaptive.conftest import bowl_space


def test_constant_parameters_are_dropped():
    space = bowl_space(na=4, nb=3, modes=2)
    enc = SpaceEncoder(space.expand())
    assert set(enc.features) == {"a", "b", "mode"}  # "runs" is constant
    assert enc.dimensions == 3


def test_numeric_axes_scale_by_value_not_rank():
    space = DesignSpace.grid(n=[1, 2, 10])
    enc = SpaceEncoder(space.expand())
    lo, mid, hi = (enc.encode({"n": v})[0] for v in (1, 2, 10))
    assert lo == 0.0 and hi == 1.0
    assert mid == pytest.approx(1 / 9)  # value-proportional, not 0.5


def test_categorical_axes_are_ordinal_in_declaration_order():
    space = DesignSpace.grid(pattern=["tree", "linear", "dissemination"])
    enc = SpaceEncoder(space.expand())
    codes = [enc.encode({"pattern": p})[0]
             for p in ("tree", "linear", "dissemination")]
    assert codes == [0.0, 0.5, 1.0]


def test_unseen_categorical_lands_outside_the_known_range():
    enc = SpaceEncoder(DesignSpace.grid(pattern=["a", "b"]).expand())
    assert enc.encode({"pattern": "zzz"})[0] > 1.0


def test_encode_many_matches_encode_rows():
    points = bowl_space(na=3, nb=3, modes=2).expand()
    enc = SpaceEncoder(points)
    matrix = enc.encode_many(points)
    assert matrix.shape == (len(points), enc.dimensions)
    for row, point in zip(matrix, points):
        assert np.array_equal(row, enc.encode(point))


def test_two_encoders_from_the_same_expansion_agree():
    points = bowl_space(na=4, nb=4, modes=3).expand()
    a, b = SpaceEncoder(points), SpaceEncoder(points)
    assert a.features == b.features
    assert np.array_equal(a.encode_many(points), b.encode_many(points))


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        SpaceEncoder([])


def test_numerically_constant_axis_is_dropped():
    # 1 and 1.0 are distinct axis values (distinct JSON) but one number.
    space = DesignSpace.grid(n=[1, 1.0], p=["a", "b"])
    enc = SpaceEncoder(space.expand())
    assert enc.features == ["p"]
    assert enc.encode_many(space.expand()).tolist() == [[0.0], [1.0]] * 2


def test_differences_follow_python_equality_not_json():
    space = DesignSpace.from_dict({
        "axes": {"flag": [1, 1.0, True, "x", None, [1, 2], [1.0, 2]]},
        "points": [{"other": 3}],
    })
    enc = SpaceEncoder(space.expand())
    # 1 == 1.0 == True; [1, 2] == [1.0, 2]; the point without "flag"
    # reads it as None.  ("other" has one value, so it is no feature.)
    assert enc.features == ["flag"]
    assert enc.differences(0).tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    assert enc.differences(4).tolist() == [1, 1, 1, 1, 0, 1, 1, 0]
    assert enc.differences(5).tolist() == [1, 1, 1, 1, 1, 0, 0, 1]


# Values that collide under == but not in JSON (1, 1.0, True; 0.0, -0.0),
# NaN (unequal to itself), None, and lists.
_values = st.sampled_from([
    0, 1, 2, 1.0, 0.0, -0.0, 2.5, True, False, None, math.nan,
    "a", "b", [1, 2], [1.0, 2], [], {"u": 1},
])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.dictionaries(st.sampled_from(["p", "q", "r"]), _values, max_size=3),
        min_size=1, max_size=25,
    ),
    best=st.integers(min_value=0),
)
def test_one_coordinate_neighbours_match_the_python_oracle(rows, best):
    """The vectorised neighbour test over codes selects exactly the
    candidates the per-value ``!=`` test selects."""
    space = DesignSpace.from_dict({"points": rows})
    points = space.expand()
    enc = SpaceEncoder(points)
    best %= len(points)
    assert np.flatnonzero(enc.differences(best) == 1).tolist() == (
        reference.coordinate_neighbours(points, points[best], enc.features)
    )
