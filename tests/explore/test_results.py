"""ResultSet queries: filter, group, rank, and a hand-computed Pareto front."""

import pytest

from repro.explore.results import ResultRecord, ResultSet


def rec(key, point, metrics):
    return ResultRecord(key=key, experiment="test", point=point, metrics=metrics)


@pytest.fixture
def rs():
    return ResultSet((
        rec("a", {"preset": "x", "p": 8}, {"cost": 3.0, "msgs": 14}),
        rec("b", {"preset": "x", "p": 16}, {"cost": 2.0, "msgs": 24}),
        rec("c", {"preset": "y", "p": 8}, {"cost": 4.0, "msgs": 10}),
        rec("d", {"preset": "y", "p": 16}, {"cost": 2.5, "msgs": 64}),
        rec("e", {"preset": "y", "p": 32}, {"error": "boom"}),
    ))


def test_filter_by_point_and_metric(rs):
    assert [r.key for r in rs.filter(preset="y")] == ["c", "d", "e"]
    assert [r.key for r in rs.filter(cost=2.0)] == ["b"]
    assert [r.key for r in rs.filter(lambda r: r.value("p") == 8)] == ["a", "c"]
    assert [r.key for r in rs.filter(preset="x", p=16)] == ["b"]


def test_ok_drops_failures(rs):
    assert [r.key for r in rs.ok()] == ["a", "b", "c", "d"]
    assert rs[4].failed


def test_group_by_preserves_order(rs):
    groups = rs.group_by("preset")
    assert list(groups) == [("x",), ("y",)]
    assert [r.key for r in groups[("y",)]] == ["c", "d", "e"]


def test_rank_by_and_best(rs):
    ranked = rs.rank_by("cost")
    assert [r.key for r in ranked] == ["b", "d", "a", "c", "e"]  # e lacks cost
    assert rs.best("cost").key == "b"
    assert rs.best("cost", ascending=False).key == "c"
    with pytest.raises(ValueError):
        rs.best("nonexistent")


def test_values_resolve_metrics_then_point(rs):
    assert rs.values("p") == [8, 16, 8, 16, 32]
    assert rs.values("cost")[:2] == [3.0, 2.0]


def test_pareto_front_hand_computed(rs):
    # Minimise (cost, msgs).  Hand check:
    #   a (3.0, 14): not dominated (b has more msgs, c more cost)
    #   b (2.0, 24): not dominated (cheapest cost among msgs<=24 rivals)
    #   c (4.0, 10): not dominated (fewest msgs)
    #   d (2.5, 64): dominated by b (2.0 <= 2.5, 24 <= 64, strictly better)
    #   e: excluded (no objective values)
    front = rs.pareto_front(["cost", "msgs"])
    assert [r.key for r in front] == ["a", "b", "c"]


def test_pareto_front_with_maximize_direction():
    data = ResultSet((
        rec("a", {}, {"speedup": 2.0, "msgs": 20}),
        rec("b", {}, {"speedup": 1.5, "msgs": 10}),
        rec("c", {}, {"speedup": 1.0, "msgs": 15}),  # dominated by both? no:
        # c vs a: a faster but more msgs; c vs b: b faster AND fewer msgs -> dominated
    ))
    front = data.pareto_front(["msgs", "speedup"], maximize=["speedup"])
    assert [r.key for r in front] == ["a", "b"]


def test_pareto_duplicates_all_survive():
    data = ResultSet((
        rec("a", {}, {"cost": 1.0}),
        rec("b", {}, {"cost": 1.0}),
    ))
    assert [r.key for r in data.pareto_front(["cost"])] == ["a", "b"]


def test_pareto_argument_validation(rs):
    with pytest.raises(ValueError):
        rs.pareto_front([])
    with pytest.raises(ValueError):
        rs.pareto_front(["cost"], maximize=["msgs"])


def test_to_rows_and_names(rs):
    assert rs.point_names() == ["preset", "p"]
    assert rs.metric_names() == ["cost", "msgs", "error"]
    assert rs.to_rows(["preset", "cost"])[0] == ["x", 3.0]


def test_summary_digest(rs):
    summary = rs.summary()
    assert summary["records"] == 5
    assert summary["failed"] == 1
    assert summary["experiments"] == ["test"]
    assert summary["parameters"] == {"preset": 2, "p": 3}
    cost = summary["metrics"]["cost"]
    assert cost["count"] == 4  # the failed record has no cost
    assert cost["min"] == 2.0 and cost["max"] == 4.0
    assert cost["mean"] == pytest.approx((3.0 + 2.0 + 4.0 + 2.5) / 4)
    assert "error" not in summary["metrics"]  # strings are not numeric


def test_summary_of_empty_set():
    summary = ResultSet(()).summary()
    assert summary["records"] == 0
    assert summary["metrics"] == {}


def test_to_csv_default_columns(rs, tmp_path):
    import csv

    path = tmp_path / "out.csv"
    columns = rs.to_csv(path)
    assert columns == ["preset", "p", "cost", "msgs", "error"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == columns
    assert len(rows) == 6
    assert rows[1] == ["x", "8", "3.0", "14", ""]
    # The failed record serialises its error string, not a crash.
    assert rows[5][columns.index("error")] == "boom"


def test_to_csv_writes_file_objects(rs):
    import io

    buffer = io.StringIO()
    rs.to_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "preset,p,cost,msgs,error"
    assert lines[1] == "x,8,3.0,14,"


def test_to_csv_serialises_compound_cells(tmp_path):
    import csv

    compound = ResultSet((
        rec("z", {"p": 8}, {"levels": [1, 2, 3], "meta": {"b": 1, "a": 2}}),
    ))
    path = tmp_path / "compound.csv"
    compound.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][rows[0].index("levels")] == "[1, 2, 3]"
    assert rows[1][rows[0].index("meta")] == '{"a": 2, "b": 1}'
