"""Structure tests for the extension experiment definitions (tiny scale)."""

from repro.experiments.extensions import (
    ext_capability_discovery,
    ext_freeriders,
    ext_membership,
    ext_size_estimation,
)
from repro.experiments.gridrun import run_plans
from repro.experiments.scales import Scale

TINY = Scale("tiny-ext", 30, 6.0, 15.0)


def test_ext_freeriders_rows_and_render():
    (table,) = run_plans([ext_freeriders(TINY, fractions=(0.0, 0.2))])
    text = table.render()
    assert "freeriders" in text.lower()
    modes = {row[0] for row in table.rows}
    assert modes == {"nonserve", "underclaim"}
    # The fraction-0 baseline appears once (shared between modes).
    zero_rows = [row for row in table.rows if row[1] == "0%"]
    assert len(zero_rows) == 1
    # Detection column present for planted runs, dash for baseline.
    assert zero_rows[0][4] == "-"
    planted = [row for row in table.rows if row[1] != "0%"]
    assert all(row[4].startswith("P=") for row in planted)


def test_ext_membership_covers_grid():
    (table,) = run_plans([ext_membership(TINY)])
    keys = {(row[0], row[1]) for row in table.rows}
    assert keys == {("directory", "standard"), ("directory", "heap"),
                    ("cyclon", "standard"), ("cyclon", "heap")}
    for row in table.rows:
        reached, total = (int(x) for x in row[2].split("/"))
        assert 0 <= reached <= total == TINY.n_nodes - 1


def test_ext_capability_discovery_rows():
    (table,) = run_plans([ext_capability_discovery(TINY)])
    kinds = [row[0] for row in table.rows]
    assert kinds == ["configured", "discovery"]
    for row in table.rows:
        assert float(row[3]) > 0  # advertised/true ratio is positive


def test_ext_size_estimation_small_populations():
    table = ext_size_estimation(populations=(10, 25), seed=3)
    assert [row[0] for row in table.rows] == ["10", "25"]
    for row in table.rows:
        assert row[1] != "n/a"
        implied = float(row[3])
        assert 2.0 < implied < 8.0
