"""Tests for the ASCII chart renderer."""

from repro.experiments.ascii_chart import multi_scatter, scatter


def test_scatter_renders_all_rows():
    text = scatter([(0, 0), (1, 1), (2, 4)], width=20, height=8)
    lines = text.splitlines()
    assert len(lines) >= 10  # 8 grid rows + axis + footer
    assert any("o" in line for line in lines)


def test_axis_labels_present():
    text = scatter(
        [(0, 0), (10, 5)], width=20, height=5,
        x_label="throughput", y_label="latency",
    )
    assert "latency" in text
    assert "throughput" in text


def test_extremes_land_on_plot_corners():
    text = scatter([(0, 0), (100, 10)], width=30, height=6)
    grid_lines = [l for l in text.splitlines() if "|" in l]
    # Max-y point is in the first grid row, min-y point in the last.
    assert "o" in grid_lines[0]
    assert "o" in grid_lines[-1]


def test_multi_series_markers_and_legend():
    text = multi_scatter(
        {"rbft": [(0, 1), (1, 2)], "prime": [(0, 5), (1, 9)]},
        width=20,
        height=6,
    )
    assert "r" in text and "p" in text
    assert "r = rbft" in text
    assert "p = prime" in text


def test_degenerate_inputs():
    assert multi_scatter({}) == "(no data)"
    # A single point (zero range on both axes) must not crash.
    text = scatter([(5, 5)], width=10, height=4)
    assert "o" in text


def test_y_axis_shows_value_range():
    text = scatter([(0, 2.0), (1, 8.0)], width=10, height=4)
    assert "8" in text
    assert "2" in text


def test_series_sharing_a_first_letter_get_distinct_markers():
    text = multi_scatter(
        {"rbft": [(0, 1)], "rbft-udp": [(1, 2)], "prime": [(2, 3)]},
        width=20,
        height=6,
    )
    grid = "".join(line for line in text.splitlines() if "|" in line)
    assert "r = rbft   b = rbft-udp   p = prime" in text
    assert {"r", "b", "p"} <= set(grid)
