"""Terminal rendering of the paper's figures.

No plotting dependencies are available offline, so the CLI draws its
figures as ASCII scatter plots: good enough to eyeball the knee of a
latency/throughput curve or the step in the unfair-primary trace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["scatter", "multi_scatter"]


def _scale(values: Sequence[float], cells: int) -> Tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        hi = lo + 1.0
    return lo, (hi - lo) / max(1, cells - 1)


def scatter(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 16,
    marker: str = "o",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render (x, y) points as an ASCII plot."""
    return multi_scatter({marker: list(points)}, width, height, x_label, y_label)


def multi_scatter(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render several series keyed by name.  Each series is drawn with
    the first character of its name that no earlier series uses (its
    first character if all are taken), as the legend shows."""
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        return "(no data)"
    xs = [x for x, _ in all_points]
    ys = [y for _, y in all_points]
    x0, x_step = _scale(xs, width)
    y0, y_step = _scale(ys, height)

    marks: Dict[str, str] = {}
    for name in series:
        label = name or "o"
        free = [c for c in label if c not in marks.values()]
        marks[name] = free[0] if free else label[0]
    grid = [[" "] * width for _ in range(height)]
    for name, points in series.items():
        mark = marks[name]
        for x, y in points:
            col = int(round((x - x0) / x_step))
            row = int(round((y - y0) / y_step))
            col = min(max(col, 0), width - 1)
            row = min(max(row, 0), height - 1)
            grid[height - 1 - row][col] = mark

    y_hi = y0 + y_step * (height - 1)
    lines = []
    if y_label:
        lines.append(y_label)
    for i, row in enumerate(grid):
        if i == 0:
            prefix = "%10.3g |" % y_hi
        elif i == height - 1:
            prefix = "%10.3g |" % y0
        else:
            prefix = "           |"
        lines.append(prefix + "".join(row))
    lines.append("           +" + "-" * width)
    x_hi = x0 + x_step * (width - 1)
    footer = "            %-.3g%s%.3g" % (x0, " " * max(1, width - 16), x_hi)
    lines.append(footer)
    if x_label:
        lines.append("            " + x_label.center(width))
    if len(series) > 1:
        legend = "   ".join("%s = %s" % (marks[name], name) for name in series)
        lines.append("            " + legend)
    return "\n".join(lines)
