"""Text-mode visualization: ASCII line charts, bar charts and tables.

The execution environment has no plotting stack, so figures are
rendered as unicode charts on stdout and their backing data written as
CSV by the experiment harness.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AnalysisError

#: Plot area of :func:`line_chart`, in characters.
CHART_WIDTH, CHART_HEIGHT = 70, 15


def line_chart(xs: Sequence[float], ys: Sequence[float], title: str = "",
               x_label: str = "", y_label: str = "",
               phases: Sequence[tuple[float, str]] | None = None) -> str:
    """Render an (x, y) series as an ASCII chart of
    :data:`CHART_WIDTH` x :data:`CHART_HEIGHT` cells.

    Args:
        phases: optional (start_x, name) markers drawn as a footer rule.
    """
    if len(xs) != len(ys) or not xs:
        raise AnalysisError("need equal-length, non-empty xs and ys")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * CHART_WIDTH for _ in range(CHART_HEIGHT)]
    for x, y in zip(xs, ys):
        col = int((x - x_lo) / (x_hi - x_lo) * (CHART_WIDTH - 1))
        row = int((y - y_lo) / (y_hi - y_lo) * (CHART_HEIGHT - 1))
        grid[CHART_HEIGHT - 1 - row][col] = "•"

    lines = []
    if title:
        lines.append(title)
    label_width = 10
    for i, row in enumerate(grid):
        value = y_hi - (y_hi - y_lo) * i / (CHART_HEIGHT - 1)
        prefix = f"{value:>{label_width}.3g} |" if i % 3 == 0 \
            else " " * label_width + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * label_width + "+" + "-" * CHART_WIDTH)
    x_axis = (f"{x_lo:<12.4g}" + " " * max(0, CHART_WIDTH - 24)
              + f"{x_hi:>12.4g}")
    lines.append(" " * (label_width + 1) + x_axis)
    if x_label or y_label:
        lines.append(" " * (label_width + 1)
                     + f"x: {x_label}    y: {y_label}")
    if phases:
        marker_row = [" "] * CHART_WIDTH
        for start, name in phases:
            col = int((start - x_lo) / (x_hi - x_lo) * (CHART_WIDTH - 1))
            for j, ch in enumerate("|" + name):
                if 0 <= col + j < CHART_WIDTH:
                    marker_row[col + j] = ch
        lines.append(" " * (label_width + 1) + "".join(marker_row))
    return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: str = "", fmt: str = "{:.3g}") -> str:
    """Horizontal bar chart with labels; the longest bar is 50 wide."""
    if len(labels) != len(values) or not labels:
        raise AnalysisError("need equal-length, non-empty labels/values")
    peak = max(values) if max(values) > 0 else 1.0
    label_width = max(len(str(lab)) for lab in labels)
    lines = [title] if title else []
    for lab, val in zip(labels, values):
        bar = "█" * max(0, int(val / peak * 50))
        lines.append(f"{lab:>{label_width}} | {bar} {fmt.format(val)}")
    return "\n".join(lines)


def table(rows: Sequence[Sequence], header: Sequence[str]) -> str:
    """A plain aligned text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(f"{c:<{w}}" for c, w in zip(row, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep, *(fmt(r) for r in str_rows)])
