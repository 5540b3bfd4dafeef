"""Plain-text rendering of experiment results.

The paper reports its results as figures; this reproduction renders the same
series as aligned text tables (and CSV) so they can be read in a terminal,
diffed in CI, or pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from typing import Mapping

import numpy as np

from .figures import FigureResult

__all__ = ["format_figure", "format_mapping", "figure_to_csv"]


def _format_value(value: float, precision: int = 4) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.{precision}g}"


def format_figure(result: FigureResult, precision: int = 4, max_rows: int | None = None) -> str:
    """Render a figure's series as an aligned text table.

    The x-axis forms the first column; each series becomes one further column.
    Series are aligned on the union of their x values (missing combinations
    render as blanks).  ``max_rows`` subsamples long sweeps evenly so the table
    stays readable (the full data is always available programmatically).
    """
    names = result.series_names()
    all_x = sorted({float(x) for name in names for x in result.series[name][0]})
    if max_rows is not None and len(all_x) > max_rows:
        idx = np.linspace(0, len(all_x) - 1, max_rows).round().astype(int)
        all_x = [all_x[i] for i in sorted(set(idx.tolist()))]
    lookup: dict[str, dict[float, float]] = {}
    for name in names:
        xs, ys = result.series[name]
        lookup[name] = {float(x): float(y) for x, y in zip(xs, ys)}

    header = [result.x_label] + names
    rows: list[list[str]] = []
    for x in all_x:
        row = [_format_value(x, precision)]
        for name in names:
            value = lookup[name].get(x)
            row.append("" if value is None else _format_value(value, precision))
        rows.append(row)

    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    out = io.StringIO()
    out.write(f"{result.figure_id}: {result.title}\n")
    out.write(f"(y = {result.y_label})\n")
    out.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip() + "\n")
    out.write("  ".join("-" * widths[i] for i in range(len(header))) + "\n")
    for row in rows:
        out.write(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
            + "\n"
        )
    return out.getvalue()


def figure_to_csv(result: FigureResult) -> str:
    """Render a figure as CSV (long format: series,x,y)."""
    out = io.StringIO()
    out.write("series,x,y\n")
    for name in result.series_names():
        xs, ys = result.series[name]
        for x, y in zip(xs, ys):
            out.write(f"{name},{float(x)!r},{float(y)!r}\n")
    return out.getvalue()


def format_mapping(title: str, mapping: Mapping[str, object], precision: int = 4) -> str:
    """Render a flat key/value mapping (ablation or summary output) as text."""
    out = io.StringIO()
    out.write(title + "\n")
    width = max((len(str(k)) for k in mapping), default=0)
    for key, value in mapping.items():
        if isinstance(value, float):
            rendered = _format_value(value, precision)
        else:
            rendered = str(value)
        out.write(f"  {str(key).ljust(width)} : {rendered}\n")
    return out.getvalue()
