"""Plain-text rendering of tables and series for the benches and the CLI.

Every bench prints the rows/series of its paper table or figure through
these helpers, so outputs are uniform and easy to diff against
EXPERIMENTS.md.  The module imports nothing from the package, so a
subcommand that only prints a table (``repro store verify``) does not load
the analysis plane; :mod:`repro.analysis` re-exports both helpers.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    points: Sequence[tuple[object, object]],
    *,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render an (x, y) series as labelled rows (one figure curve)."""
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in points:
        lines.append(f"  {_fmt(x):>12} -> {_fmt(y)}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}".rstrip("0").rstrip(".") if value % 1 else f"{value:.0f}"
    return str(value)
