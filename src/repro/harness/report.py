"""Plain-text rendering of experiment results (the "figures" of this repo).

Every CLI subcommand that prints a table goes through :func:`render_table`,
so column alignment and ``--``-for-missing conventions are uniform across
``run``, ``sweep``, ``compare``, ``serve``, and friends.  :func:`write_result`
persists a rendered report atomically next to the machine-readable
documents.  This module is deliberately schema-free: the versioned JSON
artifacts (``repro.trace/1``, ``repro.profile/1``, ``repro.whatif/1``,
``repro.service/1``) are produced by their owning subsystems; what lands
here is already formatted text.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from repro.atomicio import atomic_write_text

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "results"),
)


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """A fixed-width ASCII table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(name: str, points: Sequence, unit: str = "",
                  width: int = 50) -> str:
    """A labelled series with a text sparkline (for time-series figures)."""
    values = [float(v) for _x, v in points]
    top = max(values) if values else 0.0
    blocks = " .:-=+*#%@"
    chars = []
    for value in values:
        level = 0 if top == 0 else int(round(value / top * (len(blocks) - 1)))
        chars.append(blocks[level])
    summary = (
        f"min={min(values):.3g} max={max(values):.3g} "
        f"mean={sum(values) / len(values):.3g}{unit}"
        if values
        else "empty"
    )
    return f"{name}: |{''.join(chars[:width])}| {summary}"


def format_change(reduction: float) -> str:
    """A runtime reduction (``1 - runtime / baseline``) as a signed change
    against the baseline: ``0.522`` -> ``-52.2%`` (faster), ``-0.032`` ->
    ``+3.2%`` (slower)."""
    return f"{-reduction * 100:+.1f}%"


def write_result(name: str, content: str,
                 directory: Optional[str] = None) -> str:
    """Persist a rendered experiment result under ``results/``."""
    directory = directory or RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    atomic_write_text(path, content.rstrip() + "\n")
    return path


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3g}"
    return str(cell)
