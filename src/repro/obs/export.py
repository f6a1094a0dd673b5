"""Renderers: metrics as JSON or aligned human-readable tables.

The table renderers are the single output path for every CLI report
(``--stats``, ``--metrics``, the ``bench``/``report``/``serve``
tables, the profiler dump), so counters are never printed twice in two
formats.
"""

from __future__ import annotations

import json

from .events import CYCLES, Registry
from .trace import to_chrome_trace, write_chrome_trace  # noqa: F401 (re-export)

__all__ = [
    "cycle_span_signature",
    "metrics_to_json",
    "render_table",
    "render_kv_table",
    "render_metrics_table",
    "to_chrome_trace",
    "write_chrome_trace",
]


def cycle_span_signature(registry: Registry) -> list[tuple]:
    """Canonical tuples for every simulated-cycle span in the registry.

    The cycle-clock spans (and their args) are the engine-independent
    part of a trace: two runs of the same binary must produce identical
    signatures whichever execution engine ran them, which is what the
    engine-equivalence suite pins.  Wall-clock spans are excluded —
    host timing differs between engines by design.
    """
    return [
        (
            span.name,
            span.ts,
            span.dur,
            span.tid,
            tuple(sorted(span.args.items())),
        )
        for span in registry.spans
        if span.clock == CYCLES
    ]


def metrics_to_json(registry: Registry) -> str:
    """Deterministic JSON dump of the registry's metrics."""
    return json.dumps(registry.metrics_snapshot(), indent=2, sort_keys=True)


def render_table(
    headers: list[str], rows: list[list], title: str | None = None
) -> str:
    """Render an aligned fixed-width table (first column left-aligned,
    the rest right-aligned)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]

    def fmt(row: list[str]) -> str:
        out = [row[0].ljust(widths[0])]
        out += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        return "  ".join(out).rstrip()

    lines = []
    if title:
        lines.append(f"=== {title} ===")
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def _fmt_value(value) -> str:
    if isinstance(value, dict):  # histogram summary
        return (
            f"n={value['count']} total={value['total']} "
            f"min={value['min']} max={value['max']}"
        )
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_kv_table(rows: list[tuple], title: str | None = None) -> str:
    """Render (key, value) pairs through :func:`render_table`."""
    return render_table(
        ["metric", "value"],
        [[key, _fmt_value(value)] for key, value in rows],
        title=title,
    )


def render_metrics_table(registry: Registry, title: str = "metrics") -> str:
    """Render every metric in the registry, deterministically ordered."""
    snapshot = registry.metrics_snapshot()
    return render_kv_table(list(snapshot.items()), title=title)
