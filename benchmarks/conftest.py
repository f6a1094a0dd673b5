"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 7).  Measurements are *simulated cycles* from the
machine model — wall-clock numbers reported by pytest-benchmark time
the simulation itself and are not the experiment's metric.  Each module
prints the paper-shaped table and asserts the qualitative shape (who
wins, roughly by how much, where the crossovers are).
"""

from __future__ import annotations

import os

import pytest


def pytest_collection_modifyitems(config, items):
    # Everything under benchmarks/ is a paper-evaluation suite: mark it
    # so tier-1 runs can deselect with `-m "not benchmarks"`.
    for item in items:
        item.add_marker(pytest.mark.benchmarks)
    # High-volume serving sweeps (>=1e5 requests) only run when asked
    # for explicitly, mirroring the tests/fuzz gating.
    if "load" in (config.option.markexpr or ""):
        return
    skip_load = pytest.mark.skip(
        reason="high-volume load sweep; select with -m load"
    )
    for item in items:
        if "load" in item.keywords:
            item.add_marker(skip_load)


@pytest.fixture(scope="session", autouse=True)
def build_session(tmp_path_factory):
    """One cached build session for the whole benchmark run.

    Many benchmark modules compile the same kernel under several
    configurations (and some recompile identical sources across
    modules); routing every compile through a shared object cache makes
    reruns and overlaps skip the compiler entirely, without changing a
    single binary (cached builds are byte-identical by contract).

    ``$REPRO_CACHE_DIR`` persists the cache across benchmark runs —
    a warm Fig. 5 rerun then does a small fraction of the compile
    work; otherwise a throwaway per-run directory is used.
    """
    from repro.build import BuildSession, ObjectCache, use_session

    cache_dir = os.environ.get("REPRO_CACHE_DIR") or str(
        tmp_path_factory.mktemp("object-cache")
    )
    with use_session(BuildSession(cache=ObjectCache(cache_dir))) as session:
        yield session


def overhead_pct(base: float, ours: float) -> float:
    """Percent overhead of `ours` relative to `base` (positive=slower)."""
    if not base:
        return 0.0
    return 100.0 * (ours - base) / base


def fmt_pct(value: float) -> str:
    return f"{value:+6.1f}%"


class Table:
    """Tiny fixed-width table printer for benchmark reports."""

    def __init__(self, title: str, columns: list[str]):
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []

    def add(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(col), *(len(r[i]) for r in self.rows)) if self.rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [f"\n=== {self.title} ==="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())


@pytest.fixture
def table():
    return Table
