"""Schema-versioned benchmark trajectory files and regression diffing.

``bench --json --store FILE`` appends one *record* per run to a
``BENCH_*.json`` trajectory file; ``bench diff OLD NEW`` compares the
latest record of two trajectories (or single-record files) with
per-metric tolerance thresholds and exits nonzero on regression, so
speed claims are enforced by ``scripts/smoke.sh`` instead of asserted
in prose.

File format (``schema`` 1)::

    {"schema": 1, "kind": "bench-trajectory", "records": [record, ...]}

Each record::

    {"schema": 1, "name": "quickstart", "seed": 1,
     "engine": "predecoded", "cache": "off",
     "benchmarks": [
        {"name": "quickstart/Base", "config": "Base", "cycles": 12345,
         "instructions": 6789, "checks": {"bnd": 0, ...},
         "wall_time_s": 0.04},
        ...]}

Simulated ``cycles``/``instructions``/``checks`` are deterministic and
gated; ``wall_time_s`` is host timing, recorded for trend-watching and
only gated when an explicit tolerance is supplied.

This module is deliberately free of compiler imports (pure data), so
``repro.obs`` can re-export it without import cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import ReproError

SCHEMA_VERSION = 1
KIND = "bench-trajectory"

#: Default relative tolerances per gated metric.  ``None`` means the
#: metric is informational (reported, never gated).
DEFAULT_TOLERANCES = {
    "cycles": 0.02,
    "instructions": 0.02,
    "wall_time_s": None,
}

#: The per-benchmark metrics ``diff_records`` compares.
METRICS = tuple(DEFAULT_TOLERANCES)


def make_record(
    name: str,
    seed: int | None,
    engine: str,
    cache: str,
    benchmarks: list[dict],
) -> dict:
    """Assemble one schema-versioned trajectory record."""
    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "engine": engine,
        "cache": cache,
        "benchmarks": list(benchmarks),
    }


def make_benchmark(
    name: str,
    config: str,
    cycles: int,
    instructions: int,
    checks: dict,
    wall_time_s: float,
) -> dict:
    """One per-benchmark entry of a record."""
    return {
        "name": name,
        "config": config,
        "cycles": cycles,
        "instructions": instructions,
        "checks": dict(checks),
        "wall_time_s": round(wall_time_s, 6),
    }


def load_trajectory(path: str) -> dict:
    """Read a trajectory file; friendly :class:`ReproError` on corrupt
    or wrong-kind input, down to each record's benchmark entries
    (missing files surface as ``OSError``, which the CLI renders the
    same way)."""
    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(doc, dict) or doc.get("kind") != KIND:
        raise ReproError(
            f"{path}: not a bench trajectory file "
            f"(expected kind={KIND!r})"
        )
    if doc.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported trajectory schema {doc.get('schema')!r} "
            f"(this toolchain writes v{SCHEMA_VERSION})"
        )
    if not isinstance(doc.get("records"), list):
        raise ReproError(f"{path}: trajectory has no records list")
    for index, record in enumerate(doc["records"]):
        _check_record(path, index, record)
    return doc


def _check_record(path: str, index: int, record) -> None:
    """Reject a record ``diff_records`` could not compare."""
    if not isinstance(record, dict):
        raise ReproError(f"{path}: record {index} is not an object")
    where = f"{path}: record {index} ({record.get('name')!r})"
    benchmarks = record.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        raise ReproError(f"{where}: benchmarks is not a list")
    for entry in benchmarks:
        if not isinstance(entry, dict) or not isinstance(
            entry.get("name"), str
        ):
            raise ReproError(f"{where}: benchmark {entry!r} has no name")
        for metric in METRICS:
            value = entry.get(metric, 0)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ReproError(
                    f"{where}: {entry['name']}: {metric} {value!r} "
                    "is not a number"
                )


def append_record(path: str, record: dict) -> int:
    """Append ``record`` to the trajectory at ``path`` (created on
    first use); returns the total record count."""
    if os.path.exists(path):
        doc = load_trajectory(path)
    else:
        doc = {"schema": SCHEMA_VERSION, "kind": KIND, "records": []}
    doc["records"].append(record)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(doc["records"])


def latest_record(path: str, name: str | None = None) -> dict:
    """The newest record in a trajectory (optionally filtered by suite
    name)."""
    doc = load_trajectory(path)
    records = doc["records"]
    if name is not None:
        records = [r for r in records if r.get("name") == name]
    if not records:
        raise ReproError(
            f"{path}: no matching records"
            + (f" for suite {name!r}" if name else "")
        )
    return records[-1]


# ---------------------------------------------------------------------------
# Diffing.


@dataclass
class DiffRow:
    """One compared metric of one benchmark."""

    benchmark: str
    metric: str
    old: float
    new: float
    tolerance: float | None
    regressed: bool

    @property
    def delta_pct(self) -> float:
        if not self.old:
            return 0.0 if not self.new else float("inf")
        return 100.0 * (self.new - self.old) / self.old


@dataclass
class DiffResult:
    rows: list[DiffRow] = field(default_factory=list)
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_records(
    old: dict, new: dict, tolerances: dict | None = None
) -> DiffResult:
    """Compare two records benchmark-by-benchmark.

    A metric *regresses* when ``new > old * (1 + tolerance)``;
    improvements never fail the gate.  Benchmarks present in only one
    record are reported but do not gate (a trajectory may grow).
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    old_by_name = {b["name"]: b for b in old.get("benchmarks", [])}
    new_by_name = {b["name"]: b for b in new.get("benchmarks", [])}
    result = DiffResult(
        only_old=sorted(set(old_by_name) - set(new_by_name)),
        only_new=sorted(set(new_by_name) - set(old_by_name)),
    )
    shared = sorted(set(old_by_name) & set(new_by_name))
    if not shared and (old_by_name or new_by_name):
        raise ReproError(
            "bench diff: the two records share no benchmark names "
            f"({old.get('name')!r} vs {new.get('name')!r})"
        )
    for name in shared:
        before, after = old_by_name[name], new_by_name[name]
        for metric in METRICS:
            if metric not in before or metric not in after:
                continue
            tol = tols.get(metric)
            o, n = before[metric], after[metric]
            regressed = tol is not None and n > o * (1.0 + tol)
            result.rows.append(
                DiffRow(
                    benchmark=name,
                    metric=metric,
                    old=o,
                    new=n,
                    tolerance=tol,
                    regressed=regressed,
                )
            )
    return result


def render_diff(result: DiffResult) -> str:
    """Human-readable diff summary (regressions first)."""
    lines = []
    for row in sorted(
        result.rows, key=lambda r: (not r.regressed, r.benchmark, r.metric)
    ):
        if row.metric == "wall_time_s" and not row.regressed:
            continue  # host-timing noise: only show when gated+failing
        mark = "REGRESSION" if row.regressed else "ok"
        tol = (
            f" (tol {row.tolerance:.1%})" if row.tolerance is not None else ""
        )
        lines.append(
            f"{mark:>10}  {row.benchmark:<28} {row.metric:<12} "
            f"{row.old:>14,.6g} -> {row.new:>14,.6g}  "
            f"{row.delta_pct:+.2f}%{tol}"
        )
    for name in result.only_old:
        lines.append(f"{'dropped':>10}  {name}")
    for name in result.only_new:
        lines.append(f"{'new':>10}  {name}")
    n_reg = len(result.regressions)
    lines.append(
        f"bench diff: {n_reg} regression(s) across "
        f"{len({r.benchmark for r in result.rows})} shared benchmark(s)"
    )
    return "\n".join(lines)
