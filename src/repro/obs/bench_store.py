"""Schema-versioned benchmark trajectory files and exact diffing.

``bench --json --store FILE`` appends one *record* per run to a
``BENCH_*.json`` trajectory file; ``bench diff OLD NEW`` compares the
latest record of two trajectories (or single-record files) and exits
nonzero on any change, so cycle and check claims are enforced by
``scripts/smoke.sh`` instead of asserted in prose.

File format (``schema`` 1)::

    {"schema": 1, "kind": "bench-trajectory", "records": [record, ...]}

Each record::

    {"schema": 1, "name": "quickstart", "seed": 1,
     "benchmarks": [
        {"name": "quickstart/Base", "config": "Base", "cycles": 12345,
         "instructions": 6789, "checks": {"bnd": 0, ...}},
        ...]}

Every number in a record (simulated ``cycles``, retired
``instructions``, dynamic ``checks`` counts) is fixed by the source,
the configuration and the seed, so the gate is exact: a difference in
either direction fails until the seed is regenerated.  Keys a record
or entry carries besides these (older files stored ``engine``,
``cache`` and ``wall_time_s``) are ignored.

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


def make_record(name: str, seed: int | None, benchmarks: list[dict]) -> dict:
    """Assemble one schema-versioned trajectory record."""
    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "benchmarks": list(benchmarks),
    }


def make_benchmark(
    name: str, config: str, cycles: int, instructions: int, checks: dict
) -> dict:
    """One per-benchmark entry of a record."""
    return {
        "name": name,
        "config": config,
        "cycles": cycles,
        "instructions": instructions,
        "checks": dict(checks),
    }


def _numbers(entry: dict) -> dict:
    """The compared numbers of one entry: ``cycles``, ``instructions``
    and one ``checks.<kind>`` per check count (missing ones read 0)."""
    numbers = {
        "cycles": entry.get("cycles", 0),
        "instructions": entry.get("instructions", 0),
    }
    for kind, count in entry.get("checks", {}).items():
        numbers[f"checks.{kind}"] = count
    return numbers


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
        checks = entry.get("checks", {})
        if not isinstance(checks, dict):
            raise ReproError(
                f"{where}: {entry['name']}: checks {checks!r} "
                "is not an object"
            )
        for metric, value in _numbers(entry).items():
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
    """One changed number of one benchmark."""

    benchmark: str
    metric: str
    old: float
    new: float

    @property
    def delta_pct(self) -> float:
        if not self.old:
            return 0.0 if not self.new else float("inf")
        return 100.0 * (self.new - self.old) / self.old


@dataclass
class DiffResult:
    changes: list[DiffRow] = field(default_factory=list)
    compared: int = 0
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.changes and not self.only_old


def diff_records(old: dict, new: dict) -> DiffResult:
    """Compare two records benchmark-by-benchmark.

    Every number must be equal: a change in either direction is
    reported.  A benchmark present only in the old record was dropped
    and fails the diff like a change; one present only in the new
    record is listed but does not gate (a trajectory may grow).
    """
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
        before = _numbers(old_by_name[name])
        after = _numbers(new_by_name[name])
        for metric in sorted(set(before) | set(after)):
            o, n = before.get(metric, 0), after.get(metric, 0)
            result.compared += 1
            if o != n:
                result.changes.append(DiffRow(name, metric, o, n))
    return result


def render_diff(result: DiffResult) -> str:
    """Human-readable diff summary: each change, then the totals."""
    lines = [
        f"{'CHANGED':>8}  {row.benchmark:<28} {row.metric:<14} "
        f"{row.old:>14,} -> {row.new:>14,}  {row.delta_pct:+.2f}%"
        for row in result.changes
    ]
    for name in result.only_old:
        lines.append(f"{'dropped':>8}  {name}")
    for name in result.only_new:
        lines.append(f"{'new':>8}  {name}")
    lines.append(
        f"bench diff: {len(result.changes)} of {result.compared} "
        "compared number(s) changed"
    )
    return "\n".join(lines)
