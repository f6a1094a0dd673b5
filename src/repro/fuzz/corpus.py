"""The checked-in fuzzing corpus: findings frozen as regression tests.

A corpus case is one JSON file under ``tests/fuzz/corpus/`` recording
either a *program* case (a MiniC body that every differential oracle
must keep passing) or a *mutation* case (a program + one mutation site
that ConfVerify must keep killing, with the expected rejection
reasons).  Replay is fully deterministic — no random generation — so
the corpus doubles as the tier-1 regression net for the fuzzing
subsystem: ``python -m repro fuzz --engine corpus --corpus DIR``.

Cases are produced two ways: seeded from a long fuzzing run (see
docs/FUZZING.md) and frozen by hand from minimized findings.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from ..config import ALL_CONFIGS
from ..errors import ReproError, VerifyError
from ..obs import events
from ..runtime.trusted import T_PROTOTYPES
from ..verifier.verify import verify_binary
from .harness import Finding, FuzzReport, check_program
from .mutate import build_mutant


@dataclass
class CorpusCase:
    """One frozen regression case."""

    name: str
    engine: str  # "program" | "mutation"
    source: str  # body-only MiniC (T prototypes are prepended on build)
    config: str | None = None  # build config name for mutation cases
    operator: str | None = None  # mutation operator name
    site: int | None = None  # site index within that operator
    expected: tuple[str, ...] = ()  # acceptable VerifyError reasons
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusCase":
        data = dict(data)
        data["expected"] = tuple(data.get("expected") or ())
        return cls(**data)


def save_case(case: CorpusCase, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{case.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_corpus(directory: str) -> list[CorpusCase]:
    if not os.path.isdir(directory):
        raise ReproError(f"no corpus directory at {directory}")
    cases = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as fh:
            cases.append(CorpusCase.from_dict(json.load(fh)))
    return cases


def _compile_case(case: CorpusCase):
    from ..compiler import compile_source

    config = ALL_CONFIGS.get(case.config or "")
    if config is None:
        raise ReproError(
            f"corpus case {case.name}: unknown config {case.config!r}"
        )
    return compile_source(T_PROTOTYPES + case.source, config)


def replay_case(case: CorpusCase) -> list[Finding]:
    """Re-run one corpus case; [] means it still passes."""
    findings: list[Finding] = []
    if case.engine == "program":
        for kind, detail in check_program(case.source):
            findings.append(
                Finding(
                    engine="corpus",
                    kind=kind,
                    detail=f"{case.name}: {detail}",
                    source=case.source,
                )
            )
        return findings
    if case.engine != "mutation":
        raise ReproError(
            f"corpus case {case.name}: unknown engine {case.engine!r}"
        )
    binary = _compile_case(case)
    try:
        verify_binary(binary)
    except VerifyError as err:
        return [
            Finding(
                engine="corpus",
                kind="corpus-stale",
                detail=f"{case.name}: unmutated build no longer verifies "
                f"({err.reason}) — regenerate this case",
                config=case.config,
                source=case.source,
            )
        ]
    try:
        mutant = build_mutant(binary, case.operator, case.site or 0)
    except ValueError as err:
        return [
            Finding(
                engine="corpus",
                kind="corpus-stale",
                detail=f"{case.name}: mutation site vanished ({err}) — "
                "regenerate this case",
                config=case.config,
                operator=case.operator,
                site=case.site,
                source=case.source,
            )
        ]
    try:
        verify_binary(mutant.binary)
    except VerifyError as err:
        if case.expected and err.reason not in case.expected:
            findings.append(
                Finding(
                    engine="corpus",
                    kind="kill-misattributed",
                    detail=f"{case.name}: killed for {err.reason!r}, "
                    f"expected one of {case.expected}",
                    config=case.config,
                    operator=case.operator,
                    site=case.site,
                    expected=case.expected,
                    source=case.source,
                )
            )
        return findings
    findings.append(
        Finding(
            engine="corpus",
            kind="mutant-survived",
            detail=f"{case.name}: {case.operator} @{case.site} now "
            "survives ConfVerify — a soundness regression",
            config=case.config,
            operator=case.operator,
            site=case.site,
            expected=case.expected,
            source=case.source,
        )
    )
    return findings


def replay_corpus(directory: str) -> FuzzReport:
    """Replay every case in a corpus directory as one report."""
    report = FuzzReport(engine="corpus", seed=0)
    for case in load_corpus(directory):
        events.counter("fuzz.corpus", engine=case.engine).inc()
        report.iterations += 1
        case_findings = replay_case(case)
        if case.engine == "mutation":
            report.mutants_total += 1
            survived = any(
                f.kind == "mutant-survived" for f in case_findings
            )
            if not survived and not any(
                f.kind == "corpus-stale" for f in case_findings
            ):
                report.mutants_killed += 1
            report.kills_misattributed += sum(
                1 for f in case_findings if f.kind == "kill-misattributed"
            )
        report.findings.extend(case_findings)
    return report


def seed_corpus(
    directory: str,
    seeds: tuple[int, ...] = tuple(range(6)),
    size: int = 12,
    per_operator: int = 2,
) -> list[CorpusCase]:
    """Freeze a deterministic corpus from generated programs.

    Picks up to ``per_operator`` mutation sites for every operator
    (across both verified configs), plus one program case per seed,
    verifying at freeze time that each mutant is killed with one of its
    expected reasons.  Used once to seed ``tests/fuzz/corpus/``; kept
    in-tree so the corpus can be regenerated after codegen changes.
    """
    from ..compiler import compile_source
    from ..config import OUR_MPX, OUR_SEG
    from .gen import generate_source
    from .harness import _strip_prototypes
    from .mutate import enumerate_sites

    cases: list[CorpusCase] = []
    picked: dict[tuple[str, str], int] = {}
    for seed in seeds:
        body = _strip_prototypes(generate_source(seed, size))
        cases.append(
            CorpusCase(
                name=f"program-seed{seed:03d}",
                engine="program",
                source=body,
                note=f"generate_source(seed={seed}, size={size})",
            )
        )
        for config in (OUR_MPX, OUR_SEG):
            binary = compile_source(T_PROTOTYPES + body, config)
            verify_binary(binary)
            for site in enumerate_sites(binary):
                key = (config.name, site.operator)
                if picked.get(key, 0) >= per_operator:
                    continue
                mutant = build_mutant(binary, site.operator, site.index)
                try:
                    verify_binary(mutant.binary)
                except VerifyError as err:
                    if err.reason not in site.expected:
                        continue  # only freeze cleanly-attributed kills
                else:
                    continue  # never freeze a survivor as a regression
                picked[key] = picked.get(key, 0) + 1
                slug = site.operator.replace("_", "-")
                cases.append(
                    CorpusCase(
                        name=f"mutation-{config.name.lower()}-{slug}-"
                        f"s{seed:03d}i{site.index:03d}",
                        engine="mutation",
                        source=body,
                        config=config.name,
                        operator=site.operator,
                        site=site.index,
                        expected=site.expected,
                        note=site.description,
                    )
                )
    for case in cases:
        save_case(case, directory)
    return cases
