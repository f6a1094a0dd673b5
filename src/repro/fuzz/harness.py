"""The seeded fuzzing harness: program differentials and mutation kills.

Three engines share this module:

* :func:`fuzz_programs` generates well-typed MiniC programs and checks
  every cross-cutting equivalence the toolchain promises — Base, OurMPX
  and OurSeg builds observe identically; the predecoded and reference
  machine engines agree cycle-for-cycle; cold and warm object-cache
  builds are byte-identical; ConfVerify accepts every instrumented
  build.
* :func:`fuzz_mutants` compiles each generated program under both
  instrumented schemes, applies every security-relevant mutation
  (:mod:`repro.fuzz.mutate`) and asserts ConfVerify kills 100% of the
  mutants.  A surviving mutant is a verifier soundness bug; the harness
  shrinks its program with :func:`repro.fuzz.minimize.ddmin_lines` and
  reports the minimized repro.
* :func:`fuzz_witnesses` runs the certified optimization passes (IR
  passes and the post-codegen check optimizer) over each generated
  program (and the check optimizer over one SPEC kernel where it
  elides), then corrupts every emitted witness — dropped or phantom
  obligations, flipped taints, garbled or truncated claims, shifted,
  truncated or self-referential edit scripts — and asserts the
  translation checkers (:func:`repro.opt.witness.check_witness`,
  :func:`repro.opt.checkopt.check_checkopt_witness`) reject 100% of the
  corruptions.  An accepted corruption is a checker soundness bug.

Everything is reproducible from ``(seed, n, size)`` alone: program i
uses generator seed ``seed + i``, builds are deterministic, and the
trusted runtime is seeded.  ``budget`` (wall-clock seconds) can stop a
run early; a truncated run checks a prefix of the same case sequence.

Findings carry body-only MiniC source (without the T prototypes); every
compile path here re-prepends :data:`repro.runtime.trusted.T_PROTOTYPES`.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from ..build.cache import ObjectCache
from ..build.serialize import dump_binary
from ..build.session import BuildSession
from ..compiler import compile_source
from ..config import BASE, OUR_MPX, OUR_SEG
from ..errors import MachineFault, ReproError, VerifyError
from ..link.loader import load as load_binary
from ..machine.cpu import ENGINES
from ..obs import events
from ..runtime.trusted import T_PROTOTYPES, TrustedRuntime
from ..verifier.verify import verify_binary
from .gen import DEFAULT_SIZE, generate_source
from .minimize import ddmin_lines
from .mutate import apply_site, enumerate_sites

DIFF_CONFIGS = (BASE, OUR_MPX, OUR_SEG)
VERIFIED_CONFIGS = (OUR_MPX, OUR_SEG)
#: The SPEC kernel whose OurMPX build gives the witness engine's check
#: optimizer elisions and lea dedups to corrupt.
CHECKOPT_KERNEL = "libquantum"

# The keys of an execution observation that must agree across *build
# configurations* (instrumentation may change cycle counts, never
# behaviour) — and, plus the performance keys, across machine engines.
_OBSERVABLE = ("exit", "fault", "stdout", "out")
_PERF = ("cycles", "instructions", "bnd_checks", "cfi_checks")


@dataclass
class Finding:
    """One reproducible failure the harness uncovered."""

    engine: str  # "program" | "mutation" | "corpus" | "witness"
    kind: str  # e.g. "config-divergence", "mutant-survived"
    detail: str
    seed: int | None = None
    config: str | None = None
    source: str | None = None  # minimized body-only MiniC repro
    operator: str | None = None
    site: int | None = None
    expected: tuple[str, ...] = ()

    def render(self) -> str:
        head = f"[{self.engine}] {self.kind}: {self.detail}"
        if self.seed is not None:
            head += f" (seed {self.seed})"
        if self.source:
            head += "\n--- minimized repro ---\n" + self.source.rstrip()
        return head


@dataclass
class FuzzReport:
    """The outcome of one harness run (one engine)."""

    engine: str
    seed: int
    iterations: int = 0
    mutants_total: int = 0
    mutants_killed: int = 0
    kills_misattributed: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def kill_score(self) -> float:
        if self.mutants_total == 0:
            return 1.0
        return self.mutants_killed / self.mutants_total

    def summary(self) -> str:
        lines = [
            f"fuzz.{self.engine}: seed={self.seed} "
            f"iterations={self.iterations} findings={len(self.findings)}"
        ]
        if self.engine in ("mutation", "corpus", "witness") \
                and self.mutants_total:
            lines.append(
                f"  mutation-kill: {self.mutants_killed}/"
                f"{self.mutants_total} ({self.kill_score:.1%}), "
                f"{self.kills_misattributed} kills misattributed"
            )
        return "\n".join(lines)


def _strip_prototypes(source: str) -> str:
    if source.startswith(T_PROTOTYPES):
        return source[len(T_PROTOTYPES):]
    return source


def _observe(binary, engine: str = "predecoded") -> dict:
    """Run a binary to completion and capture everything comparable."""
    runtime = TrustedRuntime()
    process = load_binary(binary, runtime=runtime, engine=engine)
    fault = None
    exit_code = None
    try:
        exit_code = process.run()
    except MachineFault as f:
        fault = f.kind
    return {
        "exit": exit_code,
        "fault": fault,
        "stdout": tuple(process.stdout),
        "out": runtime.channel(1).drain_out().hex(),
        "cycles": process.wall_cycles,
        "instructions": process.stats.instructions,
        "bnd_checks": process.stats.bnd_checks,
        "cfi_checks": process.stats.cfi_checks,
    }


def _project(obs: dict, keys: tuple[str, ...]) -> dict:
    return {k: obs[k] for k in keys}


def check_program(body: str) -> list[tuple[str, str]]:
    """All differential checks for one program; [(kind, detail)].

    Raises on malformed input (the caller decides whether a compile
    error is a finding or a rejected minimization candidate).
    """
    source = T_PROTOTYPES + body
    problems: list[tuple[str, str]] = []
    binaries = {}
    for config in DIFF_CONFIGS:
        binaries[config.name] = compile_source(source, config)
    for config in VERIFIED_CONFIGS:
        try:
            verify_binary(binaries[config.name])
        except VerifyError as err:
            problems.append(
                (
                    "verify-reject",
                    f"{config.name}: ConfVerify rejected the instrumented "
                    f"build: {err.reason}",
                )
            )
    base_obs = _observe(binaries[BASE.name])
    for config in VERIFIED_CONFIGS:
        obs = _observe(binaries[config.name])
        if _project(obs, _OBSERVABLE) != _project(base_obs, _OBSERVABLE):
            problems.append(
                (
                    "config-divergence",
                    f"{config.name} observes differently from Base: "
                    f"{_project(obs, _OBSERVABLE)} vs "
                    f"{_project(base_obs, _OBSERVABLE)}",
                )
            )
    for config in DIFF_CONFIGS:
        ref = _observe(binaries[config.name], engine="reference")
        for engine in ENGINES:
            if engine == "reference":
                continue
            fast = _observe(binaries[config.name], engine=engine)
            if fast != ref:
                keys = _OBSERVABLE + _PERF
                problems.append(
                    (
                        "engine-divergence",
                        f"{config.name}: {engine} vs reference disagree: "
                        f"{_project(fast, keys)} vs {_project(ref, keys)}",
                    )
                )
    for config in VERIFIED_CONFIGS:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
            cold = BuildSession(cache=ObjectCache(tmp)).build(source, config)
            warm = BuildSession(cache=ObjectCache(tmp)).build(source, config)
        plain = binaries[config.name]
        if not (
            dump_binary(cold) == dump_binary(warm) == dump_binary(plain)
        ):
            problems.append(
                (
                    "cache-divergence",
                    f"{config.name}: cold/warm/uncached builds are not "
                    "byte-identical",
                )
            )
    return problems


def _kinds_of(body: str) -> set[str]:
    """check_program kinds, with errors mapped to a synthetic kind so
    minimization predicates treat broken candidates as 'not failing'."""
    try:
        return {kind for kind, _ in check_program(body)}
    except Exception:
        return set()


def _minimize_program(body: str, kind: str) -> str:
    return ddmin_lines(body, lambda cand: kind in _kinds_of(cand))


def fuzz_programs(
    seed: int,
    n: int,
    size: int = DEFAULT_SIZE,
    minimize: bool = True,
    deadline: float | None = None,
) -> FuzzReport:
    """Differential-fuzz ``n`` generated programs; see the module doc."""
    report = FuzzReport(engine="program", seed=seed)
    for i in range(n):
        if deadline is not None and time.monotonic() > deadline:
            break
        case_seed = seed + i
        body = _strip_prototypes(generate_source(case_seed, size))
        events.counter("fuzz.programs").inc()
        report.iterations += 1
        for kind, detail in check_program(body):
            events.counter("fuzz.findings", kind=kind).inc()
            repro = _minimize_program(body, kind) if minimize else body
            report.findings.append(
                Finding(
                    engine="program",
                    kind=kind,
                    detail=detail,
                    seed=case_seed,
                    source=repro,
                )
            )
    return report


def _operator_survives(body: str, config, operator: str) -> bool:
    """Does some mutant of this operator survive verification on this
    program?  The minimization predicate for surviving mutants."""
    try:
        binary = compile_source(T_PROTOTYPES + body, config)
        verify_binary(binary)
    except Exception:
        return False
    for site in enumerate_sites(binary):
        if site.operator != operator:
            continue
        mutant = apply_site(binary, site)
        try:
            verify_binary(mutant.binary)
            return True
        except VerifyError:
            continue
    return False


def fuzz_mutants(
    seed: int,
    n: int,
    size: int = DEFAULT_SIZE,
    minimize: bool = True,
    deadline: float | None = None,
    stride: int = 1,
) -> FuzzReport:
    """Mutation-kill run over ``n`` generated programs × both verified
    configs × every mutation site; see the module doc.

    ``stride`` > 1 keeps every stride-th mutation site — a
    deterministic subsample for time-boxed runs (the kill assertion
    still covers every operator, since sites are grouped by operator
    and each common operator has many sites per binary).
    """
    report = FuzzReport(engine="mutation", seed=seed)
    for i in range(n):
        if deadline is not None and time.monotonic() > deadline:
            break
        case_seed = seed + i
        body = _strip_prototypes(generate_source(case_seed, size))
        report.iterations += 1
        for config in VERIFIED_CONFIGS:
            binary = compile_source(T_PROTOTYPES + body, config)
            try:
                verify_binary(binary)
            except VerifyError as err:
                # Not a mutation finding per se, but fatal: the
                # unmutated build must verify for kills to mean much.
                report.findings.append(
                    Finding(
                        engine="mutation",
                        kind="verify-reject",
                        detail=f"{config.name}: unmutated build rejected: "
                        f"{err.reason}",
                        seed=case_seed,
                        config=config.name,
                        source=body,
                    )
                )
                continue
            for site in enumerate_sites(binary)[::stride]:
                if deadline is not None and time.monotonic() > deadline:
                    break
                report.mutants_total += 1
                events.counter(
                    "fuzz.mutants", operator=site.operator
                ).inc()
                mutant = apply_site(binary, site)
                try:
                    verify_binary(mutant.binary)
                except VerifyError as err:
                    report.mutants_killed += 1
                    if err.reason in site.expected:
                        events.counter(
                            "fuzz.kills", outcome="expected"
                        ).inc()
                    else:
                        report.kills_misattributed += 1
                        events.counter(
                            "fuzz.kills", outcome="misattributed"
                        ).inc()
                    continue
                events.counter("fuzz.kills", outcome="survived").inc()
                repro = (
                    ddmin_lines(
                        body,
                        lambda cand: _operator_survives(
                            cand, config, site.operator
                        ),
                    )
                    if minimize
                    else body
                )
                report.findings.append(
                    Finding(
                        engine="mutation",
                        kind="mutant-survived",
                        detail=(
                            f"{config.name}: {site.operator} @{site.index} "
                            f"survived ConfVerify ({site.description})"
                        ),
                        seed=case_seed,
                        config=config.name,
                        source=repro,
                        operator=site.operator,
                        site=site.index,
                        expected=site.expected,
                    )
                )
    return report



# ---------------------------------------------------------------------------
# The witness engine: corrupted certification artifacts must be rejected.


def _corrupt_ir_witnesses(witness):
    """Yield ``(operator, corrupted)`` variants of an IR pass witness.

    Every variant is wrong by construction, so the checker accepting
    one is a soundness finding.  Obligations are shared (they are
    frozen); only the witness shell and the obligation list are copied.
    """
    from ..opt.witness import Obligation, Witness

    def clone(obligations=None):
        if obligations is None:
            obligations = list(witness.obligations)
        return Witness(
            witness.pass_name, witness.function, witness.origin, obligations
        )

    if witness.obligations:
        yield "drop-obligations", clone(obligations=[])
        first = witness.obligations[0]
        truncated = clone()
        truncated.obligations[0] = Obligation(
            first.kind, first.site, first.claim[:-1]
        )
        yield "truncate-claim", truncated
    phantom = clone()
    phantom.obligations.append(
        Obligation("taint", "__phantom__@0", ("rewrite", (), ()))
    )
    yield "phantom-obligation", phantom
    for i, ob in enumerate(witness.obligations):
        if ob.claim[:1] == ("rewrite",) and ob.claim[2]:
            flipped = clone()
            flipped.obligations[i] = Obligation(
                ob.kind,
                ob.site,
                (ob.claim[0], ob.claim[1], tuple(t ^ 1 for t in ob.claim[2])),
            )
            yield "taint-flip", flipped
            break
        if ob.claim[:1] == ("promoted",):
            flipped = clone()
            flipped.obligations[i] = Obligation(
                ob.kind, ob.site, (ob.claim[0], ob.claim[1], ob.claim[2] ^ 1)
            )
            yield "taint-flip", flipped
            break
    for i, ob in enumerate(witness.obligations):
        if ob.site.startswith("slot:") or ob.site.endswith("@init"):
            continue  # claim shape is keyed by site kind for these
        garbled = clone()
        garbled.obligations[i] = Obligation(
            ob.kind, ob.site, ("bogus-claim",)
        )
        yield "garble-claim", garbled
        break


def _corrupt_checkopt_witnesses(witness):
    """Yield ``(operator, corrupted)`` variants of a checkopt witness."""
    from ..opt.checkopt import CheckOptWitness

    def clone(edits=None):
        if edits is None:
            edits = list(witness.edits)
        return CheckOptWitness(witness.function, edits)

    yield "drop-edit", clone(edits=witness.edits[1:])
    first = witness.edits[0]
    shifted = clone()
    shifted.edits[0] = (first[0], first[1] + 1, *first[2:])
    yield "shift-edit", shifted
    truncated = clone()
    truncated.edits[0] = first[:-1]
    yield "truncate-edit", truncated
    for i, edit in enumerate(witness.edits):
        if edit[0] in ("elide", "dedup-lea"):
            selfref = clone()
            selfref.edits[i] = (edit[0], edit[1], edit[1])
            yield "self-provider", selfref
            doubled = clone()
            doubled.edits.append(edit)
            yield "double-delete", doubled
            break


def fuzz_witnesses(
    seed: int,
    n: int,
    size: int = DEFAULT_SIZE,
    deadline: float | None = None,
    stride: int = 1,
) -> FuzzReport:
    """Corrupted-witness kill run over ``n`` generated programs.

    Runs every certified pass (the five IR passes, then the post-
    codegen check optimizer) on each program, first asserting the
    honest witness is accepted, then asserting every corruption of it
    is rejected with :class:`~repro.opt.witness.WitnessError`.  A
    corruption the checker accepts — or crashes on — is a finding.
    Generated programs rarely give the check optimizer anything to
    elide, so the run first certifies it on the OurMPX build of
    :data:`CHECKOPT_KERNEL`, where it does.  ``stride`` > 1 corrupts
    every stride-th emitted witness (honest validation still covers all
    of them).
    """
    from ..apps.spec import kernel_source
    from ..backend.codegen import compile_module
    from ..frontend.lower import lower_program
    from ..minic.parser import parse as parse_minic
    from ..minic.sema import analyze
    from ..opt.checkopt import check_checkopt_witness, optimize_checks
    from ..opt.pipeline import (
        CSE_LOCAL,
        ITER_PASSES,
        MAX_ITERATIONS,
        PROMOTE_SLOTS,
    )
    from ..opt.witness import (
        Witness,
        WitnessError,
        check_witness,
        snapshot_function,
    )

    report = FuzzReport(engine="witness", seed=seed)
    config = OUR_MPX
    emitted = 0

    def corrupt(variants, checker, label):
        nonlocal emitted
        emitted += 1
        if (emitted - 1) % stride:
            return
        for operator, bad in variants:
            report.mutants_total += 1
            events.counter("fuzz.witness_mutants", operator=operator).inc()
            try:
                checker(bad)
            except WitnessError:
                report.mutants_killed += 1
                events.counter("fuzz.witness_kills", outcome="killed").inc()
                continue
            except Exception as err:  # checker must reject, not crash
                events.counter("fuzz.witness_kills", outcome="crash").inc()
                report.findings.append(
                    Finding(
                        engine="witness",
                        kind="checker-crash",
                        detail=f"{label}: {operator}: checker raised "
                        f"{type(err).__name__}: {err}",
                        seed=report.seed,
                        operator=operator,
                    )
                )
                continue
            events.counter("fuzz.witness_kills", outcome="survived").inc()
            report.findings.append(
                Finding(
                    engine="witness",
                    kind="corrupt-witness-accepted",
                    detail=f"{label}: corruption {operator} was accepted "
                    "by the translation checker",
                    seed=report.seed,
                    operator=operator,
                )
            )

    def certify_checkopt(obj, case_seed):
        for func in obj.functions:
            optimized, witness = optimize_checks(func.insns, func.name)
            if not witness.edits:
                continue
            try:
                check_checkopt_witness(witness, func.insns, optimized)
            except WitnessError as err:
                report.findings.append(
                    Finding(
                        engine="witness",
                        kind="honest-witness-rejected",
                        detail=f"{func.name}/checkopt: {err}",
                        seed=case_seed,
                    )
                )
                continue
            corrupt(
                _corrupt_checkopt_witnesses(witness),
                lambda bad, pre=func.insns, post=optimized: (
                    check_checkopt_witness(bad, pre, post)
                ),
                f"{func.name}/checkopt",
            )

    if n > 0:
        certify_checkopt(
            BuildSession().compile_unit(
                kernel_source(CHECKOPT_KERNEL), config
            ),
            None,
        )
    for i in range(n):
        if deadline is not None and time.monotonic() > deadline:
            break
        case_seed = seed + i
        source = T_PROTOTYPES + _strip_prototypes(
            generate_source(case_seed, size)
        )
        checked = analyze(
            parse_minic(source, "<fuzz>"),
            strict=config.strict,
            all_private=config.all_private,
        )
        module = lower_program(checked)
        report.iterations += 1
        passes = (PROMOTE_SLOTS,) + ITER_PASSES + (CSE_LOCAL,)
        for func in module.functions.values():
            for _round in range(MAX_ITERATIONS):
                changed_any = False
                for pass_obj in passes:
                    snapshot = snapshot_function(func)
                    witness = Witness(pass_obj.name, func.name, func.origin)
                    if not pass_obj.fn(func, witness=witness):
                        continue
                    changed_any = True
                    try:
                        check_witness(witness, snapshot, func)
                    except WitnessError as err:
                        report.findings.append(
                            Finding(
                                engine="witness",
                                kind="honest-witness-rejected",
                                detail=f"{func.name}/{pass_obj.name}: "
                                f"{err}",
                                seed=case_seed,
                            )
                        )
                        continue
                    corrupt(
                        _corrupt_ir_witnesses(witness),
                        lambda bad: check_witness(bad, snapshot, func),
                        f"{func.name}/{pass_obj.name}",
                    )
                if not changed_any:
                    break
        certify_checkopt(compile_module(module, config), case_seed)
    return report


def run_fuzz(
    engine: str = "all",
    seed: int = 0,
    n: int = 20,
    size: int = DEFAULT_SIZE,
    budget: float | None = None,
    corpus_dir: str | None = None,
    minimize: bool = True,
    stride: int = 1,
) -> list[FuzzReport]:
    """Dispatch one or more fuzzing engines and collect their reports.

    ``engine`` is "program", "mutation", "corpus", "witness", or "all"
    (program + mutation + witness, plus corpus when ``corpus_dir`` is
    given).  ``budget`` caps the wall-clock seconds spent across the
    run.
    """
    deadline = time.monotonic() + budget if budget else None
    reports: list[FuzzReport] = []
    if engine not in ("program", "mutation", "corpus", "witness", "all"):
        raise ReproError(f"unknown fuzz engine {engine!r}")
    if engine in ("program", "all"):
        reports.append(
            fuzz_programs(
                seed, n, size=size, minimize=minimize, deadline=deadline
            )
        )
    if engine in ("mutation", "all"):
        reports.append(
            fuzz_mutants(
                seed, n, size=size, minimize=minimize,
                deadline=deadline, stride=stride,
            )
        )
    if engine in ("witness", "all"):
        reports.append(
            fuzz_witnesses(
                seed, n, size=size, deadline=deadline, stride=stride
            )
        )
    if engine == "corpus" or (engine == "all" and corpus_dir):
        from .corpus import replay_corpus

        if corpus_dir is None:
            raise ReproError("the corpus engine needs --corpus DIR")
        reports.append(replay_corpus(corpus_dir))
    return reports
