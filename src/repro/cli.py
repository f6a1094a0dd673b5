"""Command-line driver: ``python -m repro <command> ...``.

Commands
--------
run      compile a MiniC file and execute it on the simulated machine
verify   compile and run ConfVerify on the result
disasm   compile and print the linked instruction stream
bench    run one source under every configuration and print overheads
         and check counts; ``--store FILE`` appends a schema-versioned
         record to a ``BENCH_*.json`` trajectory; ``bench diff OLD NEW``
         compares two trajectories exactly (exit 3 on any change)
report   Fig. 5-8-style overhead decomposition: per-config % overhead
         over Base broken down by check category (bnd/cfi/magic/
         chkstk/shadow + other), measured by the block profiler
build    separate compilation: sources -> ``.uo`` objects, or ``--link``
         several objects/sources into a serialized binary
cache    inspect the content-addressed object cache (stats/list/clear)
serve    multi-tenant enclave-fleet serving: freeze one verified image,
         fork per-tenant machine pools from it, and drive a load with
         throughput/latency percentiles and cold-vs-fork setup costs
         (``--store`` appends a ``serve/<app>`` trajectory record)

Common options: ``--config <name>`` (default OurMPX; see ``repro.config``),
``--file name=path`` to add RAM-disk files, ``--stdin-hex BYTES`` to feed
channel 0, ``--seed N`` for deterministic magic selection.  ``run``,
``bench`` and ``report`` also take ``--engine {predecoded,reference}``:
the reference engine is the slow one-step-at-a-time interpreter kept as
an executable specification — results are identical, only wall-clock
differs.

Build-layer options: ``--cache-dir DIR`` attaches a content-addressed
object cache (warm rebuilds skip every compile stage; also honoured via
``$REPRO_CACHE_DIR``).  Cached builds are byte-identical to cold builds.

Prototype injection: unless ``--no-prototypes`` is given, the standard
T prototypes are prepended when the source contains no real ``extern
trusted`` declaration: the detector lexes the source with the
compiler's own lexer, so "extern trusted" in a comment, a string or a
``#`` line does not suppress injection.  A ``#line 1 "<path>"``
directive follows the prototypes, so diagnostics name the file and its
own line numbers.

Observability: ``--trace out.json`` writes a Chrome-trace/Perfetto file
covering both compiler stages (wall clock) and machine execution
(simulated cycles); ``bench --trace`` carries one ``compile.total``
span per configuration.  ``--metrics`` dumps every recorded counter and
histogram as a table on stderr.  ``run --profile-blocks`` prints
per-basic-block cycle attribution, ``run --flamegraph out.folded``
writes a collapsed-stack profile.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .build import (
    BuildSession,
    ObjectCache,
    default_session,
    dump_binary,
    dump_uobject,
    load_uobject,
    object_cache_key,
    use_session,
)
from .compiler import compile_source
from .config import ALL_CONFIGS, CHECKOPT_LEVELS, OUR_MPX
from .errors import MachineFault, ReproError
from .link.loader import load
from .machine.cpu import ENGINES
from .minic import tokenize
from .obs import events, export
from .runtime.trusted import T_PROTOTYPES, TrustedRuntime


class ConfigFault(Exception):
    """A ``MachineFault`` (the ``__cause__``) in one configuration of a
    multi-config run, reading ``<config>: <fault>``; ``bench`` and
    ``report`` print it after ``FAULT:`` and exit 2, like ``run``."""


def _run_config(name: str, process) -> int:
    try:
        return process.run()
    except MachineFault as fault:
        raise ConfigFault(f"{name}: {fault}") from fault


def _has_trusted_declarations(source: str, filename: str = "<input>") -> bool:
    """An ``extern`` keyword token directly followed by ``trusted``."""
    tokens = tokenize(source, filename)
    return any(
        first.is_keyword("extern") and second.is_keyword("trusted")
        for first, second in zip(tokens, tokens[1:])
    )


def _apply_checkopt(config, level: str | None):
    """Apply a ``--checkopt`` level to a config (no-op when unset/equal)."""
    if level and level != config.checkopt:
        return config.variant(checkopt=level)
    return config


def _read_source(path: str, add_prototypes: bool) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"{path}: source is not valid UTF-8 (byte {exc.start})"
        ) from None
    if add_prototypes and not _has_trusted_declarations(source, path):
        # The directive keeps diagnostics in the file's own lines.
        source = f'{T_PROTOTYPES}#line 1 "{path}"\n{source}'
    return source


def _make_runtime(args) -> TrustedRuntime:
    runtime = TrustedRuntime()
    for spec in args.file or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"malformed --file spec {spec!r} (expected name=path)"
            )
        with open(path, "rb") as handle:
            runtime.add_file(name, handle.read())
    for spec in args.password or []:
        user, sep, pw = spec.partition("=")
        if not sep or not user:
            raise ReproError(
                f"malformed --password spec {spec!r} (expected user=password)"
            )
        runtime.set_password(user, pw.encode())
    if args.stdin_hex:
        runtime.channel(0).feed(bytes.fromhex(args.stdin_hex))
    return runtime


@contextlib.contextmanager
def _session_scope(args):
    """Scope a build session caching in ``--cache-dir``.

    Without the flag the process default session (which honours
    ``$REPRO_CACHE_DIR``) stays active.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        yield default_session()
        return
    with use_session(BuildSession(cache=ObjectCache(cache_dir))) as session:
        yield session


def _activate_obs(args) -> events.Registry | None:
    """Activate a registry when ``--trace``/``--metrics`` asked for one."""
    if not getattr(args, "trace", None) and not getattr(args, "metrics", False):
        return None
    return events.activate(events.Registry())


def _finish_obs(args, registry: events.Registry | None) -> None:
    """Deactivate and flush the registry (trace file, metrics table)."""
    if registry is None:
        return
    events.deactivate()
    if getattr(args, "trace", None):
        export.write_chrome_trace(registry, args.trace)
    if getattr(args, "metrics", False):
        print(export.render_metrics_table(registry), file=sys.stderr)


def _report_run(args, process, runtime, blockprof=None) -> None:
    # --metrics already dumps the machine counters (and more), so only
    # render the short stats table when it alone was requested.
    if args.stats and not args.metrics:
        stats = process.stats
        rows = [
            ("machine.cycles.wall", process.wall_cycles),
            ("machine.instructions", stats.instructions),
            ("machine.checks{kind=bnd}", stats.bnd_checks),
            ("machine.checks{kind=cfi}", stats.cfi_checks),
            ("machine.t_calls", stats.t_calls),
        ]
        print(export.render_kv_table(rows, title="run stats"), file=sys.stderr)
    _report_profile(args, blockprof)
    outbox = runtime.channel(1).drain_out()
    if outbox:
        print(
            export.render_kv_table(
                [("channel.1.out", outbox.hex())], title="channels"
            ),
            file=sys.stderr,
        )


def _report_profile(args, blockprof) -> None:
    """The ``--profile``/``--profile-blocks`` tables, on stderr."""
    if blockprof is not None and getattr(args, "profile", False):
        rows = [
            [row.name, f"{row.cycles:,}", f"{row.cycle_share:.1%}",
             row.bnd_checks, row.cfi_checks]
            for row in blockprof.function_report(top=12)
        ]
        print(
            export.render_table(
                ["function", "cycles", "share", "bnd", "cfi"],
                rows,
                title="profile",
            ),
            file=sys.stderr,
        )
    if blockprof is not None and getattr(args, "profile_blocks", False):
        rows = [
            [row.name, row.func, f"{row.cycles:,}",
             f"{row.cycle_share:.1%}", f"{row.instructions:,}",
             row.cache_misses]
            for row in blockprof.report(top=16)
        ]
        print(
            export.render_table(
                ["block", "function", "cycles", "share", "instrs",
                 "l1miss"],
                rows,
                title="block profile",
            ),
            file=sys.stderr,
        )


def cmd_run(args) -> int:
    source = _read_source(args.source, not args.no_prototypes)
    config = _apply_checkopt(ALL_CONFIGS[args.config], args.checkopt)
    registry = _activate_obs(args)
    try:
        binary = compile_source(source, config, filename=args.source,
                                seed=args.seed, verify=args.verify)
        runtime = _make_runtime(args)
        process = load(binary, runtime=runtime, engine=args.engine)
        blockprof = None
        if args.profile or args.profile_blocks or args.flamegraph:
            from .obs.blockprof import attach_block_profiler

            blockprof = attach_block_profiler(process.machine)
        fault = None
        try:
            code = process.run()
        except MachineFault as exc:
            # The profile of a faulting run still covers every
            # instruction that retired, so it is emitted too.
            print(f"FAULT: {exc}", file=sys.stderr)
            fault = exc
        if registry is not None and (args.profile_blocks or args.flamegraph):
            blockprof.publish(registry)
    finally:
        _finish_obs(args, registry)
    if blockprof is not None and args.flamegraph:
        from .obs.blockprof import write_flamegraph

        write_flamegraph(blockprof, args.flamegraph)
    if fault is not None:
        _report_profile(args, blockprof)
        return 2
    for line in process.stdout:
        print(line)
    _report_run(args, process, runtime, blockprof)
    return code & 0xFF


def cmd_verify(args) -> int:
    from .verifier import verify_binary

    source = _read_source(args.source, not args.no_prototypes)
    config = _apply_checkopt(ALL_CONFIGS[args.config], args.checkopt)
    registry = _activate_obs(args)
    try:
        binary = compile_source(source, config, filename=args.source,
                                seed=args.seed)
        verify_binary(binary)
    finally:
        _finish_obs(args, registry)
    print(f"OK: {args.source} verifies under {config.name}")
    return 0


def cmd_disasm(args) -> int:
    source = _read_source(args.source, not args.no_prototypes)
    config = _apply_checkopt(ALL_CONFIGS[args.config], args.checkopt)
    binary = compile_source(source, config, filename=args.source,
                            seed=args.seed)
    addr_to_label = {}
    for name, addr in binary.label_addrs.items():
        addr_to_label.setdefault(addr, []).append(name)
    for addr, insn in enumerate(binary.code):
        for label in addr_to_label.get(addr, []):
            print(f"{label}:")
        print(f"  {addr:6d}  {insn!r}")
    return 0


def run_bench_suite(
    source: str,
    *,
    suite: str,
    seed: int | None = None,
    engine: str = "predecoded",
    configs: dict | None = None,
    runtime_factory=None,
    checkopt: str | None = None,
    filename: str = "<input>",
) -> tuple[list[dict], list[dict]]:
    """Compile + run ``source`` under every configuration.

    Returns ``(records, benchmarks)``: the per-config records ``bench
    --json`` prints, and the ``bench_store`` per-benchmark entries
    (named ``suite/config``) that ``--store`` appends to a trajectory.
    Both hold only simulated numbers.  Shared by ``cmd_bench`` and the
    seed-trajectory generator so both produce byte-comparable entries.
    ``filename`` is the name compile diagnostics give the source.
    """
    from .obs import bench_store

    records: list[dict] = []
    benchmarks: list[dict] = []
    base_cycles = None
    # Compile every configuration up front, then run them in
    # configuration order.
    session = default_session()
    binaries = {
        name: session.build(
            source, _apply_checkopt(config, checkopt), filename=filename,
            seed=seed,
        )
        for name, config in (
            ALL_CONFIGS if configs is None else configs
        ).items()
    }
    for name, binary in binaries.items():
        runtime = runtime_factory() if runtime_factory else TrustedRuntime()
        process = load(binary, runtime=runtime, engine=engine)
        _run_config(name, process)
        cycles = process.wall_cycles
        if base_cycles is None:
            base_cycles = cycles
        pct = (
            100.0 * (cycles - base_cycles) / base_cycles
            if base_cycles
            else 0.0
        )
        stats = process.stats
        checks = {
            "bnd": stats.bnd_checks,
            "cfi": stats.cfi_checks,
            "t_calls": stats.t_calls,
        }
        records.append(
            {
                "config": name,
                "cycles": cycles,
                "overhead_pct": round(pct, 2),
                "instructions": stats.instructions,
                "checks": checks,
            }
        )
        benchmarks.append(
            bench_store.make_benchmark(
                name=f"{suite}/{name}",
                config=name,
                cycles=cycles,
                instructions=stats.instructions,
                checks=checks,
            )
        )
    return records, benchmarks


def cmd_bench(args) -> int:
    from .obs import bench_store

    source = _read_source(args.source, not args.no_prototypes)
    registry = _activate_obs(args)
    suite = args.bench_name
    if suite is None:
        stem = os.path.basename(args.source)
        suite = stem[: stem.rfind(".")] if "." in stem else stem
    try:
        records, benchmarks = run_bench_suite(
            source,
            suite=suite,
            seed=args.seed,
            engine=args.engine,
            runtime_factory=lambda: _make_runtime(args),
            checkopt=args.checkopt,
            filename=args.source,
        )
    except ConfigFault as fault:
        print(f"FAULT: {fault}", file=sys.stderr)
        return 2
    finally:
        _finish_obs(args, registry)
    if args.store:
        record = bench_store.make_record(suite, args.seed, benchmarks)
        total = bench_store.append_record(args.store, record)
        print(
            f"stored record #{total} ({suite}, {len(benchmarks)} "
            f"benchmarks) -> {args.store}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    rows = [
        [
            r["config"],
            f"{r['cycles']:,}",
            f"{r['overhead_pct']:+.1f}%",
            f"{r['instructions']:,}",
            r["checks"]["bnd"],
            r["checks"]["cfi"],
            r["checks"]["t_calls"],
        ]
        for r in records
    ]
    print(
        export.render_table(
            ["config", "cycles", "vs Base", "instrs", "bnd", "cfi", "tcalls"],
            rows,
            title="bench",
        )
    )
    return 0


def cmd_bench_diff(args) -> int:
    """Compare two trajectory records; exit 3 on any changed number."""
    from .obs import bench_store

    old = bench_store.latest_record(args.old, name=args.suite)
    new = bench_store.latest_record(args.new, name=args.suite)
    result = bench_store.diff_records(old, new)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": result.ok,
                    "changes": [
                        {
                            "benchmark": row.benchmark,
                            "metric": row.metric,
                            "old": row.old,
                            "new": row.new,
                            "delta_pct": round(row.delta_pct, 4),
                        }
                        for row in result.changes
                    ],
                    "only_old": result.only_old,
                    "only_new": result.only_new,
                    "compared": result.compared,
                },
                indent=2,
            )
        )
    else:
        print(bench_store.render_diff(result))
    return 0 if result.ok else 3


def cmd_report(args) -> int:
    """Fig. 5-8-style check-overhead decomposition per configuration.

    Every config (including Base) runs once under the block profiler;
    each executed check site is charged its exact cycle cost.  The
    per-category sums plus the ``other`` residual (pipeline effects not
    tied to one check instruction: bound setup, cache displacement,
    alignment) decompose the cycle delta over Base *exactly*:
    ``sum(categories) + other == cycles(config) - cycles(Base)``.
    """
    from .backend.isa import check_kind
    from .obs.blockprof import attach_block_profiler

    def bnd_sites(binary) -> int:
        return sum(1 for insn in binary.code if check_kind(insn) == "bnd")

    source = _read_source(args.source, not args.no_prototypes)
    if args.configs:
        wanted = []
        for part in args.configs.split(","):
            name = part.strip()
            if name and name not in wanted:
                wanted.append(name)
        unknown = [n for n in wanted if n not in ALL_CONFIGS]
        if unknown:
            raise ReproError(
                f"unknown config(s) {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(ALL_CONFIGS))})"
            )
        if "Base" not in wanted:
            wanted.insert(0, "Base")
        config_map = {n: ALL_CONFIGS[n] for n in ALL_CONFIGS if n in wanted}
    else:
        config_map = dict(ALL_CONFIGS)
    config_map = {
        name: _apply_checkopt(config, args.checkopt)
        for name, config in config_map.items()
    }

    registry = _activate_obs(args)
    results: dict[str, dict] = {}
    try:
        session = default_session()
        binaries = {
            name: session.build(source, config, filename=args.source,
                                seed=args.seed)
            for name, config in config_map.items()
        }
        for name, binary in binaries.items():
            process = load(binary, runtime=_make_runtime(args),
                           engine=args.engine)
            blockprof = attach_block_profiler(process.machine)
            _run_config(name, process)
            results[name] = {
                "cycles": process.wall_cycles,
                "summary": blockprof.check_summary(),
                "bnd_sites": bnd_sites(binary),
            }
        # Check-elision attribution: at --checkopt aggressive, rebuild
        # every bounds-checked config with the optimizer off and charge
        # the difference (sites and profiled bnd cycles) to checkopt.
        if getattr(args, "checkopt", None) == "aggressive":
            off_binaries = {
                name: session.build(
                    source, config.variant(checkopt="off"),
                    filename=args.source, seed=args.seed,
                )
                for name, config in config_map.items()
                if config.scheme == "mpx"
            }
            for name, binary in off_binaries.items():
                process = load(binary, runtime=_make_runtime(args),
                               engine=args.engine)
                blockprof = attach_block_profiler(process.machine)
                _run_config(name, process)
                off_summary = blockprof.check_summary()
                entry = results[name]
                sites_off = bnd_sites(binary)
                entry["checkopt"] = {
                    "level": "aggressive",
                    "bnd_sites": entry["bnd_sites"],
                    "bnd_sites_off": sites_off,
                    "sites_elided": sites_off - entry["bnd_sites"],
                    "bnd_cycles": entry["summary"]["bnd"]["cycles"],
                    "bnd_cycles_off": off_summary["bnd"]["cycles"],
                    "bnd_cycles_saved": (
                        off_summary["bnd"]["cycles"]
                        - entry["summary"]["bnd"]["cycles"]
                    ),
                }
    except ConfigFault as fault:
        print(f"FAULT: {fault}", file=sys.stderr)
        return 2
    finally:
        _finish_obs(args, registry)

    base_cycles = results["Base"]["cycles"]
    report = []
    for name in config_map:
        cycles = results[name]["cycles"]
        summary = results[name]["summary"]
        delta = cycles - base_cycles
        check_total = sum(c["cycles"] for c in summary.values())
        other = delta - check_total
        breakdown = {
            cat: {
                "count": summary[cat]["count"],
                "cycles": summary[cat]["cycles"],
                "pct_of_base": round(
                    100.0 * summary[cat]["cycles"] / base_cycles, 2
                )
                if base_cycles
                else 0.0,
            }
            for cat in summary
        }
        breakdown["other"] = {
            "cycles": other,
            "pct_of_base": round(100.0 * other / base_cycles, 2)
            if base_cycles
            else 0.0,
        }
        entry = {
            "config": name,
            "cycles": cycles,
            "delta": delta,
            "overhead_pct": round(100.0 * delta / base_cycles, 2)
            if base_cycles
            else 0.0,
            "breakdown": breakdown,
        }
        if "checkopt" in results[name]:
            entry["checkopt"] = results[name]["checkopt"]
        report.append(entry)
    if args.json:
        print(
            json.dumps(
                {
                    "source": args.source,
                    "seed": args.seed,
                    "engine": args.engine,
                    "base": "Base",
                    "base_cycles": base_cycles,
                    "configs": report,
                },
                indent=2,
            )
        )
        return 0
    categories = list(report[0]["breakdown"]) if report else []
    rows = [
        [
            entry["config"],
            f"{entry['cycles']:,}",
            f"{entry['overhead_pct']:+.1f}%",
        ]
        + [
            f"{entry['breakdown'][cat]['cycles']:,}"
            for cat in categories
        ]
        for entry in report
    ]
    print(
        export.render_table(
            ["config", "cycles", "vs Base"] + list(categories),
            rows,
            title="check-overhead decomposition (cycles)",
        )
    )
    ck_rows = [
        [
            entry["config"],
            ck["bnd_sites_off"],
            ck["bnd_sites"],
            ck["sites_elided"],
            f"{ck['bnd_cycles_off']:,}",
            f"{ck['bnd_cycles']:,}",
            f"{ck['bnd_cycles_saved']:,}",
        ]
        for entry in report
        if (ck := entry.get("checkopt"))
    ]
    if ck_rows:
        print(
            export.render_table(
                ["config", "sites@off", "sites", "elided", "bnd_cyc@off",
                 "bnd_cyc", "saved"],
                ck_rows,
                title="checkopt attribution (aggressive vs off)",
            )
        )
    return 0


def cmd_build(args) -> int:
    """Separate compilation: sources -> objects, optionally linked.

    Each ``.mc``/source argument compiles to a serialized pre-link U
    object; ``.uo`` arguments are loaded as already-built objects.
    With ``--link OUT`` every object links into one binary (resolving
    cross-object externals) and OUT receives the serialized binary.
    With several sources (or ``--allow-undefined``), declared-but-
    undefined untrusted functions become cross-object externals for
    the linker instead of compile errors.
    """
    session = default_session()
    config = _apply_checkopt(ALL_CONFIGS[args.config], args.checkopt)
    allow_undefined = args.allow_undefined or len(args.sources) > 1
    objs = []
    for path in args.sources:
        if path.endswith(".uo"):
            with open(path, "rb") as handle:
                obj = load_uobject(handle.read())
            if obj.config != config:
                raise ReproError(
                    f"{path}: object was built for config "
                    f"{obj.config.name}, not {config.name}"
                )
            objs.append((path, None, obj))
            continue
        source = _read_source(path, not args.no_prototypes)
        obj = session.compile_unit(
            source,
            config,
            filename=path,
            seed=args.seed,
            allow_undefined=allow_undefined,
        )
        objs.append((path, source, obj))

    if args.link is not None:
        binary = session.link_units(
            [obj for _, _, obj in objs], entry=args.entry, seed=args.seed
        )
        data = dump_binary(binary)
        with open(args.link, "wb") as handle:
            handle.write(data)
        print(
            f"linked {len(objs)} object(s) -> {args.link} "
            f"({len(data)} bytes, {len(binary.code)} code words)"
        )
        return 0

    for path, source, obj in objs:
        if source is None:
            continue  # already an object file
        stem = os.path.basename(path)
        stem = stem[: -len(".mc")] if stem.endswith(".mc") else stem
        out = (
            os.path.join(args.out_dir, stem + ".uo")
            if args.out_dir
            else path + ".uo"
        )
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
        data = dump_uobject(obj)
        with open(out, "wb") as handle:
            handle.write(data)
        key = object_cache_key(source, config, args.seed, allow_undefined)
        print(
            f"{path} -> {out} ({len(data)} bytes, "
            f"{len(obj.functions)} functions, key {key[:12]})"
        )
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the content-addressed object cache."""
    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        raise ReproError(
            "no cache directory (pass --cache-dir or set $REPRO_CACHE_DIR)"
        )
    cache = ObjectCache(root)
    if args.action == "stats":
        stats = cache.stats()
        print(
            export.render_kv_table(
                sorted(stats.items()), title="object cache"
            )
        )
    elif args.action == "list":
        for digest, size, mtime in sorted(
            cache.entries(), key=lambda e: (e[2], e[0])
        ):
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(mtime)
            )
            print(f"{digest}  {size:>8}  {stamp}")
    else:  # clear
        print(f"removed {cache.clear()} entries from {root}")
    return 0


def cmd_fuzz(args) -> int:
    """Drive the fuzzing harness; exit 1 when any finding survives."""
    from .fuzz import run_fuzz

    registry = _activate_obs(args)
    try:
        reports = run_fuzz(
            engine=args.engine,
            seed=args.seed,
            n=args.n,
            size=args.size,
            budget=args.budget,
            corpus_dir=args.corpus,
            minimize=not args.no_minimize,
            stride=args.stride,
        )
    finally:
        _finish_obs(args, registry)
    findings = 0
    for report in reports:
        print(report.summary())
        for finding in report.findings:
            findings += 1
            print(finding.render(), file=sys.stderr)
    if findings:
        print(f"FUZZ: {findings} finding(s) — see repros above",
              file=sys.stderr)
        return 1
    print("FUZZ: all checks passed")
    return 0


def cmd_serve(args) -> int:
    """Multi-tenant enclave-fleet serving (see docs/SERVING.md).

    Builds one verified image for the chosen app, forks per-tenant
    pools from it, pushes a deterministic request stream through the
    fleet, and reports throughput, p50/p95/p99 latency on both clocks,
    and the cold-vs-fork setup comparison.
    """
    from .obs import bench_store
    from .serve import run_load

    config = _apply_checkopt(ALL_CONFIGS[args.config], args.checkopt)
    report = run_load(
        args.app,
        config,
        tenants=args.tenants,
        pool_size=args.pool_size,
        requests=args.requests,
        batch=args.batch,
        budget=args.budget,
        queue_depth=args.queue_depth,
        engine=args.engine,
        seed=args.seed,
        verify=not args.no_verify,
    )
    # Per-tenant counters are published after the run on purpose: an
    # active registry during serving would record a span per t_call.
    registry = _activate_obs(args)
    if registry is not None:
        for tenant, counters in report.per_tenant.items():
            for key in ("requests", "faults", "evictions", "resets",
                        "cycles"):
                registry.counter(f"serve.{key}", tenant=tenant).inc(
                    counters[key]
                )
    _finish_obs(args, registry)
    if args.store:
        record = bench_store.make_record(
            f"serve/{args.app}", args.seed, [report.bench_entry()]
        )
        total = bench_store.append_record(args.store, record)
        print(
            f"stored record #{total} (serve/{args.app}) -> {args.store}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0
    setup = report.setup
    lat_w = report.latency_wall_ms
    lat_c = report.latency_cycles
    rows = [
        ("app / config", f"{report.app} / {report.config}"),
        ("tenants x pool", f"{len(report.tenants)} x {report.pool_size}"),
        ("requests (batch)", f"{report.requests} ({report.batch})"),
        ("ok / valid", f"{report.ok} / {report.valid}"),
        ("faults (evictions)", f"{report.faults} ({report.evictions})"),
        ("throughput", f"{report.throughput_rps:,.0f} req/s"),
        ("latency wall ms p50/p95/p99",
         f"{lat_w['p50']:.3f} / {lat_w['p95']:.3f} / {lat_w['p99']:.3f}"),
        ("latency cycles p50/p95/p99",
         f"{lat_c['p50']:,.0f} / {lat_c['p95']:,.0f} / "
         f"{lat_c['p99']:,.0f}"),
        ("total cycles", f"{report.total_cycles:,}"),
        ("cold setup (build+load)", f"{setup['cold_wall_s'] * 1e3:.1f} ms"),
        ("fork setup (reset)", f"{setup['reset_wall_s'] * 1e6:.1f} us"),
        ("setup speedup wall", f"{setup['wall_speedup']:,.0f}x"),
        ("warmup vs resume cycles",
         f"{setup['warmup_cycles']:,} vs {setup['resume_cycles']:,} "
         f"({setup['cycle_speedup']:,.1f}x)"),
    ]
    print(export.render_kv_table(rows, title="serve"))
    tenant_rows = [
        [name, c["requests"], c["faults"], c["evictions"], c["resets"],
         f"{c['cycles']:,}", c["max_queue_depth"]]
        for name, c in report.per_tenant.items()
    ]
    print(
        export.render_table(
            ["tenant", "reqs", "faults", "evict", "resets", "cycles",
             "maxq"],
            tenant_rows,
            title="per-tenant",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ConfLLVM-reproduction toolchain driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("run", cmd_run),
        ("verify", cmd_verify),
        ("disasm", cmd_disasm),
        ("bench", cmd_bench),
    ):
        p = sub.add_parser(name)
        p.add_argument("source", help="MiniC source file")
        p.add_argument("--config", default=OUR_MPX.name,
                       choices=sorted(ALL_CONFIGS))
        p.add_argument("--checkopt", default=None,
                       choices=CHECKOPT_LEVELS,
                       help="post-codegen check-optimization level (off/safe/aggressive; default from config)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-prototypes", action="store_true",
                       help="do not prepend the standard T prototypes")
        p.add_argument("--file", action="append",
                       help="name=path: add a RAM-disk file")
        p.add_argument("--password", action="append",
                       help="user=pw: register a stored password")
        p.add_argument("--stdin-hex", default=None,
                       help="hex bytes fed to channel 0")
        if name in ("run", "bench"):
            p.add_argument("--engine", default="predecoded",
                           choices=ENGINES,
                           help="execution engine (reference = slow "
                                "debug interpreter; identical results)")
        p.set_defaults(handler=handler)
        if name in ("run", "verify", "bench"):
            p.add_argument("--trace", metavar="PATH", default=None,
                           help="write a Chrome-trace/Perfetto JSON file")
        if name in ("run", "verify", "bench"):
            p.add_argument("--metrics", action="store_true",
                           help="dump all recorded metrics to stderr")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed object cache directory "
                            "(warm rebuilds skip all compile stages)")
        if name == "run":
            p.add_argument("--verify", action="store_true",
                           help="run ConfVerify before loading")
            p.add_argument("--stats", action="store_true",
                           help="print a machine-counter summary table")
            p.add_argument("--profile", action="store_true",
                           help="print per-function cycle attribution")
            p.add_argument("--profile-blocks", action="store_true",
                           help="print per-basic-block cycle/L1 "
                                "attribution (block profiler)")
            p.add_argument("--flamegraph", metavar="PATH", default=None,
                           help="write a collapsed-stack flamegraph "
                                "profile (func;block cycles per line)")
        if name == "bench":
            p.add_argument("--json", action="store_true",
                           help="emit machine-readable benchmark records")
            p.add_argument("--store", metavar="FILE", default=None,
                           help="append a schema-versioned record to a "
                                "BENCH_*.json trajectory file")
            p.add_argument("--bench-name", metavar="NAME", default=None,
                           help="suite name for stored benchmark entries "
                                "(default: source basename)")

    p = sub.add_parser(
        "report",
        help="Fig. 5-8-style overhead decomposition per config "
             "(per-category check cycles measured by the block profiler)",
    )
    p.add_argument("source", help="MiniC source file")
    p.add_argument("--configs", default=None, metavar="A,B",
                   help="comma-separated config subset "
                        "(Base is always included as the baseline)")
    p.add_argument("--checkopt", default=None,
                   choices=CHECKOPT_LEVELS,
                   help="post-codegen check-optimization level (off/safe/aggressive; default from config); at aggressive, report "
                        "additionally attributes per-config savings "
                        "against a checkopt=off rebuild")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-prototypes", action="store_true",
                   help="do not prepend the standard T prototypes")
    p.add_argument("--file", action="append",
                   help="name=path: add a RAM-disk file")
    p.add_argument("--password", action="append",
                   help="user=pw: register a stored password")
    p.add_argument("--stdin-hex", default=None,
                   help="hex bytes fed to channel 0")
    p.add_argument("--engine", default="predecoded",
                   choices=ENGINES,
                   help="execution engine (identical attribution)")
    p.add_argument("--json", action="store_true",
                   help="emit the decomposition as JSON")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome-trace/Perfetto JSON file")
    p.add_argument("--metrics", action="store_true",
                   help="dump all recorded metrics to stderr")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed object cache directory")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser(
        "build", help="separate compilation: sources -> objects / binary"
    )
    p.add_argument("sources", nargs="+", metavar="SRC",
                   help="MiniC source files, or prebuilt .uo objects")
    p.add_argument("--config", default=OUR_MPX.name,
                   choices=sorted(ALL_CONFIGS))
    p.add_argument("--checkopt", default=None,
                   choices=CHECKOPT_LEVELS,
                   help="post-codegen check-optimization level (off/safe/aggressive; default from config)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-prototypes", action="store_true",
                   help="do not prepend the standard T prototypes")
    p.add_argument("--allow-undefined", action="store_true",
                   help="turn declared-but-undefined untrusted functions "
                        "into cross-object externals (implied when "
                        "building several sources)")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="directory for .uo object files "
                        "(default: next to each source)")
    p.add_argument("--link", default=None, metavar="OUT",
                   help="link all objects and write the serialized binary")
    p.add_argument("--entry", default="main",
                   help="entry function for --link (default: main)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed object cache directory")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("cache", help="inspect the object cache")
    p.add_argument("action", choices=("stats", "list", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    p.set_defaults(handler=cmd_cache)

    p = sub.add_parser(
        "fuzz",
        help="adversarial fuzzing + mutation-kill harness "
             "(fully reproducible from --seed)",
    )
    p.add_argument("--engine", default="all",
                   choices=("program", "mutation", "corpus", "witness",
                            "all"),
                   help="program: differential fuzzing of generated "
                        "MiniC; mutation: mutation-kill run against "
                        "ConfVerify; corpus: replay frozen regression "
                        "cases; witness: corrupted-witness kill run "
                        "against the translation checkers; all: "
                        "program + mutation + witness (+ corpus when "
                        "--corpus is given)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; case i uses seed+i (default 0)")
    p.add_argument("--n", type=int, default=20, metavar="N",
                   help="number of generated programs per engine")
    p.add_argument("--size", type=int, default=12, metavar="STMTS",
                   help="statement budget per generated program")
    p.add_argument("--budget", type=float, default=None, metavar="SECS",
                   help="wall-clock cap; a truncated run checks a "
                        "prefix of the same case sequence")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="corpus directory for the corpus engine")
    p.add_argument("--stride", type=int, default=1, metavar="K",
                   help="mutation engine: keep every K-th mutation "
                        "site (deterministic subsample for quick runs)")
    p.add_argument("--no-minimize", action="store_true",
                   help="report raw (unminimized) failing programs")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome-trace/Perfetto JSON file")
    p.add_argument("--metrics", action="store_true",
                   help="dump all recorded metrics to stderr")
    p.set_defaults(handler=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="multi-tenant enclave-fleet serving: fork verified machine "
             "images into per-tenant pools and drive a load through them",
    )
    p.add_argument("--app", default="echo",
                   choices=("webserver", "dirserver", "classifier",
                            "echo"),
                   help="serveable app (see repro.serve.apps)")
    p.add_argument("--config", default=OUR_MPX.name,
                   choices=sorted(ALL_CONFIGS))
    p.add_argument("--checkopt", default=None,
                   choices=CHECKOPT_LEVELS,
                   help="post-codegen check-optimization level (off/safe/aggressive; default from config)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--engine", default="predecoded",
                   choices=ENGINES,
                   help="execution engine for every fork")
    p.add_argument("--tenants", type=int, default=2, metavar="N",
                   help="number of tenants (default 2)")
    p.add_argument("--pool-size", type=int, default=2, metavar="N",
                   help="machine forks per tenant (default 2)")
    p.add_argument("--requests", type=int, default=100, metavar="N",
                   help="total requests, round-robin over tenants")
    p.add_argument("--batch", type=int, default=1, metavar="N",
                   help="max queued requests a slot drains before "
                        "resetting (1 = reset per request, fully "
                        "deterministic accounting)")
    p.add_argument("--budget", type=int, default=500_000_000,
                   metavar="N",
                   help="per-request instruction budget; exhaustion "
                        "evicts the request and resets the fork")
    p.add_argument("--queue-depth", type=int, default=64, metavar="N",
                   help="per-tenant admission queue depth "
                        "(producers block when full)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip ConfVerify when building the image")
    p.add_argument("--json", action="store_true",
                   help="emit the full serve report as JSON")
    p.add_argument("--store", metavar="FILE", default=None,
                   help="append a serve/<app> record to a BENCH_*.json "
                        "trajectory file")
    p.add_argument("--metrics", action="store_true",
                   help="dump per-tenant serve counters to stderr")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed object cache directory")
    p.set_defaults(handler=cmd_serve)
    return parser


def build_bench_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench diff",
        description="compare two BENCH_*.json trajectory records; "
                    "exit 3 when any cycle, instruction or check count "
                    "differs",
    )
    parser.add_argument("old", help="baseline trajectory file")
    parser.add_argument("new", help="candidate trajectory file")
    parser.add_argument("--suite", default=None, metavar="NAME",
                        help="compare this suite's latest records only")
    parser.add_argument("--json", action="store_true",
                        help="emit the diff result as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        # `bench diff` takes two trajectory files, not a source file —
        # dispatch it before the regular bench parser sees the args.
        if argv[:2] == ["bench", "diff"]:
            return cmd_bench_diff(build_bench_diff_parser().parse_args(argv[2:]))
        args = build_parser().parse_args(argv)
        if args.command == "cache":
            return args.handler(args)
        with _session_scope(args):
            return args.handler(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
