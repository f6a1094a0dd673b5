"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload {compile,spec,serve,profile} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a separate traced measurement,
and the spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``
under the working directory.  The last line of standard output is the
result; the exit code is 1 when any output was wrong.  See
perfbench/README.md for what each workload runs and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, Ctx, load_expected, run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = Ctx(workload=args.workload, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), expected=load_expected())
    out, tracer = run(ctx)
    if ctx.trace:
        tracer.dump(str(Path.cwd() / ".perfbench"
                        / f"trace-{args.workload}-{args.seed}.jsonl"))
    for error in out.errors:
        print(f"wrong output: {error}", file=sys.stderr)
    record = out.record()
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
