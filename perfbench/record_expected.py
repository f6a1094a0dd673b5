"""Record the known answers the benchmark checks outputs against.

    PYTHONPATH=src python3 -m perfbench.record_expected

Runs every SPEC kernel under Base, OurMPX and OurSeg on both the default
engine and the ``reference`` engine (the executable specification), and
writes each kernel's exit code to perfbench/expected.json only if all
six runs agree.  Run it once; the benchmark then checks later versions
of the program against the stored answers, never against itself.
"""

from __future__ import annotations

import json
import sys

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.config import BASE, OUR_MPX, OUR_SEG
from repro.link.loader import load

from .common import NullTracer, build, cold_session
from .workloads import EXPECTED_PATH


def main() -> int:
    codes = {}
    for name in SPEC_NAMES:
        seen = {}
        for cfg in (BASE, OUR_MPX, OUR_SEG):
            binary = build(cold_session(), NullTracer(),
                           kernel_source(name, 1), cfg, seed=1,
                           verify=cfg is not BASE)
            seen[cfg.name, "default"] = load(binary).run()
            seen[cfg.name, "reference"] = load(
                binary, engine="reference").run()
        if len(set(seen.values())) != 1:
            print(f"{name}: runs disagree: {seen}", file=sys.stderr)
            return 1
        codes[name] = next(iter(seen.values()))
        print(f"{name}: {codes[name]}", flush=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"exit_codes": codes}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
