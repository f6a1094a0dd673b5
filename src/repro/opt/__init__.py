"""IR optimization passes, the certified pass manager, and the
post-codegen check optimizer (see docs/CERTIFIED_OPT.md)."""

from .checkopt import (
    CheckOptWitness,
    check_checkopt_witness,
    optimize_checks,
    run_checkopt,
)
from .passes import copyprop_and_fold, cse_local, dce, promote_slots, simplify_cfg
from .pipeline import (
    ITER_PASSES,
    MAX_ITERATIONS,
    Pass,
    optimize_module,
    run_certified_pass,
)
from .witness import (
    Obligation,
    Witness,
    WitnessError,
    check_witness,
    restore_function,
    snapshot_function,
)

__all__ = [
    "optimize_module",
    "promote_slots",
    "copyprop_and_fold",
    "dce",
    "simplify_cfg",
    "cse_local",
    "Pass",
    "ITER_PASSES",
    "MAX_ITERATIONS",
    "run_certified_pass",
    "Witness",
    "WitnessError",
    "Obligation",
    "check_witness",
    "snapshot_function",
    "restore_function",
    "CheckOptWitness",
    "check_checkopt_witness",
    "optimize_checks",
    "run_checkopt",
]
