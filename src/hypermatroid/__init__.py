"""Matroids over hyperfields: exact arithmetic, axiom checkers, transforms.

The modules every command reads its input with load here: `errors`,
`hyperfields` (and through it `sumsets`), `vectors`, `matroids`,
`circuits`, `gp` and `serialization`.  `axioms`, `transforms`, `corpus`
and `experiments` serve only some commands, so they load on first use:
their exports, and the modules themselves, resolve through the module
`__getattr__` below the first time they are read.  Each `hfm` command runs
as a fresh process, so what it imports and never runs is paid on every
run; `hfm check-gp` loads none of the four.
"""

import importlib

from .hyperfields import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,  # noqa: F401
                          TRIANGLE, TROPICAL, HFElement, Hyperfield, eq, gf,
                          inv, mul, neg, sample_element, signed, zero_in_sum)
from .errors import (ConsistencyError, InputError, InvalidDualPairError,  # noqa: F401
                     MismatchError, RatioInconsistencyError)
from .vectors import (FVector, GroundSet, orthogonal,  # noqa: F401
                      projectively_equal, scalar_mul, support)
from .matroids import ClassicalMatroid, validate_circuits  # noqa: F401
from .circuits import (CircuitSignature, check_C0_C2,  # noqa: F401
                       check_C3_doubleprime, check_strong_elimination,
                       check_weak_elimination)
from .gp import (Classification, GPFunction, check_gp_strong,  # noqa: F401
                 check_gp_weak, circuits_from_gp, classify,
                 cocircuit_signature_from_circuits, dual_pair_witness,
                 gp_from_dual_pair, nonorthogonal_pair, orthogonality_verdict,
                 relation_terms)
from .serialization import (hyperfield_from_id, parse_object,  # noqa: F401
                            parse_text, serialize, to_jsonable)

# the exports of the modules that load on first use, by module
_LAZY = {
    "axioms": ("check_hyperfield_axioms",),
    "transforms": ("HyperfieldHom", "dual_gp", "minor_circuits", "minor_gp",
                   "pushforward_circuits", "pushforward_gp", "rational_padic",
                   "rational_sign", "to_krasner"),
    "corpus": ("CORPUS", "CorpusEntry", "corpus_entries", "get_entry", "run_demo"),
    "experiments": ("ExperimentConfig", "config_from_json", "random_weak_gp",
                    "run_perfection_experiment"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A lazy module, or an export of one, imported on first access and
    then bound here like an eager one."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_OWNER[name]), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY, *_OWNER})
