"""Matroids over hyperfields: exact arithmetic, axiom checkers, transforms."""

from .hyperfields import (  # noqa: F401
    KRASNER,
    PHASE,
    PHASE_PLAIN,
    RATIONALS,
    SIGN,
    TRIANGLE,
    TROPICAL,
    HFElement,
    Hyperfield,
    eq,
    gf,
    inv,
    mul,
    neg,
    sample_element,
    signed,
    zero_in_sum,
)

from .errors import (  # noqa: F401
    ConsistencyError,
    InputError,
    InvalidDualPairError,
    MismatchError,
    RatioInconsistencyError,
)

from .vectors import (  # noqa: F401
    FVector,
    GroundSet,
    orthogonal,
    projectively_equal,
    scalar_mul,
    support,
)

from .matroids import ClassicalMatroid, validate_circuits  # noqa: F401

from .axioms import check_hyperfield_axioms  # noqa: F401

from .circuits import (  # noqa: F401
    CircuitSignature,
    check_C0_C2,
    check_C3_doubleprime,
    check_strong_elimination,
    check_weak_elimination,
)

from .gp import (  # noqa: F401
    Classification,
    GPFunction,
    check_gp_strong,
    check_gp_weak,
    circuits_from_gp,
    classify,
    cocircuit_signature_from_circuits,
    dual_pair_witness,
    gp_from_dual_pair,
    nonorthogonal_pair,
    orthogonality_verdict,
    relation_terms,
)

from .transforms import (  # noqa: F401
    HyperfieldHom,
    dual_gp,
    minor_circuits,
    minor_gp,
    pushforward_circuits,
    pushforward_gp,
    rational_padic,
    rational_sign,
    to_krasner,
)

from .serialization import (  # noqa: F401
    hyperfield_from_id,
    parse_object,
    parse_text,
    serialize,
    to_jsonable,
)

from .corpus import CORPUS, CorpusEntry, corpus_entries, get_entry, run_demo  # noqa: F401

from .experiments import (  # noqa: F401
    ExperimentConfig,
    config_from_json,
    random_weak_gp,
    run_perfection_experiment,
)
