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
    fold_sum,
    gf,
    inv,
    invol,
    member_of_sum,
    mul,
    neg,
    phase,
    sample_element,
    signed,
    sum_set,
    zero_in_sum,
)

from .errors import (  # noqa: F401
    ConsistencyError,
    GPInconsistencyError,
    InputError,
    InvalidDualPairError,
    MismatchError,
    RatioInconsistencyError,
)

from .vectors import (  # noqa: F401
    FVector,
    GroundSet,
    is_covector_of,
    is_vector_of,
    orthogonal,
    projectively_equal,
    scalar_mul,
    support,
    supp_min,
)

from .matroids import ClassicalMatroid, validate_circuits  # noqa: F401

from .axioms import check_hyperfield_axioms, double_distributivity_witness  # noqa: F401

from .circuits import (  # noqa: F401
    CircuitSignature,
    check_C0_C2,
    check_C3_doubleprime,
    check_strong_elimination,
    check_weak_elimination,
    same_signature,
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
    equivalent_gp,
    gp_from_dual_pair,
    orthogonality_verdict,
    relation_terms,
)

from .transforms import (  # noqa: F401
    HyperfieldHom,
    contract_gp,
    delete_gp,
    dual_circuits,
    dual_gp,
    identity_hom,
    minimal_covectors,
    minor_circuits,
    pushforward_circuits,
    pushforward_gp,
    rational_padic,
    rational_sign,
    to_krasner,
    validate_hom,
)

from .serialization import (  # noqa: F401
    hyperfield_from_id,
    parse_file,
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
    random_weak_signature,
    run_perfection_experiment,
)

from .config import get_eps, set_eps  # noqa: F401
