"""exqip: extremality of quantum protocols via positive-operator representations.

Represent deterministic combs, generalized instruments, 1-testers, channels,
instruments, and POVMs as positive operators; validate their normalization
structure; decide extremality by linear-independence rank tests; and
constructively decompose non-extremal objects into convex combinations.
"""

__version__ = "0.1.0"

from .channels import (
    APPENDIX_TABLE,
    Channel,
    CombinationTriple,
    Instrument,
    InstrumentRankBound,
    channel_extremal_theorem1,
    channel_from_kraus,
    channel_kraus,
    choi_condition,
    choi_to_kraus,
    classify_combination,
    combination_fixture,
    induced_channel,
    induced_povm,
    instrument_extremal,
    instrument_extremal_rank_test,
    instrument_from_kraus,
    instrument_kraus,
    instrument_rank_bound,
    is_valid_channel,
    is_valid_instrument,
    kraus_to_choi,
    luders_instrument,
    random_channel,
    random_instrument,
    random_unitary,
    sqrt_instrument,
)
from .combs import (
    CombSignature,
    CombVerdict,
    DeterministicComb,
    central_comb,
    comb_variable_count,
    is_deterministic_comb,
    random_deterministic_comb,
    reduced_comb,
)
from .errors import (
    DimensionMismatchError,
    ExqipError,
    ExtremalInputError,
    FileFormatError,
    NotHermitianError,
    NotPositiveError,
    SizeLimitError,
    ValidationError,
)
from .gqi import (
    ExtremalityCertificate,
    ExtremalityProfile,
    Gqi,
    GqiVerdict,
    Perturbation,
    decompose_step,
    extremality_profile,
    is_extremal,
    is_valid_gqi,
    mix,
    perturbation_feasible,
    perturbation_slack,
)
from .linalg import DEFAULT_TOL, TolerancePolicy
from .testers import (
    Povm,
    Tester,
    TesterBounds,
    TwoOutcomeQubitVerdict,
    check_bounds,
    classify_two_outcome_qubit,
    is_extremal_tester,
    is_valid_tester,
    povm_is_extremal,
    povm_is_valid,
    schmidt_tester,
    split_outcome,
    tester_from_pure_normalization,
    xi_inverse,
    xi_transform,
)
