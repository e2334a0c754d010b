"""exqip: extremality of quantum protocols via positive-operator representations.

Represent deterministic combs, generalized instruments, 1-testers, channels,
instruments, and POVMs as positive operators; validate their normalization
structure; decide extremality by linear-independence rank tests; and
constructively decompose non-extremal objects into convex combinations.

The public names below load on first use (PEP 562): ``import exqip`` imports
no submodule, and ``exqip.is_extremal`` imports only the modules that define
it.
"""

import importlib
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "channels": (
        "APPENDIX_TABLE", "CombinationTriple", "InstrumentRankBound",
        "channel_extremal_theorem1", "channel_from_kraus", "channel_kraus", "choi_condition",
        "choi_to_kraus", "classify_combination", "combination_fixture", "induced_channel",
        "induced_povm", "instrument_extremal", "instrument_extremal_rank_test",
        "instrument_from_kraus", "instrument_kraus", "instrument_rank_bound",
        "is_valid_channel", "is_valid_instrument", "kraus_to_choi", "luders_instrument",
        "random_channel", "random_instrument", "random_unitary", "sqrt_instrument",
    ),
    "combs": (
        "Channel", "CombSignature", "CombVerdict", "DeterministicComb", "Gqi", "GqiVerdict",
        "Instrument", "Povm", "Tester", "central_comb", "comb_variable_count",
        "is_deterministic_comb", "is_valid_gqi", "random_deterministic_comb", "reduced_comb",
        "validate_all",
    ),
    "errors": (
        "DimensionMismatchError", "ExqipError", "ExtremalInputError", "FileFormatError",
        "NotHermitianError", "NotPositiveError", "SizeLimitError", "ToleranceError", "ValidationError",
    ),
    "gqi": (
        "ExtremalityCertificate", "Perturbation", "decide_all", "decompose", "decompose_step",
        "is_extremal", "mix", "perturbation_feasible", "perturbation_slack",
    ),
    "linalg": ("DEFAULT_TOL", "TolerancePolicy"),
    "testers": (
        "TesterBounds", "TwoOutcomeQubitVerdict", "check_bounds",
        "classify_two_outcome_qubit", "is_extremal_tester", "is_valid_tester",
        "povm_is_extremal", "povm_is_valid", "schmidt_tester", "split_outcome",
        "tester_from_pure_normalization", "xi_inverse", "xi_transform",
    ),
}
# Each public name's submodule, by its full name.
_SOURCE = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("channels", "cli", "combs", "commands", "errors", "fileio", "gqi", "linalg", "suites", "testers")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # Looked up on every access, not cached here, so the package always
    # shows what its submodule holds now.  A submodule already imported is
    # read from sys.modules, which costs a dict lookup; only its first use
    # goes through the import system.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        module = _SOURCE[name]
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
