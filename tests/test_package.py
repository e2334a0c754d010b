"""The package's public names, which load on first use."""

import importlib

import pytest

import exqip
from exqip import channels, gqi, testers

# Every public name of the package, by the module it was first exported
# from.  The classes of the object kinds now live in ``gqi``, and
# ``channels`` and ``testers`` still export them.
PUBLIC = {
    "channels": (
        "APPENDIX_TABLE", "Channel", "CombinationTriple", "Instrument", "InstrumentRankBound",
        "channel_extremal_theorem1", "channel_from_kraus", "channel_kraus", "choi_condition",
        "choi_to_kraus", "classify_combination", "combination_fixture", "induced_channel",
        "induced_povm", "instrument_extremal", "instrument_extremal_rank_test",
        "instrument_from_kraus", "instrument_kraus", "instrument_rank_bound", "is_valid_channel",
        "is_valid_instrument", "kraus_to_choi", "luders_instrument", "random_channel",
        "random_instrument", "random_unitary", "sqrt_instrument",
    ),
    "combs": (
        "CombSignature", "CombVerdict", "DeterministicComb", "central_comb", "comb_variable_count",
        "is_deterministic_comb", "random_deterministic_comb", "reduced_comb",
    ),
    "errors": (
        "DimensionMismatchError", "ExqipError", "ExtremalInputError", "FileFormatError",
        "NotHermitianError", "NotPositiveError", "SizeLimitError", "ToleranceError", "ValidationError",
    ),
    "gqi": (
        "ExtremalityCertificate", "Gqi", "GqiVerdict", "Perturbation", "decide_all", "decompose",
        "decompose_step", "is_extremal", "is_valid_gqi", "mix", "perturbation_feasible",
        "perturbation_slack", "validate_all",
    ),
    "linalg": ("DEFAULT_TOL", "TolerancePolicy"),
    "testers": (
        "Povm", "Tester", "TesterBounds", "TwoOutcomeQubitVerdict", "check_bounds",
        "classify_two_outcome_qubit", "is_extremal_tester", "is_valid_tester", "povm_is_extremal",
        "povm_is_valid", "schmidt_tester", "split_outcome", "tester_from_pure_normalization",
        "xi_inverse", "xi_transform",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_is_the_public_names():
    assert len(NAMES) == 74
    assert sorted(exqip.__all__) == NAMES


@pytest.mark.parametrize("module", PUBLIC)
def test_names_resolve_to_their_modules(module):
    mod = importlib.import_module(f"exqip.{module}")
    for name in PUBLIC[module]:
        assert getattr(exqip, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from exqip import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert all(namespace[name] is getattr(exqip, name) for name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        exqip.nosuch
    assert not hasattr(exqip, "nosuch")


def test_submodules_and_dir():
    assert exqip.suites is importlib.import_module("exqip.suites")
    assert exqip.cli is importlib.import_module("exqip.cli")
    assert set(NAMES) | {"channels", "suites", "__version__"} <= set(dir(exqip))


def test_kind_classes_live_in_gqi():
    assert testers.Tester is gqi.Tester and testers.Povm is gqi.Povm
    assert channels.Channel is gqi.Channel and channels.Instrument is gqi.Instrument
    assert issubclass(gqi.Channel, gqi.Instrument)


def test_lookup_is_not_cached(monkeypatch):
    """A name read once is read again from its submodule on the next access,
    through sys.modules, so a replaced function is what the package shows."""
    assert exqip.is_extremal is gqi.is_extremal

    def replaced(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(gqi, "is_extremal", replaced)
    assert exqip.is_extremal is replaced
    monkeypatch.undo()
    assert exqip.is_extremal is gqi.is_extremal
