"""The package's public names, which load on first use."""

import ast
import copy
import importlib
import pathlib

import numpy as np
import pytest

import exqip
from exqip import channels, combs, fileio, gqi, linalg, testers
from populations import golden_objects

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


def _not_extremal():
    return gqi.is_extremal(channels.combination_fixture(6))


# One instance of each public record, built when its test runs, and one of
# its fields.
RECORDS = {
    "TolerancePolicy": (lambda: linalg.TolerancePolicy(1e-6), "eps_rel"),
    "EigenDecomposition": (lambda: linalg.hermitian_eig(np.eye(2)), "values"),
    "CombSignature": (lambda: combs.CombSignature((2, 2)), "dims"),
    "Gqi": (lambda: gqi.Gqi(combs.CombSignature((2, 1)), (np.eye(2) / 2,) * 2), "outcomes"),
    "Povm": (lambda: gqi.Povm(2, (np.eye(2) / 2,) * 2), "signature"),
    "CombVerdict": (lambda: combs.CombVerdict(True, (0.0,)), "reduced"),
    "GqiVerdict": (lambda: gqi.is_valid_gqi(channels.combination_fixture(6)), "spectra"),
    "Perturbation": (lambda: _not_extremal().perturbation, "epsilon_star"),
    "ExtremalityCertificate": (_not_extremal, "perturbation"),
    "Kind": (lambda: fileio.KINDS["povm"], "cls"),
    "InstrumentRankBound": (lambda: channels.instrument_rank_bound(channels.combination_fixture(1)), "ok"),
    "CombinationTriple": (lambda: channels.CombinationTriple(True, False, True), "povm"),
    "TesterBounds": (lambda: testers.check_bounds(testers.schmidt_tester(0.3)), "rank_bound_ok"),
    "TwoOutcomeQubitVerdict": (lambda: testers.classify_two_outcome_qubit(testers.schmidt_tester(0.3)), "case"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    """Assigning or deleting a field of a public record, or adding an
    attribute, raises AttributeError and leaves the record as it was."""
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    for change in (lambda: setattr(record, field, None), lambda: delattr(record, field),
                   lambda: setattr(record, "added", None)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(record, field) is before and not hasattr(record, "added")


@pytest.mark.parametrize(
    "build, same, other, shown",
    [
        (linalg.TolerancePolicy, (1e-6, 1e-6), (1e-6, 1e-7), "TolerancePolicy(eps_rel=1e-06)"),
        (combs.CombSignature, ((2, 2), (np.int64(2), 2)), ((2, 2), (2, 3)), "CombSignature(dims=(2, 2))"),
    ],
    ids=["TolerancePolicy", "CombSignature"],
)
def test_cache_keys_compare_and_hash_by_value(build, same, other, shown):
    """The records that key the shape caches are equal, with equal hashes,
    exactly when their fields are; neither equals its field's value."""
    a, b = (build(x) for x in same)
    assert a == b and hash(a) == hash(b) and a is not b
    c, d = (build(x) for x in other)
    assert c != d
    assert a != same[0] and a != (same[0],)
    assert repr(a) == repr(b) == shown


def _witness(direction=1.0):
    return gqi.Perturbation((np.array([[direction]]), np.array([[-1.0]])), np.zeros((1, 1)), 0.5)


WITNESS = "Perturbation(directions=(array([[1.]]), array([[-1.]])), delta=array([[0.]]), epsilon_star=0.5)"


@pytest.mark.parametrize(
    "build, changed, shown",
    [
        (
            lambda k: combs.CombVerdict(True, (0.0,), (np.eye(k + 1),)),
            lambda: combs.CombVerdict(True, (1e-9,)),
            "CombVerdict(ok=True, level_residuals=(0.0,))",
        ),
        (
            lambda k: gqi.GqiVerdict(True, (0.0, 0.5), combs.CombVerdict(True, (0.0,)), None, (k,)),
            lambda: gqi.GqiVerdict(False, (0.0, 0.5), combs.CombVerdict(True, (0.0,)), None, ()),
            "GqiVerdict(ok=True, outcome_min_eigenvalues=(0.0, 0.5), "
            "comb_verdict=CombVerdict(ok=True, level_residuals=(0.0,)))",
        ),
        (lambda k: _witness(), lambda: _witness(2.0), WITNESS),
        (
            lambda k: gqi.ExtremalityCertificate(True, 13, 13, (1,), 12, None, 0.5, k or None),
            lambda: gqi.ExtremalityCertificate(True, 13, 13, (1,), 12, None, 0.25),
            "ExtremalityCertificate(extremal=True, family_size=13, rank=13, support_ranks=(1,), "
            "normalization_basis_size=12, perturbation=None, margin=0.5)",
        ),
        (
            # One twin's witness is pending until equality, hash or repr reads it.
            lambda k: gqi.ExtremalityCertificate(False, 20, 16, (2, 2), 12, _witness if k else _witness()),
            lambda: gqi.ExtremalityCertificate(False, 20, 16, (2, 2), 12, _witness(2.0)),
            "ExtremalityCertificate(extremal=False, family_size=20, rank=16, support_ranks=(2, 2), "
            f"normalization_basis_size=12, perturbation={WITNESS}, margin=None)",
        ),
    ],
    ids=["CombVerdict", "GqiVerdict", "Perturbation", "ExtremalityCertificate-extremal",
         "ExtremalityCertificate-not-extremal"],
)
def test_verdicts_compare_hash_and_show_by_value(build, changed, shown):
    """Twins that differ only in fields left out of the comparison are
    equal, with equal hashes; a changed compared field makes a record
    unequal, and the repr shows the compared fields alone."""
    a, b = build(0), build(1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != changed() and changed() != a
    assert repr(a) == repr(b) == shown


@pytest.mark.parametrize("name", ["EigenDecomposition", "Gqi", "Povm", "Kind"])
def test_records_without_compared_fields_compare_by_identity(name):
    """A copy with the very same fields is not equal, and hash and repr are
    object's own."""
    record = RECORDS[name][0]()
    twin = copy.copy(record)
    assert vars(twin).keys() == vars(record).keys() and twin is not record
    assert record == record and record != twin
    assert hash(record) == object.__hash__(record) and repr(record) == object.__repr__(record)


def test_certificates_of_both_verdicts_key_a_dict():
    objects = golden_objects() + [channels.combination_fixture(6)]
    first, second = gqi.decide_all(objects), gqi.decide_all(objects)
    assert {cert.extremal for cert in first} == {True, False}
    keyed = dict.fromkeys(first)
    assert all(twin in keyed for twin in second)
    assert [hash(cert) for cert in first] == [hash(cert) for cert in second]


# The methods that give a record its equality, hash and repr, and the one
# class allowed each: linalg.Record holds the rule for every record, and a
# witness compares its arrays entry by entry and hashes its step.
VALUE_METHODS = {"__eq__", "__hash__", "__repr__"}
DEFINED_BY = {("linalg", "Record"): VALUE_METHODS, ("gqi", "Perturbation"): {"__eq__", "__hash__"}}


def test_only_record_defines_equality_hash_and_repr():
    found = {}
    for path in sorted(pathlib.Path(exqip.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            if names & VALUE_METHODS:
                found[(path.stem, node.name)] = names & VALUE_METHODS
    assert found == DEFINED_BY


def test_signature_properties_are_cached_per_instance():
    a, b = combs.CombSignature((2, 3)), combs.CombSignature((2, 3))
    assert a.total_dim == 6 and "total_dim" in vars(a) and "total_dim" not in vars(b)
