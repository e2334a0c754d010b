"""The kind table, the kind classes and the CLI output of every object kind.

``tests/golden_cli/`` holds one operator file per object kind, plus two
testers whose rho is rank-deficient, with the ``exqip validate`` and
``exqip extremal`` JSON that the program prints for them
(``expected.json``).  The gqi and povm fixtures have an outcome of full
support, so their epsilon* belongs to the exchange witness of the
full-support exit.  On a rank-deficient rho the pooled family holds all
d1^2 - 1 variable directions of the signature (1, d1, d2, 1), so the
testers' ``family_size`` and ``rank`` count the d1^2 - r^2 = 3 that are not
supported under rho.
"""

import json
import math

import numpy as np
import pytest

from exqip import cli, fileio, gqi
from exqip.combs import CombSignature, DeterministicComb
from exqip.errors import DimensionMismatchError
from exqip.gqi import Channel, Gqi, Instrument, Povm, Tester
from populations import EXPECTED, assert_matches_golden, fixture_path, golden, golden_payload, run_cli

KIND_FIXTURES = ["comb", "gqi", "tester", "channel", "instrument", "povm"]


def test_table_covers_the_six_kinds():
    assert list(fileio.KINDS) == KIND_FIXTURES


# Distinct sizes of the named dimensions of a layout, and the keyword by
# which each kind with a layout takes its outcomes.
SIZES = {"d": 3, "d0": 2, "d1": 3, "d2": 5}
OUTCOMES_KEYWORD = {Tester: "outcomes", Channel: "choi", Instrument: "operators", Povm: "effects"}


@pytest.mark.parametrize("cls", OUTCOMES_KEYWORD, ids=lambda cls: cls.__name__)
def test_layout_is_the_signature_its_constructor_builds(cls):
    """A layout names its file dimensions as the kind's constructor does:
    the constructor, given those dimensions, builds the comb signature that
    ``comb_signature`` makes of them, ``file_signature`` gives them back,
    and the object's properties of those names read them."""
    assert [c for c in fileio.KINDS.values() if c.layout is not None] == list(OUTCOMES_KEYWORD)
    names = [slot for slot in cls.layout if isinstance(slot, str)]
    dims = [SIZES[name] for name in names]
    eye = np.eye(math.prod(dims))
    obj = cls(**dict(zip(names, dims)), **{OUTCOMES_KEYWORD[cls]: eye if cls is Channel else (eye,)})
    assert fileio.comb_signature(cls, dims) == obj.signature
    assert fileio.file_signature(cls, obj.signature) == dims
    assert [getattr(obj, name) for name in names] == dims


@pytest.mark.parametrize("name", KIND_FIXTURES)
def test_round_trip_through_gqi_view(name, tmp_path):
    """object -> file -> object -> GQI view -> object -> file, byte-identical."""
    obj = golden(name)
    cls = fileio.kind_of(obj)
    assert cls.kind == name
    view = Gqi(obj.signature, obj.outcomes)
    back = cls.from_view(view.signature, view.outcomes)
    assert type(back) is type(obj)
    path = tmp_path / "back.json"
    fileio.save_object(path, back)
    with open(fixture_path(name), "rb") as fh:
        assert path.read_bytes() == fh.read()


MALFORMED = {
    "comb": [[2, 2, 2], [0, 2], ["x", 2]],
    "gqi": [[2, 2, 2], [2, 0], [2, None]],
    "tester": [[2], [2, 2, 1], [0, 4]],
    "channel": [[4], [2, 2, 1], [-2, -2]],
    "instrument": [[4], [1, 2, 2], [0, 4]],
    "povm": [[2, 1], [], [0]],
}


@pytest.mark.parametrize("name", KIND_FIXTURES)
def test_malformed_signature_exits_2(name, tmp_path, capsys):
    payload = golden_payload(name)
    first, *rest = payload["signature"]
    # Entries that are not JSON integers, though int() would take them.
    not_integers = [[float(first), *rest], [first + 0.5, *rest], [str(first), *rest], [True, *rest]]
    for signature in MALFORMED[name] + not_integers:
        payload["signature"] = signature
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        for command in ("validate", "extremal"):
            assert cli.main([command, str(path)]) == 2, (signature, command)
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_json_matches_golden(name):
    for command in EXPECTED[name]:
        code, out, _ = run_cli([command, fixture_path(name)])
        assert_matches_golden(name, command, code, out)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_kind_but_the_comb_is_a_gqi(name):
    """Every kind is a Gqi, the comb too."""
    obj = golden(name)
    assert isinstance(obj, Gqi)


def test_kinds_compare_and_hash_by_identity():
    """Equal outcomes in distinct arrays make distinct objects, and neither
    ``==`` nor ``hash`` looks into the arrays."""
    for name in KIND_FIXTURES:
        t, twin = (golden(name) for _ in range(2))
        assert t == t
        assert (t == twin) is False
        assert len({t, twin}) == 2


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_mix_and_decompose_step_keep_the_kind(name, tmp_path):
    """The results are of the input's class and are written and read back
    as its kind."""
    obj = golden(name)
    results = [gqi.mix(obj, obj, 0.25)]
    cert = gqi.is_extremal(obj)
    if not cert.extremal:
        results.extend(gqi.decompose_step(obj, certificate=cert))
    path = tmp_path / "x.json"
    for x in results:
        assert type(x) is type(obj)
        fileio.save_object(path, x)
        back = fileio.load_object(path)
        assert type(back) is type(obj)
        assert back.signature == obj.signature
        assert all(np.array_equal(a, b) for a, b in zip(back.outcomes, x.outcomes))


def test_kind_of_matches_the_exact_class():
    t, c = golden("tester"), golden("channel")
    assert isinstance(t, Gqi) and fileio.kind_of(t).kind == "tester"
    assert isinstance(c, Instrument) and fileio.kind_of(c).kind == "channel"
    assert fileio.kind_of(Gqi.from_view(t.signature, t.outcomes)).kind == "gqi"
    assert fileio.kind_of(Instrument.from_view(c.signature, c.outcomes)).kind == "instrument"


SHAPE_MESSAGE = r"^outcome shape \(3, 3\) does not match signature dimension 4$"


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: Tester(d2=2, d1=2, outcomes=(np.eye(4) / 2, bad)),
        lambda bad: Povm(d=4, effects=(bad,)),
        lambda bad: Instrument(d1=2, d0=2, operators=(bad,)),
        lambda bad: Channel(d1=2, d0=2, choi=bad),
        lambda bad: Tester.from_view(CombSignature((1, 2, 2, 1)), (bad,)),
        lambda bad: Channel.from_view(CombSignature((2, 2)), (bad,)),
        lambda bad: DeterministicComb(CombSignature((2, 2)), bad),
    ],
)
def test_kind_constructors_check_shapes(build):
    with pytest.raises(DimensionMismatchError, match=SHAPE_MESSAGE):
        build(np.eye(3))


def test_plain_gqi_defers_the_shape_check():
    g = Gqi(CombSignature((2, 2)), (np.eye(3),))
    assert type(Gqi.from_view(g.signature, g.outcomes)) is Gqi
    with pytest.raises(DimensionMismatchError, match=SHAPE_MESSAGE):
        gqi.is_valid_gqi(g)
