"""The kind table and the CLI output of every object kind.

``tests/golden_cli/`` holds one operator file per object kind, plus two
testers whose rho is rank-deficient, with the ``exqip validate`` and
``exqip extremal`` JSON that the program printed for them before the tester
and POVM routes were folded into the GQI rank test (``expected.json``).  The
gqi and povm fixtures have an outcome of full support, so their epsilon*
belongs to the exchange witness of the full-support exit and was recorded
when that exit was added.
"""

import contextlib
import io
import json
import os

import pytest

from exqip import cli, fileio
from exqip.gqi import Gqi

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli")
KIND_FIXTURES = ["comb", "gqi", "tester", "channel", "instrument", "povm"]
# Testers on a pure normalization rho = |phi><phi| (d1 = 2, r = 1).
RANK_DEFICIENT = {"pure-normalization-tester", "pure-normalization-tester-mixed"}

with open(os.path.join(GOLDEN, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def fixture_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_table_covers_the_six_kinds():
    assert list(fileio.KINDS) == KIND_FIXTURES


@pytest.mark.parametrize("name", KIND_FIXTURES)
def test_round_trip_through_gqi_view(name, tmp_path):
    """object -> file -> object -> GQI view -> object -> file, byte-identical."""
    obj = fileio.load_object(fixture_path(name))
    kind = fileio.kind_of(obj)
    assert kind.name == name
    view = Gqi(obj.signature, obj.outcomes)
    back = kind.build(view.signature, view.outcomes)
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
    with open(fixture_path(name), encoding="utf-8") as fh:
        payload = json.load(fh)
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
    """Identical to the recorded output, except:

    * epsilon* within 1e-12 relative;
    * testers with a rank-deficient rho: the pooled family now holds all
      d1^2 - 1 variable directions of the signature (1, d1, d2, 1), not the
      r^2 - 1 supported under rho.  The extra d1^2 - r^2 members are
      independent of the rest, so ``family_size`` and ``rank`` both grow by
      d1^2 - r^2 = 3 and the verdict stays.  The null space is the same, but
      the SVD picks another null vector from it, so epsilon* belongs to
      another (sound) witness.
    """
    for command, want in EXPECTED[name].items():
        code, out = run(command, fixture_path(name))
        assert code == want["exit"]
        got, want = json.loads(out), dict(want["stdout"])
        if command == "extremal":
            eps, want_eps = got.pop("epsilon_star"), want.pop("epsilon_star")
            assert (eps is None) == (want_eps is None)
            if name in RANK_DEFICIENT:
                assert eps is None or eps > 0.0
                want["family_size"] += 3
                want["rank"] += 3
            elif eps is not None:
                assert abs(eps - want_eps) <= 1e-12 * abs(want_eps)
        assert got == want
