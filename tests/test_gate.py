"""One validity gate for every kind and entry point.

``combs._require_valid`` is the only code that refuses an object whose
validity verdict failed.  Every criterion of every kind, and the CLI, raise
its one message, ``invalid GQI: outcome min eigenvalues (...), cascade
residuals (...)``; ``decide_all`` leads it with the member index.

Also here: the empty signature, N = 0, whose one cascade residual compares
the sum of the outcomes with R^(0) = 1.
"""

import json

import numpy as np
import pytest

from exqip import channels, combs, fileio, gqi, testers
from exqip.combs import CombSignature, DeterministicComb
from exqip.errors import ValidationError
from exqip.gqi import Channel, Gqi, Instrument, Povm, Tester
from populations import run_cli


def invalid_tester():
    t = testers.schmidt_tester(0.3)
    return Tester(d2=2, d1=2, outcomes=(t.outcomes[0], t.outcomes[1] + np.diag([0.1, 0, 0, 0])))


def invalid_objects():
    """One invalid object of each kind, by positivity or by the cascade."""
    comb = combs.central_comb(CombSignature((2, 2, 2, 2))).operator
    return {
        "channel": Channel(d1=2, d0=2, choi=np.eye(4)),
        "instrument": Instrument(d1=2, d0=2, operators=(np.eye(4) / 2, np.eye(4) / 2)),
        "tester": invalid_tester(),
        "povm": Povm(2, (np.diag([1.1, 0.0]), np.diag([-0.1, 1.0]))),
        "comb": DeterministicComb(CombSignature((2, 2, 2, 2)), 1.1 * comb),
        "gqi": Gqi(CombSignature((2, 2, 2, 2)), (comb / 2, 0.6 * comb)),
    }


def entry_points(kind):
    """The functions that decide an object of ``kind``."""
    points = [gqi.is_extremal]
    if kind in ("channel", "instrument"):
        points += [
            channels.choi_condition,
            channels.channel_extremal_theorem1,
            channels.instrument_extremal,
            channels.instrument_rank_bound,
        ]
    if kind == "tester":
        points += [testers.is_extremal_tester, testers.check_bounds, testers.classify_two_outcome_qubit]
    if kind == "povm":
        points.append(testers.povm_is_extremal)
    return points


def gate_message(g):
    verdict = gqi.is_valid_gqi(g)
    assert not verdict.ok
    return (
        f"invalid GQI: outcome min eigenvalues {verdict.outcome_min_eigenvalues}, "
        f"cascade residuals {verdict.comb_verdict.level_residuals}"
    )


@pytest.mark.parametrize("kind", list(invalid_objects()))
class TestOneMessage:
    def test_every_function(self, kind):
        g = invalid_objects()[kind]
        message = gate_message(g)
        for decide in entry_points(kind):
            with pytest.raises(ValidationError) as err:
                decide(g)
            assert str(err.value) == message, decide.__name__
        good = Povm(2, (np.eye(2) / 2, np.eye(2) / 2))
        with pytest.raises(ValidationError) as err:
            gqi.decide_all([good, g])
        assert str(err.value) == f"member 1: {message}"

    def test_cli(self, kind, tmp_path):
        g = invalid_objects()[kind]
        path = tmp_path / f"{kind}.json"
        fileio.save_object(path, g)
        assert fileio.kind_of(fileio.load_object(path)).kind == kind
        line = f"error: {gate_message(g)}\n"
        assert run_cli(["extremal", path]) == (1, "", line)
        assert run_cli(["decompose", path, "--steps", 2, "--out", tmp_path / "tree"]) == (1, "", line)
        assert not (tmp_path / "tree").exists()


class TestEmptySignature:
    """The GQI on the signature [] has outcomes 1 x 1 summing to R^(0) = 1."""

    def save(self, tmp_path, values):
        path = tmp_path / "empty.json"
        fileio.save_object(path, Gqi(CombSignature(()), tuple(np.array([[x]]) for x in values)))
        return path

    def test_sum_below_one_is_invalid(self, tmp_path):
        path = self.save(tmp_path, (0.3, 0.3))
        code, out, _ = run_cli(["validate", path])
        report = json.loads(out)
        assert code == 1 and report["valid"] is False
        assert report["cascade_residuals"] == [pytest.approx(0.4, abs=1e-15)]
        message = gate_message(fileio.load_object(path))
        assert message.endswith("cascade residuals (0.4,)")
        assert run_cli(["extremal", path]) == (1, "", f"error: {message}\n")
        assert run_cli(["decompose", path, "--steps", 2, "--out", tmp_path / "tree"])[0] == 1

    def test_halves_are_not_extremal(self, tmp_path):
        path = self.save(tmp_path, (0.5, 0.5))
        code, out, _ = run_cli(["validate", path])
        assert code == 0 and json.loads(out)["cascade_residuals"] == [0.0]
        code, out, _ = run_cli(["extremal", path])
        assert code == 0 and json.loads(out)["verdict"] == "not_extremal"

    def test_one_outcome_is_extremal(self, tmp_path):
        path = self.save(tmp_path, (1.0,))
        code, out, _ = run_cli(["extremal", path])
        assert code == 0 and json.loads(out)["verdict"] == "extremal"

    def test_comb(self):
        sig = CombSignature(())
        assert combs.is_deterministic_comb(np.array([[0.5]]), sig) == combs.CombVerdict(False, (0.5,))
        assert combs.is_deterministic_comb(np.array([[1.0]]), sig) == combs.CombVerdict(True, (0.0,))
        comb = DeterministicComb(sig, np.array([[1.0]]))
        assert combs.reduced_comb(comb, 0).operator.tolist() == [[1.0]]
        with pytest.raises(ValidationError):
            combs.reduced_comb(DeterministicComb(sig, np.array([[0.5]])), 0)
