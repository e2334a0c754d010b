"""The paper's independent criteria, each one kernel over a population.

``channels._kraus_criterion`` decides the Kraus-product criterion (Choi's
criterion for a channel) and ``testers._bounds`` the tester counting bounds
of a whole population: the gate refuses the first invalid member, in order;
then one Kraus stack, one batched product K_m^dagger K_n and one
values-only ``svd`` per group of (d1, d0, support ranks), and one stacked
``eigvalsh`` of the rho's.  ``instrument_extremal`` (``choi_condition``)
and ``check_bounds`` are the kernels on a stack of one, and the support
ranks come from the verdicts.  The oracles are the former per-object
functions (``oracles.kraus_criterion``, ``oracles.check_bounds``,
``oracles.instrument_rank_bound``).  The suites call each kernel once per
pass.
"""

import numpy as np
import pytest

from exqip import channels, gqi, linalg, suites, testers
from exqip.channels import APPENDIX_TABLE
from exqip.errors import DimensionMismatchError, ValidationError
from exqip.gqi import Instrument
from exqip.linalg import DEFAULT_TOL

import oracles


def bounds_population(seeds):
    """The three testers and the instrument of each seed of ``bounds``."""
    drawn = oracles.suite_population("bounds", seeds)
    return [t for i, t in enumerate(drawn) if i % 4 != 3], drawn[3::4]


def test_kraus_criterion_on_the_equivalence_population():
    chans = oracles.suite_population("equivalence", 200)
    got = channels._kraus_criterion(chans, gqi.validate_all(chans), DEFAULT_TOL)
    assert got == [oracles.kraus_criterion(c) for c in chans]
    assert set(got) == {True, False}
    assert [channels.choi_condition(c) for c in chans] == got


def test_bounds_kernels_on_the_bounds_population():
    ts, instruments = bounds_population(200)
    got = testers._bounds(ts, gqi.validate_all(ts), DEFAULT_TOL)
    assert got == [oracles.check_bounds(t) for t in ts]
    assert {b.ok for b in got} == {b.outcome_bound_applicable for b in got} == {True, False}
    assert [testers.check_bounds(t) for t in ts] == got
    verdicts = gqi.validate_all(instruments)
    kraus = channels._kraus_criterion(instruments, verdicts, DEFAULT_TOL)
    assert kraus == [oracles.kraus_criterion(x) for x in instruments]
    assert set(kraus) == {True, False}
    bounds = [channels.instrument_rank_bound(x, DEFAULT_TOL, v) for x, v in zip(instruments, verdicts)]
    assert bounds == [oracles.instrument_rank_bound(x) for x in instruments]


def test_kraus_criterion_on_the_appendix_fixtures_and_their_channels():
    instruments = [channels.combination_fixture(k) for k in sorted(APPENDIX_TABLE)]
    chans = [channels.induced_channel(x) for x in instruments]
    for population in (instruments, chans, instruments + chans):
        got = channels._kraus_criterion(population, gqi.validate_all(population), DEFAULT_TOL)
        assert got == [oracles.kraus_criterion(x) for x in population]
    signs = [APPENDIX_TABLE[k] for k in sorted(APPENDIX_TABLE)]
    assert channels._kraus_criterion(instruments, [None] * 7, DEFAULT_TOL) == [s[0] == "+" for s in signs]
    assert channels._kraus_criterion(chans, [None] * 7, DEFAULT_TOL) == [s[1] == "+" for s in signs]


def test_gates_refuse_the_first_invalid_member_in_order():
    good = channels.combination_fixture(3)
    invalid = [Instrument(2, 2, (np.eye(4) / 4,)), Instrument(2, 2, (np.eye(4) / 2, np.diag([0.5, 0, 0, -0.5])))]
    with pytest.raises(ValidationError) as own:
        channels.instrument_extremal(invalid[0])
    population = [good, invalid[0], good, invalid[1]]
    with pytest.raises(ValidationError) as got:
        channels._kraus_criterion(population, gqi.validate_all(population), DEFAULT_TOL)
    assert str(got.value) == str(own.value)
    t = testers.schmidt_tester(0.3)
    bad = testers.Tester(2, 2, (t.outcomes[0], 2.0 * t.outcomes[1]))
    with pytest.raises(ValidationError) as own:
        testers.check_bounds(bad)
    with pytest.raises(ValidationError) as got:
        testers._bounds([t, bad, bad], [None] * 3, DEFAULT_TOL)
    assert str(got.value) == str(own.value)


def test_verdicts_spare_the_support_rule(monkeypatch):
    """Given verdicts, the kernels read positivity and the support ranks
    off them: no ``psd`` and no ``support_rank`` of the outcomes runs
    again, and the bounds rank each rho once."""
    chans = oracles.suite_population("equivalence", 5)
    verdicts = gqi.validate_all(chans)
    ts, _ = bounds_population(5)
    tester_verdicts = gqi.validate_all(ts)
    calls = []
    for name in ("psd", "support_rank"):
        fn = getattr(linalg.TolerancePolicy, name)

        def counted(pol, w, _fn=fn, _name=name):
            calls.append((_name, np.shape(w)))
            return _fn(pol, w)

        monkeypatch.setattr(linalg.TolerancePolicy, name, counted)
    channels._kraus_criterion(chans, verdicts, DEFAULT_TOL)
    assert calls == []
    testers._bounds(ts, tester_verdicts, DEFAULT_TOL)
    assert calls == [("support_rank", (len(ts), 2))]


def test_suites_call_each_kernel_once_per_pass(monkeypatch):
    calls = {"kraus": [], "bounds": []}
    kraus, bounds = channels._kraus_criterion, testers._bounds

    def counted_kraus(population, *args):
        calls["kraus"].append(len(population))
        return kraus(population, *args)

    def counted_bounds(population, *args):
        calls["bounds"].append(len(population))
        return bounds(population, *args)

    def per_object(*args, **kwargs):
        raise AssertionError("per-object criterion")

    monkeypatch.setattr(channels, "_kraus_criterion", counted_kraus)
    monkeypatch.setattr(testers, "_bounds", counted_bounds)
    for name in ("instrument_extremal", "choi_condition"):
        monkeypatch.setattr(channels, name, per_object)
    monkeypatch.setattr(testers, "check_bounds", per_object)
    monkeypatch.setattr(suites, "PASS_SEEDS", 3)
    assert suites.run_suite("equivalence", seeds=7).ok
    assert calls == {"kraus": [12, 12, 4], "bounds": []}
    calls["kraus"].clear()
    assert suites.run_suite("bounds", seeds=7).ok
    assert calls["kraus"] == [3, 3, 1] and len(calls["bounds"]) == 3 and sum(calls["bounds"]) > 0
    calls["kraus"].clear()
    assert suites.run_suite("appendix-c").ok
    assert calls["kraus"] == [7, 7]


def test_choi_to_kraus_checks_its_dimensions():
    with pytest.raises(DimensionMismatchError, match=r"^Choi operator of dimension D = 4 is not d1 d0 = 3 x 2$"):
        channels.choi_to_kraus(np.eye(4) / 2, 3, 2)
    assert len(channels.choi_to_kraus(np.eye(4) / 2, 2, 2)) == 4
