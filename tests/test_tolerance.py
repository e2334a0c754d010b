"""The two tolerance rules of the GQI core, and the range of eps_rel.

A verdict answers a question only when its cutoffs leave one: some support
must be nonempty (``TolerancePolicy.require_support``, run on every
validation and on a standalone comb), and the rank cutoff taken at sqrt(M)
must lie below sqrt(M) >= sigma_max (``gqi._decide_stack``, run once per
stack of one tuple of support ranks).  Each refusal is a
``ToleranceError``: an ``ExqipError``, so a population names the member, and
a ``ValueError``, so the command line exits 2.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exqip import combs, gqi
from exqip.combs import CombSignature, DeterministicComb, central_comb
from exqip.errors import ToleranceError
from exqip.gqi import Povm
from exqip.linalg import DEFAULT_TOL, TolerancePolicy

import oracles
from populations import drawn_object

EMPTY = "tolerance 0.1 leaves every support empty at dimension 2"
CUTOFF = "tolerance 0.1 puts the rank cutoff at or above every singular value at dimension 2"


def small_effects_povm():
    """Twenty effects I/20: every eigenvalue, 0.05, lies at or below the
    support cutoff supp_tol(2, 0.05) = 2 eps_rel once eps_rel >= 0.025."""
    return Povm(d=2, effects=(np.eye(2) / 20,) * 20)


def projective_povm(n_outcomes):
    """The computational-basis POVM, padded with zero effects to n_outcomes."""
    zero = np.zeros((2, 2))
    return Povm(d=2, effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) + (zero,) * (n_outcomes - 2))


@pytest.mark.parametrize("eps", [0.0, 1.0, math.nan, -1.0, "0.1", None, 1e-10 + 0j])
def test_policy_outside_the_open_unit_interval_is_refused(eps):
    """A number outside (0, 1), or a value that is not a real number, is
    refused with its repr, which for a float is its str."""
    with pytest.raises(ToleranceError, match=rf"^tolerance must lie in \(0, 1\), got {re.escape(repr(eps))}$"):
        TolerancePolicy(eps_rel=eps)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_require_support_is_support_rank_zero(dim):
    """The rule agrees with counting every support by the written-out rule,
    on eigenvalues around both branches, d eps_rel >= 1 and
    lambda <= d eps_rel, and at eps_rel = 1/d, where d eps_rel rounds to 1."""
    rng = np.random.default_rng(dim)
    for eps in (0.01, 0.1, 1.0 / dim, 0.3, 0.6):
        if not 0.0 < eps < 1.0:
            continue
        pol = TolerancePolicy(eps_rel=eps)
        for scale in (0.5 * dim * eps, dim * eps, 2.0 * dim * eps, 1.0, 3.0):
            w = -np.sort(-rng.uniform(0.0, scale, (3, dim)), axis=-1)
            empty = bool((oracles.support_rank(w, pol) == 0).all())
            try:
                pol.require_support(pol.support(w)[1], dim)
            except ToleranceError:
                assert empty
            else:
                assert not empty


def test_standalone_comb_takes_the_support_rule():
    """``is_deterministic_comb`` and so ``reduced_comb`` take the same rule:
    the central comb on (2, 2) is I/2, with D = 4."""
    comb = central_comb(CombSignature((2, 2)))
    for eps in (0.25, 0.125):
        pol = TolerancePolicy(eps_rel=eps)
        with pytest.raises(ToleranceError, match=f"^tolerance {eps:g} leaves every support empty at dimension 4$"):
            combs.is_deterministic_comb(comb.operator, comb.signature, pol=pol)
        with pytest.raises(ToleranceError):
            combs.reduced_comb(comb, 1, pol)
    pol = TolerancePolicy(eps_rel=0.1)
    assert combs.is_deterministic_comb(comb.operator, comb.signature, pol=pol).ok
    assert isinstance(combs.reduced_comb(comb, 1, pol), DeterministicComb)


def test_rank_cutoff_counts_the_rows_past_d_squared():
    """Four effects I/4: m = 16 rows on D^2 = 4, so 16 eps_rel >= 1 is
    refused although D^2 eps_rel < 1.  validate runs no rank test."""
    povm = Povm(d=2, effects=(np.eye(2) / 4,) * 4)
    pol = TolerancePolicy(eps_rel=0.1)
    with pytest.raises(ToleranceError, match=f"^{CUTOFF}$"):
        gqi.is_extremal(povm, pol)
    assert gqi.is_valid_gqi(povm, pol).ok
    assert not gqi.is_extremal(povm, TolerancePolicy(eps_rel=0.05)).extremal


class TestPopulation:
    """A vacuous member of a population is named by its index, as any other
    member fault."""

    pol = TolerancePolicy(eps_rel=0.1)

    def test_empty_member_in_a_stack_of_valid_ones(self):
        """Members 0 to 2 share a signature and shapes, so they are one
        stack; the rule is taken per member of it."""
        population = [projective_povm(20), small_effects_povm(), projective_povm(20), projective_povm(2)]
        for decide in (gqi.validate_all, gqi.decide_all):
            with pytest.raises(ToleranceError, match=f"^member 1: {EMPTY}$"):
                decide(population, self.pol)
        kept = population[:1] + population[2:]
        assert all(v.ok for v in gqi.validate_all(kept, self.pol))
        assert [c.extremal for c in gqi.decide_all(kept, self.pol)] == [True] * 3

    def test_cutoff_member_on_both_routes(self):
        """The rank-cutoff rule runs per stack, in ``gqi._decide_stack``: a
        population names the member, and the member alone raises the same
        error unnamed."""
        population = [projective_povm(2), Povm(d=2, effects=(np.eye(2) / 4,) * 4), projective_povm(2)]
        with pytest.raises(ToleranceError, match=f"^member 1: {CUTOFF}$"):
            gqi.decide_all(population, self.pol)
        with pytest.raises(ToleranceError, match=f"^{CUTOFF}$"):
            gqi.is_extremal(population[1], self.pol)

    def test_lowest_index_over_both_rules(self):
        population = [projective_povm(2), Povm(d=2, effects=(np.eye(2) / 4,) * 4), small_effects_povm()]
        with pytest.raises(ToleranceError, match=f"^member 1: {CUTOFF}$"):
            gqi.decide_all(population, self.pol)
        with pytest.raises(ToleranceError, match=f"^member 2: {EMPTY}$"):
            gqi.validate_all(population, self.pol)


@pytest.fixture
def rank_tests(record):
    return record(gqi, "_rank_test")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["povm", "instrument"]),
    st.sampled_from([2, 3]),
    st.integers(1, 20),
    st.integers(0, 20),
    st.floats(math.log(1e-12), math.log(0.9), exclude_max=True),
)
# The one recorder of the test serves every example, which clears its log.
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_certificate_is_vacuous(rank_tests, seed, kind, d, n_outcomes, n_tiny, log_eps):
    """Either the core refuses the tolerance, or the certificate rests on a
    nonempty family and a rank cutoff below sqrt(M) >= sigma_max; no rank
    test ever runs on a family with no rows."""
    g = drawn_object(seed, kind, d, n_outcomes, n_tiny)
    assert gqi.is_valid_gqi(g, DEFAULT_TOL).ok
    pol = TolerancePolicy(eps_rel=math.exp(log_eps))
    rank_tests.clear()
    try:
        cert = gqi.is_extremal(g, pol)
    except ToleranceError:
        return
    finally:
        assert all(sum(u.shape[-1] ** 2 for u in call.args[1]) > 0 for call in rank_tests)
    assert sum(r * r for r in cert.support_ranks) > 0
    assert gqi._plan(g.signature, cert.support_ranks, pol).bound < math.sqrt(len(cert.support_ranks))
