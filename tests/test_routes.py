"""Testers and POVMs are decided by the GQI rank test; the routes they used
to take are the oracles here.

* Tester-basis route: the supports pooled with the r^2 - 1 operators
  I_2 (x) sigma, sigma traceless and supported under rho
  (``oracles.former_tester_basis``), orthonormalized and projected
  out by QR (``oracles.per_outcome_pipeline``).
* Explicit POVM route: every support basis element of every effect,
  vectorized into one family and ranked at the pooled cutoff.

On the tester signature (1, d1, d2, 1) the comb variable directions are the
d1^2 - 1 operators I_2 (x) sigma, sigma traceless on H_1, so both routes pool
the same family when rho has full rank.  When rho has rank r < d1 the GQI
family holds d1^2 - r^2 more members, all independent of the rest: the rank
and the family size grow by that much and the verdict does not change.
"""

import math

import numpy as np
import pytest

from exqip import channels, gqi, linalg, testers
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL
from exqip.testers import Povm

import oracles
from oracles import former_tester_basis, per_outcome_pipeline as oracle
from populations import random_povm, suite_testers


def former_tester_route(t):
    """(extremal, rank, family_size) of the former tester route."""
    extremal, rank, _, family_size, _ = oracle(Gqi(t.signature, t.outcomes), former_tester_basis(t))
    return extremal, rank, family_size


def explicit_povm_route(p, pol=DEFAULT_TOL):
    """(extremal, rank) of the former POVM route."""
    family = [q for e in p.effects for q in oracles.support_basis(e, pol)]
    decision = oracles.rank_decision(linalg.vectorize_hermitian(np.array(family)), pol)
    return decision.nullvector is None, decision.rank


def pure_normalization_testers(count=30):
    rng = np.random.default_rng(17)
    out = []
    for k in range(count):
        d1, d2 = (2, 2) if k % 3 else (3, 2)
        phi = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
        m = int(rng.integers(1, 4))
        povm = Povm(d=d2, effects=tuple(random_povm(rng, d2, m)))
        out.append(testers.tester_from_pure_normalization(phi / np.linalg.norm(phi), povm))
    return out


def induced_povms(count=60):
    rng = np.random.default_rng(23)
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 4))
        counts = [(1,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1)][rng.integers(0, 7)]
        out.append(channels.induced_povm(channels.random_instrument(d, d, counts, rng)))
    return out


def appendix_povms():
    return [channels.induced_povm(channels.combination_fixture(k)) for k in sorted(channels.APPENDIX_TABLE)]


def assert_sound_witness(t, cert):
    """Both sides of the maximal step are valid GQIs on the tester signature,
    and distinct.  (A side's rho may sit exactly on the tighter tester cutoff
    supp_tol(d1, .), since each outcome is stepped to its own margin.)"""
    plus, minus = gqi.decompose_step(Gqi(t.signature, t.outcomes), certificate=cert)
    assert gqi.is_valid_gqi(plus).ok and gqi.is_valid_gqi(minus).ok
    assert max(linalg.max_abs(a - b) for a, b in zip(plus.outcomes, minus.outcomes)) > 1e-6


def test_suite_testers_agree_with_former_tester_route():
    """Same verdict, rank and family size.  epsilon* agrees to rounding
    level when the null space is one-dimensional; with a larger null space
    the SVD may pick another null vector from it, so only soundness is
    asserted."""
    verdicts = set()
    for t in suite_testers(40, xi=True):
        cert = testers.is_extremal_tester(t)
        assert (cert.extremal, cert.rank, cert.family_size) == former_tester_route(t)
        assert cert.normalization_basis_size == 3
        verdicts.add(cert.extremal)
        if not cert.extremal:
            assert_sound_witness(t, cert)
            if cert.family_size - cert.rank == 1:
                want = oracle(Gqi(t.signature, t.outcomes), former_tester_basis(t))[4]
                assert abs(cert.perturbation.epsilon_star - want) <= 1e-12 * want
    assert verdicts == {True, False}


def test_pure_normalization_testers_agree_with_former_tester_route():
    verdicts = set()
    for t in pure_normalization_testers():
        cert = testers.is_extremal_tester(t)
        extremal, rank, family_size = former_tester_route(t)
        extra = t.d1 ** 2 - 1  # the former route pooled r^2 - 1 = 0 directions
        assert (cert.extremal, cert.rank, cert.family_size) == (extremal, rank + extra, family_size + extra)
        assert cert.normalization_basis_size == t.d1 ** 2 - 1
        verdicts.add(cert.extremal)
        if not cert.extremal:
            assert_sound_witness(t, cert)
    assert verdicts == {True, False}


@pytest.mark.parametrize("population", [induced_povms, appendix_povms], ids=["induced", "appendix"])
def test_povms_agree_with_explicit_route(population):
    verdicts = set()
    for p in population():
        cert = gqi.is_extremal(Gqi(p.signature, p.outcomes))
        assert cert.normalization_basis_size == 0
        assert (cert.extremal, cert.rank) == explicit_povm_route(p)
        assert testers.povm_is_extremal(p) == cert.extremal
        verdicts.add(cert.extremal)
    assert verdicts == {True, False}


def test_closed_form_agrees_on_pure_normalization():
    """The closed form reduces a pure-normalization qubit tester to the POVM
    criterion, which now runs the GQI rank test on the POVM's view."""
    phi = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    two_outcome = [p for p in appendix_povms() + induced_povms() if p.d == 2 and len(p.effects) == 2]
    verdicts = set()
    for p in two_outcome:
        t = testers.tester_from_pure_normalization(phi, p)
        verdict = testers.classify_two_outcome_qubit(t)
        assert verdict.case == "other"
        assert verdict.extremal == explicit_povm_route(p)[0]
        verdicts.add(verdict.extremal)
    assert verdicts == {True, False}


def former_povm_is_valid(p, pol=DEFAULT_TOL):
    """The former POVM check: sum within eps_comb of I, each effect PSD."""
    if linalg.max_abs(sum(p.effects) - np.eye(p.d)) > pol.eps_comb:
        return False
    for e in p.effects:
        w = np.linalg.eigvalsh(linalg.check_hermitian(e, pol))
        if w[0] < -pol.supp_tol(p.d, float(w[-1])):
            return False
    return True


def former_is_valid_tester(t, pol=DEFAULT_TOL):
    """The former tester check: product form and rho a unit-trace state
    within eps_comb and supp_tol(d1, .), each outcome PSD."""
    rho, residual = oracles.tester_normalization(t, pol)
    w = np.linalg.eigvalsh(rho)
    if residual > pol.eps_comb or w[0] < -pol.supp_tol(t.d1, float(w[-1])):
        return False
    if abs(np.trace(rho).real - 1.0) > pol.eps_comb:
        return False
    for op in t.outcomes:
        w = np.linalg.eigvalsh(linalg.check_hermitian(op, pol))
        if w[0] < -pol.supp_tol(op.shape[0], float(w[-1])):
            return False
    return True


def perturbed(outcomes, rng):
    """Outcomes moved by a Hermitian perturbation of size 1e-11 .. 1e-8, around
    the positivity and normalization cutoffs."""
    d = outcomes[0].shape[0]
    out = []
    for t in outcomes:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(t + 10.0 ** rng.uniform(-11, -8) * (g + g.conj().T) / 2)
    return out


def test_validity_unchanged_on_perturbed_objects():
    rng = np.random.default_rng(31)
    seen = set()
    for p in induced_povms(100) + appendix_povms():
        q = Povm(d=p.d, effects=tuple(perturbed(p.effects, rng)))
        assert testers.povm_is_valid(q) == former_povm_is_valid(q)
        seen.add(("povm", former_povm_is_valid(q)))
    for t in suite_testers(20, xi=True) + pure_normalization_testers(20):
        u = testers.Tester(d2=t.d2, d1=t.d1, outcomes=tuple(perturbed(t.outcomes, rng)))
        assert testers.is_valid_tester(u) == former_is_valid_tester(u)
        seen.add(("tester", former_is_valid_tester(u)))
    assert seen == {("povm", True), ("povm", False), ("tester", True), ("tester", False)}
