"""The epsilon* step against the doubling/bisection search it replaces.

``gqi.max_perturbation_step`` starts from a closed-form estimate (the
generalized-eigenvalue form of Choi's positivity argument, with the working
margin frozen at epsilon = 0), brackets it and refines the bracket on
``gqi.perturbation_slack``.  The oracle below is the former search: an upper
bound from lambda_max(T_i) / |D_i|_2, up to 64 doublings until positivity
fails, then 60 bisection steps on ``gqi.perturbation_feasible``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exqip import channels, combs, gqi, linalg, suites
from exqip.combs import CombSignature
from exqip.errors import ValidationError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL


def bisection_oracle(outcomes, directions, pol=DEFAULT_TOL):
    """Largest feasible epsilon by doubling, then 60 bisection steps."""

    def feasible(eps):
        return gqi.perturbation_feasible(outcomes, directions, eps, pol)

    hi = None
    for t, d in zip(outcomes, directions):
        dnorm = float(np.linalg.norm(d, 2))
        if dnorm < 1e-300:
            continue
        bound = float(np.linalg.eigvalsh(t)[-1]) / dnorm
        hi = bound if hi is None else min(hi, bound)
    if hi is None:
        raise ValidationError("all perturbation directions vanish")
    hi = max(hi, 1e-300)
    attempts = 0
    while feasible(hi) and attempts < 64:
        hi *= 2.0
        attempts += 1
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def feasibility_oracle(outcomes, directions, eps, pol=DEFAULT_TOL):
    """The per-matrix test: lambda_min >= -supp_tol(dim, lambda_max) / 2."""
    for t, d in zip(outcomes, directions):
        for a in (t + eps * d, t - eps * d):
            w = np.linalg.eigvalsh(a)
            if w[0] < -0.5 * pol.supp_tol(a.shape[0], float(w[-1])):
                return False
    return True


def unitary_choi(u):
    v = u.ravel()
    return np.outer(v, v.conj())


def product_comb(sig, rng):
    """Rank-one comb of independent unitary teeth (every tooth square)."""
    op = np.eye(1, dtype=complex)
    for n in range(sig.n):
        op = np.kron(unitary_choi(channels.random_unitary(sig.dims[2 * n], rng)), op)
    return op


def ladder_population():
    """Non-extremal GQIs of the signature ladder: midpoints of two comb
    draws, and two-outcome GQIs whose outcomes are halves of two combs."""
    out = []
    for dims, draws in (((2, 2), 12), ((2, 2, 2, 2), 3), ((2, 3, 3, 2), 1)):
        sig = CombSignature(dims)
        square = all(dims[2 * n] == dims[2 * n + 1] for n in range(sig.n))
        rng = np.random.default_rng([sig.total_dim, 4])
        for _ in range(draws):
            if square:
                a, b = product_comb(sig, rng), product_comb(sig, rng)
            else:
                a = combs.random_deterministic_comb(sig, rng, spread=1.0).operator
                b = combs.random_deterministic_comb(sig, rng, spread=1.0).operator
            out.append(Gqi(signature=sig, outcomes=(0.5 * (a + b),)))
            c = combs.random_deterministic_comb(sig, rng, spread=0.9).operator
            e = combs.random_deterministic_comb(sig, rng, spread=0.9).operator
            out.append(Gqi(signature=sig, outcomes=(0.5 * c, 0.5 * e)))
    return out


def acceptance_07_population():
    return [suites.random_nonextremal_gqi(np.random.default_rng(70_000 + s)) for s in range(50)]


def witnesses(population):
    out = []
    for g in population:
        cert = gqi.is_extremal(g)
        assert not cert.extremal
        out.append((g.outcomes, cert.perturbation.directions))
    return out


@pytest.fixture(scope="module")
def steps():
    """(outcomes, directions, oracle epsilon) for both populations."""
    pairs = witnesses(acceptance_07_population()) + witnesses(ladder_population())
    return [(t, d, bisection_oracle(t, d)) for t, d in pairs]


def test_agrees_with_bisection(steps):
    worst = 0.0
    for t, d, ref in steps:
        eps = gqi.max_perturbation_step(t, d)
        assert ref > 0
        worst = max(worst, abs(eps - ref) / ref)
    assert worst <= 1e-12


def test_feasible_at_step_and_infeasible_beyond(steps):
    for t, d, _ in steps:
        eps = gqi.max_perturbation_step(t, d)
        assert gqi.perturbation_feasible(t, d, eps)
        assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))


def test_probes_per_step(steps, monkeypatch):
    probes = []
    slack = gqi.perturbation_slack

    def counted(*args, **kwargs):
        probes.append(1)
        return slack(*args, **kwargs)

    monkeypatch.setattr(gqi, "perturbation_slack", counted)
    for t, d, _ in steps:
        gqi.max_perturbation_step(t, d)
    # The former search made 62 or more probes per step.
    assert len(probes) / len(steps) <= 16


def test_feasibility_matches_per_matrix_test(steps):
    for t, d, ref in steps[::5]:
        for eps in (0.0, 0.5 * ref, ref, ref * (1.0 + 1e-9), 2.0 * ref):
            assert gqi.perturbation_feasible(t, d, eps) == feasibility_oracle(t, d, eps)
            assert (gqi.perturbation_slack(t, d, eps) >= 0.0) == gqi.perturbation_feasible(t, d, eps)


class TestEdgeCases:
    def test_one_outcome_without_direction(self):
        rng = np.random.default_rng(3)
        u = channels.random_unitary(2, rng)
        t = (0.5 * np.eye(2, dtype=complex), u @ np.diag([1.0, 0.0]) @ u.conj().T)
        d = (np.zeros((2, 2), dtype=complex), u @ np.diag([0.3, 0.0]) @ u.conj().T)
        eps = gqi.max_perturbation_step(t, d)
        ref = bisection_oracle(t, d)
        assert abs(eps - ref) <= 1e-12 * ref
        assert gqi.perturbation_feasible(t, d, eps)
        assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))

    def test_direction_off_support_is_margin_limited(self, monkeypatch):
        # D couples the support of T = diag(1, 0) to its kernel, so only the
        # working margin m keeps T +/- eps D feasible: eps* = sqrt(m (1 + m)),
        # with m = supp_tol(2, lambda_max) / 2 and lambda_max = 1 + O(eps^2).
        # The closed form covers this case, so the first bracket holds.
        t = (np.diag([1.0, 0.0]).astype(complex),)
        d = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),)
        probes = []
        slack = gqi.perturbation_slack
        monkeypatch.setattr(gqi, "perturbation_slack", lambda *a: probes.append(1) or slack(*a))
        eps = gqi.max_perturbation_step(t, d)
        assert len(probes) <= 4
        monkeypatch.undo()
        m = 0.5 * DEFAULT_TOL.supp_tol(2, 1.0 + eps**2)
        assert eps == pytest.approx(np.sqrt(m * (1.0 + m)), rel=1e-8)
        assert eps == pytest.approx(bisection_oracle(t, d), rel=1e-8)
        assert gqi.perturbation_feasible(t, d, eps)
        assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))

    def test_eigenvalue_below_working_margin_gives_zero(self):
        # -1.5e-10 passes validation (supp_tol = 2e-10) but lies below the
        # working margin -m = -1e-10, so no epsilon is feasible.
        t = (np.diag([1.0, -1.5e-10]).astype(complex),)
        assert -DEFAULT_TOL.supp_tol(2, 1.0) <= -1.5e-10 < -0.5 * DEFAULT_TOL.supp_tol(2, 1.0)
        d = (np.diag([1.0, 0.0]).astype(complex),)
        assert gqi.max_perturbation_step(t, d) == 0.0
        assert bisection_oracle(t, d) == 0.0

    def test_all_directions_vanish(self):
        with pytest.raises(ValidationError, match="vanish"):
            gqi.max_perturbation_step([np.eye(2), np.eye(2)], [np.zeros((2, 2))] * 2)


def random_hermitian_in_support(t, rng):
    u = linalg.support_vectors(t)
    r = u.shape[1]
    h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return u @ (h + h.conj().T) @ u.conj().T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3]),
    counts=st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1)]),
    mixed=st.booleans(),
)
def test_property_step_is_maximal_and_matches_oracle(seed, d, counts, mixed):
    rng = np.random.default_rng(seed)
    ins = channels.random_instrument(d, d, counts, rng)
    g = Gqi(ins.signature, ins.outcomes)
    if mixed:
        other = channels.random_instrument(d, d, counts, rng)
        g = gqi.mix(g, Gqi(other.signature, other.outcomes), rng.uniform(0.2, 0.8))
    assert gqi.is_valid_gqi(g).ok
    directions = tuple(random_hermitian_in_support(t, rng) for t in g.outcomes)
    eps = gqi.max_perturbation_step(g.outcomes, directions)
    assert eps > 0
    assert gqi.perturbation_feasible(g.outcomes, directions, eps)
    assert not gqi.perturbation_feasible(g.outcomes, directions, eps * (1.0 + 1e-6))
    ref = bisection_oracle(g.outcomes, directions)
    if abs(eps - ref) > 1e-12 * ref:
        # A small step can sit where the slack moves by less than its rounding
        # error over a relative 1e-12; then both searches stop on a sign change
        # of the rounded slack, and both ends lie inside the rounding band.
        scale = np.finfo(float).eps * max(1.0, max(float(np.abs(np.linalg.eigvalsh(t)).max()) for t in g.outcomes))
        for x in (eps, ref):
            assert 0.0 <= gqi.perturbation_slack(g.outcomes, directions, x) <= scale
