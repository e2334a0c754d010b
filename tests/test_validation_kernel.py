"""The validation kernel against the code it replaced, to the bit.

Validation decides positivity by one support rule
(:meth:`TolerancePolicy.psd` / :meth:`TolerancePolicy.support_rank`) and
normalization by one cascade pass (``combs._cascade``), which also yields the
reduced combs: rho of a 1-tester is R^(1) of that pass.  The oracles below
are the former implementations: the per-level ``partial_trace`` /
``_reduce_once`` / ``kron`` loop of ``is_deterministic_comb``, the separate
``tester_normalization``, the cutoff expressions that each module wrote
out by hand, and the GQI verdict that checked the sum of the outcomes as a
comb of its own.
"""

import glob
import math
import os

import numpy as np
import pytest

from exqip import channels, combs, fileio, gqi, linalg, suites, testers
from exqip.combs import CombSignature
from exqip.errors import ToleranceError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL, TolerancePolicy

import oracles
from test_epsilon_star import acceptance_07_population, ladder_population
from test_reduced_rank import ladder_inputs


# ---------------------------------------------------------------------------
# Oracles: the former cascade and tester normalization


def oracle_partial_trace(a, dims, traced):
    a = np.asarray(a, dtype=complex)
    dims = list(int(d) for d in dims)
    t = a.reshape(*dims, *dims)
    n = len(dims)
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + n)
        n -= 1
    keep = math.prod(d for i, d in enumerate(dims) if i not in traced)
    return np.asarray(t).reshape(keep, keep)


def oracle_reduce_once(op, sig, level):
    sub = sig.truncated(level)
    return oracle_partial_trace(op, sub.kron_dims, {0, 1}) / sub.dims[-2]


def oracle_cascade(r, sig):
    """(residuals, reduced combs R^(N-1), ..., R^(0)) of the former loop, on
    the symmetrized operator ``r``; the reduced combs as ``reduced_comb``
    built them, one ``_reduce_once`` per level."""
    residuals, reduced = [], []
    current = r
    for level in range(sig.n, 0, -1):
        sub = sig.truncated(level)
        lhs = oracle_partial_trace(current, sub.kron_dims, {0})
        nxt = oracle_reduce_once(current, sig, level)
        if level == 1:
            rhs = np.eye(sub.dims[0], dtype=complex)
        else:
            rhs = linalg.kron(np.eye(sub.dims[-2], dtype=complex), nxt)
        residuals.append(linalg.max_abs(lhs - rhs))
        reduced.append(nxt)
        current = nxt
    return tuple(residuals), reduced


def oracle_tester_normalization(t, pol=DEFAULT_TOL):
    total = linalg.check_hermitian(sum(t.outcomes), pol)
    rho = oracle_partial_trace(total, (t.d2, t.d1), {0}) / t.d2
    residual = linalg.max_abs(total - linalg.kron(np.eye(t.d2, dtype=complex), rho))
    return rho, residual


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Residuals and reduced combs

# Ladder, tester, channel, POVM and the six-space ladder, with odd shapes.
SIGNATURES = [
    (2, 2),
    (2, 2, 2, 2),
    (2, 3, 3, 2),
    (1, 2, 2, 1),
    (1, 3, 2, 1),
    (2, 3),
    (3, 1),
    (1, 2, 3, 2),
    (3, 1, 1, 2),
    (2, 2, 2, 2, 2, 2),
]


def cascade_inputs(dims):
    """Random combs at several spreads, the same combs perturbed off the
    cascade, and random Hermitian operators."""
    sig = CombSignature(dims)
    rng = np.random.default_rng(list(dims))
    dim = sig.total_dim
    for seed, spread in enumerate((0.0, 0.4, 1.0)):
        comb = combs.random_deterministic_comb(sig, seed=seed, spread=spread).operator
        yield comb
        noise = linalg.unvectorize_hermitian(rng.standard_normal(dim * dim), dim)
        yield comb + 1e-6 * noise
    yield linalg.unvectorize_hermitian(rng.standard_normal(dim * dim), dim)


CASES = [(dims, k) for dims in SIGNATURES for k in range(7)]


@pytest.mark.parametrize("dims,k", CASES)
def test_cascade_matches_former_loop(dims, k):
    sig = CombSignature(dims)
    r = list(cascade_inputs(dims))[k]
    verdict = combs.is_deterministic_comb(r, sig)
    residuals, reduced = oracle_cascade(linalg.check_hermitian(r), sig)
    assert verdict.level_residuals == residuals
    assert len(verdict.reduced) == sig.n
    for got, want in zip(verdict.reduced, reduced):
        assert same_bits(got, want)


@pytest.mark.parametrize("dims", SIGNATURES)
def test_reduced_comb_reads_the_cascade(dims):
    sig = CombSignature(dims)
    comb = combs.random_deterministic_comb(sig, seed=5, spread=0.7)
    _, reduced = oracle_cascade(linalg.check_hermitian(comb.operator), sig)
    assert combs.reduced_comb(comb, sig.n).operator is comb.operator
    for level in range(sig.n):
        got = combs.reduced_comb(comb, level)
        assert got.signature == sig.truncated(level)
        assert same_bits(got.operator, reduced[sig.n - 1 - level])


def test_reduced_combs_take_no_part_in_equality():
    sig = CombSignature((2, 2, 2, 2))
    a = combs.is_deterministic_comb(combs.central_comb(sig).operator, sig)
    b = combs.CombVerdict(a.ok, a.level_residuals)
    assert a == b
    assert "reduced" not in repr(a)


# ---------------------------------------------------------------------------
# rho of a 1-tester


def suite_testers(seeds=200):
    """The testers of the xi-invariance suite, before and after the
    transform, and those of the bounds suite."""
    for seed in range(seeds):
        rng = np.random.default_rng(2000 + seed)
        if seed % 2 == 0:
            t = suites.random_extremal_qubit_tester(rng)
        else:
            t = suites.random_nonextremal_qubit_tester(rng)
        rho = suites.random_full_rank_state(2, rng)
        u = channels.random_unitary(2, rng)
        yield t
        yield testers.xi_transform(t, rho, u)
    for seed in range(seeds):
        rng = np.random.default_rng(3000 + seed)
        yield suites.random_extremal_qubit_tester(rng)
        yield suites.random_nonextremal_qubit_tester(rng)
        yield suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2)))


def test_rho_is_the_former_normalization():
    count = 0
    for t in suite_testers():
        rho, residual = oracle_tester_normalization(t)
        checks = gqi.is_valid_gqi(t).comb_verdict
        assert same_bits(checks.reduced[0], rho)
        assert checks.level_residuals[0] == residual
        got_rho, got_residual = oracles.tester_normalization(t)
        assert same_bits(got_rho, rho)
        assert got_residual == residual
        count += 1
    assert count == 1000


# ---------------------------------------------------------------------------
# The support rule at its cutoff

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps_rel=1e-6)]


def oracle_comb_psd(w, pol):
    """``is_deterministic_comb`` on ascending eigenvalues."""
    w = np.sort(w)
    return bool(w[0] >= -pol.supp_tol(w.size, float(w[-1])))


def oracle_stack_psd(w, pol):
    """``is_valid_gqi`` on a stack of descending eigenvalues."""
    w = -np.sort(-w, axis=-1)
    return w[:, -1] >= -pol.supp_tol(w.shape[-1], w[:, 0])


def oracle_tester_rank(w, pol):
    """The support rank of rho in ``testers`` on ascending eigenvalues."""
    w = np.sort(w)
    cutoff = pol.supp_tol(w.size, float(w[-1]))
    return int(np.count_nonzero(w > cutoff))


def oracle_support_ranks(w, pol):
    """``EigenDecomposition.support_ranks`` on descending eigenvalues."""
    w = -np.sort(-w, axis=-1)
    return np.count_nonzero(w > pol.supp_tol(w.shape[-1], w[..., :1]), axis=-1)


def oracle_full_rank(w, pol):
    """``xi_transform`` on descending eigenvalues."""
    w = -np.sort(-w)
    return not w[-1] <= pol.supp_tol(w.size, float(w[0]))


def at_cutoff(dim, lam_max, pol, rng):
    """Eigenvalue arrays, shuffled, with one value at -tau, at +tau or one
    ulp beyond either, tau = supp_tol(dim, lam_max); with the truth
    (psd, support rank) for each."""
    tau = float(pol.supp_tol(dim, lam_max))
    fill = lam_max * rng.uniform(0.5, 1.0, dim - 2)
    for x, psd, above in (
        (-tau, True, False),
        (np.nextafter(-tau, -np.inf), False, False),
        (np.nextafter(-tau, np.inf), True, False),
        (tau, True, False),
        (np.nextafter(tau, np.inf), True, True),
        (np.nextafter(tau, -np.inf), True, False),
    ):
        w = np.concatenate([[lam_max, x], fill])
        yield rng.permutation(w), psd, dim - 1 + above


@pytest.mark.parametrize("pol", POLICIES)
@pytest.mark.parametrize("dim", [2, 3, 4, 16, 64])
@pytest.mark.parametrize("lam_max", [0.25, 1.0, 5.5])
def test_support_rule_at_the_cutoff(pol, dim, lam_max):
    rng = np.random.default_rng(dim)
    stack, truths = [], []
    for w, psd, rank in at_cutoff(dim, lam_max, pol, rng):
        assert pol.psd(w) == psd == oracle_comb_psd(w, pol)
        assert pol.support_rank(w) == rank == oracle_tester_rank(w, pol)
        assert oracle_full_rank(w, pol) == (pol.support_rank(w) == w.size)
        stack.append(w)
        truths.append((psd, rank))
    stack = np.array(stack)
    assert pol.psd(stack).tolist() == oracle_stack_psd(stack, pol).tolist()
    assert pol.support_rank(stack).tolist() == oracle_support_ranks(stack, pol).tolist()
    assert [(bool(p), int(r)) for p, r in zip(pol.psd(stack), pol.support_rank(stack))] == truths
    eig = linalg.EigenDecomposition(-np.sort(-stack, axis=-1), np.zeros(stack.shape + (dim,)))
    assert eig.support_ranks(pol).tolist() == [r for _, r in truths]


@pytest.mark.parametrize("pol", POLICIES)
@pytest.mark.parametrize("dim", [2, 3, 4, 16, 64])
def test_one_support_pass_at_the_cutoff(pol, dim):
    """``TolerancePolicy._support_pass``, the one pass of validation over
    sorted spectra, gives ``psd`` and ``support_rank`` to the bit, on
    eigenvalues at and one ulp beyond the cutoffs, and refuses a GQI whose
    every support is empty as ``require_support`` does."""
    rng = np.random.default_rng(dim)
    arrays = [w for lam_max in (0.25, 1.0, 5.5) for w, _, _ in at_cutoff(dim, lam_max, pol, rng)]
    # One GQI per three outcomes, eigenvalues descending, as validation sorts them.
    w = -np.sort(-np.array(arrays), axis=-1).reshape(-1, 3, dim)
    positive, ranks = pol._support_pass(w)
    assert positive.dtype == pol.psd(w).dtype and positive.tolist() == pol.psd(w).tolist()
    assert ranks.dtype == pol.support_rank(w).dtype and ranks.tolist() == pol.support_rank(w).tolist()
    pol.require_support(w)
    tau = float(pol.supp_tol(dim, 1.0))
    empty = np.zeros((2, 3, dim))
    empty[1, :, 0] = tau
    with pytest.raises(ToleranceError) as want:
        pol.require_support(empty)
    with pytest.raises(ToleranceError) as got:
        pol._support_pass(empty)
    assert str(got.value) == str(want.value)
    empty[1, 2, 0] = np.nextafter(tau, np.inf)
    pol._support_pass(empty[1:])


def test_support_rule_on_no_eigenvalues():
    w = np.zeros(0)
    assert DEFAULT_TOL.psd(w)
    assert DEFAULT_TOL.support_rank(w) == 0


# ---------------------------------------------------------------------------
# GQI verdicts without a check of the sum of their own


def oracle_gqi_ok(g, pol=DEFAULT_TOL):
    """The former ``is_valid_gqi``: every outcome PSD, and the sum checked as
    a comb of its own, by ``check_hermitian``, ``eigvalsh``, ``psd`` and the
    cascade."""
    h = linalg.check_hermitian_stack(np.array(g.outcomes), pol)
    outcomes_psd = bool(np.all(pol.psd(np.linalg.eigh(h)[0])))
    total = linalg.check_hermitian(g.normalization, pol)
    residuals, _ = oracle_cascade(total, g.signature)
    comb_ok = bool(pol.psd(np.linalg.eigvalsh(total))) and all(r <= pol.eps_comb for r in residuals)
    return outcomes_psd and comb_ok


def golden_gqis():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden_cli", "*.json")))
    for path in paths:
        if not path.endswith("expected.json"):
            obj = fileio.load_object(path)
            yield Gqi(obj.signature, obj.outcomes)


def suite_tester_gqis():
    for t in suite_testers():
        yield Gqi(t.signature, t.outcomes)


def suite_channels_and_instruments(seeds=200):
    """The channels of the equivalence suite and the instruments of the
    bounds suite, drawn as the suites draw them at their default seeds."""
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        for d0, d1 in suites.EQUIVALENCE_DIMS:
            chan = channels.random_channel(d0, d1, int(rng.integers(-(-d0 // d1), d0 * d1 + 1)), rng)
            yield Gqi(chan.signature, chan.outcomes)
    for seed in range(seeds):
        rng = np.random.default_rng(3000 + seed)
        suites.random_extremal_qubit_tester(rng)
        suites.random_nonextremal_qubit_tester(rng)
        suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2)))
        counts = [(1,), (1, 1), (1, 2), (1, 1, 1), (2, 2)][int(rng.integers(0, 5))]
        ins = channels.random_instrument(2, 2, counts, rng)
        yield Gqi(ins.signature, ins.outcomes)


def with_children(population):
    """Each GQI and both children of its decomposition step, which sit on
    the positivity margin."""
    for g in population:
        yield g
        yield from gqi.decompose_step(g)


def ladder_gqis(seeds=10):
    for dims in ((2, 2), (2, 2, 2, 2)):
        for seed in range(seeds):
            yield from ladder_inputs(dims, np.random.default_rng([seed, *dims]))


POPULATIONS = {
    "golden": (golden_gqis, 8),
    "suite-testers": (suite_tester_gqis, 1000),
    "suite-channels-and-instruments": (suite_channels_and_instruments, 1000),
    "acceptance-07": (lambda: with_children(acceptance_07_population()), 150),
    "ladder-splits": (lambda: with_children(ladder_population()), 96),
    "ladder-inputs": (ladder_gqis, 60),
}


@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_gqi_verdicts_do_not_flip(name):
    make, size = POPULATIONS[name]
    count = 0
    for g in make():
        assert gqi.is_valid_gqi(g).ok == oracle_gqi_ok(g)
        count += 1
    assert count == size


def test_band_case_changes_as_documented():
    """A sum S on the cascade with lambda_min(S) = -1.5 supp_tol(4, 1): its
    halves pass as outcomes, so (S/2, S/2) is now valid, while the former
    check of S itself refused it.  S alone fails as the one outcome."""
    sig = CombSignature((2, 2))
    low = -1.5 * DEFAULT_TOL.supp_tol(4, 1.0)
    s = np.diag([1.0 - low, low, low, 1.0 - low]).astype(complex)
    assert combs._cascade(s[None], sig, DEFAULT_TOL.eps_comb, [True])[0].ok
    halves, whole = Gqi(sig, (s / 2, s / 2)), Gqi(sig, (s,))
    assert not oracle_gqi_ok(halves) and gqi.is_valid_gqi(halves).ok
    assert not oracle_gqi_ok(whole) and not gqi.is_valid_gqi(whole).ok
    # Within the stated band: lambda_min(S) >= -sum_i supp_tol(D, lambda_max,i).
    assert low >= -2 * DEFAULT_TOL.supp_tol(4, np.linalg.eigvalsh(s / 2)[-1])
