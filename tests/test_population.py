"""Deciding a population in stacked passes, against one object at a time.

``gqi.validate_all`` and ``gqi.decide_all`` group the objects and run each
stage once per group on a stack with a leading axis; ``is_valid_gqi`` and
``is_extremal`` are the same code on a stack of one.  The reference below is
the former call chain of one object: the cascade of one operator, every
projected row built at once, one SVD with U of the head (the first
D^2 - |V| + 1 rows, or every row within the span) and the epsilon* step of
one GQI.  Verdicts and certificates must equal it
to the bit, and every member of a population must equal its own call.

Also here: the summaries of the suites, which now decide their
populations in stacked passes.
"""

import glob
import math
import os

import numpy as np
import pytest

from exqip import channels, combs, fileio, gqi, linalg, suites
from exqip.combs import CombSignature
from exqip.errors import DimensionMismatchError, NotHermitianError, SizeLimitError, ValidationError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

from test_epsilon_star import acceptance_07_population, bench_ladder, identity_exchange_population, tree_nodes
from test_head_rank import fallback_population, split_comb

import oracles

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli")


# ---------------------------------------------------------------------------
# The former call chain of one object
# ---------------------------------------------------------------------------


def former_validation(g, pol=DEFAULT_TOL):
    """(ok, outcome min eigenvalues, cascade residuals, reduced combs,
    spectra) of one GQI, with the cascade on its one summed operator."""
    spectra = linalg.hermitian_eig(np.array(g.outcomes), pol)
    s = sum(g.outcomes)
    current = (s + s.conj().T) / 2
    residuals, reduced = [], []
    sig = g.signature
    for n, (_, odd, even, low) in zip(range(sig.n, 0, -1), sig.levels):
        t = current.reshape(odd, even, low, odd, even, low)
        lhs = t.trace(axis1=0, axis2=3)
        current = t.trace(axis1=1, axis2=4).trace(axis1=0, axis2=2) / even
        below = current if n > 1 else np.ones((1, 1))
        residuals.append(linalg.max_abs(lhs - np.eye(even)[:, None, :, None] * below[:, None]))
        reduced.append(current)
    ok = bool(np.all(oracles.psd(spectra.values, pol))) and all(r <= pol.eps_comb for r in residuals)
    return ok, tuple(spectra.values[:, -1].tolist()), tuple(residuals), reduced, spectra


def former_step(outcomes, directions, spectra, pol=DEFAULT_TOL):
    """epsilon* of one GQI on its supports, from one eigvalsh of its blocks."""
    d = np.asarray(directions, dtype=complex)
    w, v = spectra.values, spectra.vectors
    ranks = oracles.support_rank(w, pol)
    k = int(ranks.max())
    used = np.arange(w.shape[-1]) < ranks[:, None]
    allowance = 2.0 * w.shape[-1] * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    shifted = w + 0.5 * pol.supp_tol(w.shape[-1], 1.0) - np.where(used, allowance, 0.0)
    if shifted.min() <= 0.0:
        return 0.0
    s = v[..., :k] / np.sqrt(np.where(used, shifted, np.inf))[:, None, :k]
    return 1.0 / float(np.abs(np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ d @ s)).max(initial=0.0))


def null_vector(u, m):
    c = np.zeros(m)
    c[: u.shape[0]] = u[:, -1]
    return -c if c[np.argmax(np.abs(c))] < 0 else c


def former_rank(sig, supports, n_known, bound, pol=DEFAULT_TOL):
    """(rank, c, margin) of one GQI from all its projected rows at once:
    one SVD with U of the head, every row when m <= span."""
    x = np.vstack([combs.complement_coordinates(u, sig) for u in supports])
    m, n = x.shape
    ambient = sig.total_dim ** 2
    span = ambient - n_known
    if m == 0:
        return n_known, None, None
    head = min(m, span + 1)
    u, s = np.linalg.svd(x[:head], full_matrices=head > n)[:2]
    if m > span:
        if np.count_nonzero(s > bound) >= span:
            return span + n_known, null_vector(u, m), None
        s = np.linalg.svd(x, compute_uv=False)
    sigma = max(1.0 if n_known else 0.0, float(s[0]))
    rank = int(np.count_nonzero(s > pol.rank_tol(m + n_known, ambient, sigma)))
    if rank == m:
        return rank + n_known, None, float(s[-1])
    return rank + n_known, null_vector(u, m), None


def former_certificate(g, pol=DEFAULT_TOL):
    """(extremal, family size, rank, support ranks, |V|, directions, delta,
    epsilon*, margin) of one valid GQI."""
    spectra = former_validation(g, pol)[4]
    supports = [v[:, :r] for v, r in zip(spectra.vectors, oracles.support_rank(spectra.values, pol))]
    ranks = tuple(u.shape[1] for u in supports)
    sig = g.signature
    n_known = combs.comb_variable_count(sig)
    dim = sig.total_dim
    family_size = sum(r * r for r in ranks) + n_known
    bound = pol.rank_tol(family_size, dim * dim, math.sqrt(len(ranks)))
    pair = gqi._full_support_pair(ranks, dim, bound)
    directions, step, margin = None, None, None
    if pair is not None:
        a, b = pair
        rank = dim * dim
        directions = [np.zeros((dim, dim), dtype=complex) for _ in ranks]
        if ranks[b] == dim:
            p = np.eye(dim, dtype=complex)
            step = gqi.identity_exchange_step(spectra.values, a, b, pol)
        else:
            p = supports[b] @ supports[b].conj().T
        directions[a], directions[b] = -p, p
    else:
        rank, c, margin = former_rank(sig, supports, n_known, bound, pol)
        if c is not None:
            directions, pos = [], 0
            for u, r in zip(supports, ranks):
                directions.append(u @ linalg.unvectorize_hermitian(c[pos : pos + r * r], r) @ u.conj().T)
                pos += r * r
    if directions is None:
        return True, family_size, rank, ranks, n_known, None, None, None, margin
    if step is None:
        step = former_step(g.outcomes, directions, spectra, pol)
    return False, family_size, rank, ranks, n_known, directions, sum(directions), step, margin


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_verdict_is_former(verdict, g):
    ok, lows, residuals, reduced, spectra = former_validation(g)
    assert verdict.ok is ok
    assert verdict.outcome_min_eigenvalues == lows
    assert verdict.comb_verdict.level_residuals == residuals
    assert all(same_bits(a, b) for a, b in zip(verdict.comb_verdict.reduced, reduced, strict=True))
    assert same_bits(verdict.spectra.values, spectra.values)
    assert same_bits(verdict.spectra.vectors, spectra.vectors)
    assert verdict.support_ranks == tuple(oracles.support_rank(spectra.values).tolist())
    assert all(type(r) is int for r in verdict.support_ranks)


def assert_certificate_is_former(cert, g):
    extremal, family_size, rank, ranks, n_known, directions, delta, step, margin = former_certificate(g)
    assert (cert.extremal, cert.family_size, cert.rank, cert.support_ranks) == (extremal, family_size, rank, ranks)
    assert cert.normalization_basis_size == n_known and cert.margin == margin
    if extremal:
        assert cert.perturbation is None
        return
    pert = cert.perturbation
    assert all(same_bits(a, b) for a, b in zip(pert.directions, directions, strict=True))
    assert same_bits(pert.delta, delta)
    assert type(pert.epsilon_star) is float and pert.epsilon_star == step


def assert_same_certificate(a, b):
    assert (a.extremal, a.family_size, a.rank, a.support_ranks) == (b.extremal, b.family_size, b.rank, b.support_ranks)
    assert (a.normalization_basis_size, a.margin) == (b.normalization_basis_size, b.margin)
    assert (a.perturbation is None) == (b.perturbation is None)
    if a.perturbation is not None:
        assert all(same_bits(x, y) for x, y in zip(a.perturbation.directions, b.perturbation.directions, strict=True))
        assert same_bits(a.perturbation.delta, b.perturbation.delta)
        assert a.perturbation.epsilon_star == b.perturbation.epsilon_star


def assert_same_verdict(a, b):
    assert a == b
    assert all(same_bits(x, y) for x, y in zip(a.comb_verdict.reduced, b.comb_verdict.reduced, strict=True))
    assert same_bits(a.spectra.values, b.spectra.values) and same_bits(a.spectra.vectors, b.spectra.vectors)


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------


def golden():
    paths = sorted(p for p in glob.glob(os.path.join(GOLDEN, "*.json")) if not p.endswith("expected.json"))
    return [fileio.load_object(p) for p in paths]


def ladder():
    return [g for seed in (1, 2, 3) for g in bench_ladder(seed)]


def gates():
    """Draws of the populations of gates 01, 02 and 04-07."""
    out = []
    for d0, d1 in suites.EQUIVALENCE_DIMS:
        for seed in range(4):
            rng = np.random.default_rng(10_000 * d0 + 100 * d1 + seed)
            out.append(channels.random_channel(d0, d1, int(rng.integers(-(-d0 // d1), d0 * d1 + 1)), rng))
    for seed in range(6):
        rng = np.random.default_rng(20_000 + seed)
        counts = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 1, 2)][seed]
        out.append(channels.random_instrument(2, 2, counts, rng))
    for seed in range(8):
        rng = np.random.default_rng(3000 + seed)
        out += [
            suites.random_extremal_qubit_tester(rng),
            suites.random_nonextremal_qubit_tester(rng),
            suites.random_two_outcome_qubit_tester(rng),
        ]
    return out + acceptance_07_population()[:20]


def trees():
    """The ``trees`` roots of seed 1, their children and grandchildren."""
    return tree_nodes(1)


POPULATIONS = {"golden": golden, "ladder": ladder, "gates": gates, "trees": trees}


@pytest.mark.parametrize("name", POPULATIONS)
def test_single_call_is_former_call_chain(name):
    """is_valid_gqi and is_extremal, the stacked code on one object, equal
    the former call chain of that object to the bit."""
    decided = 0
    for g in POPULATIONS[name]():
        verdict = gqi.is_valid_gqi(g)
        assert_verdict_is_former(verdict, g)
        if verdict.ok:
            cert = gqi.is_extremal(g)
            assert_certificate_is_former(cert, g)
            assert_same_verdict(cert.validation, verdict)
            decided += 1
    assert decided > 0


@pytest.mark.parametrize("name", ["golden", "ladder", "trees"])
def test_witnesses_read_late_are_the_former_eager_ones(name):
    """A witness is built on first read; read last member first, after
    every certificate of the population was made, each equals the former
    eager call chain to the bit."""
    population = POPULATIONS[name]()
    population = [g for g, v in zip(population, gqi.validate_all(population)) if v.ok]
    certs = gqi.decide_all(population)
    dependent = 0
    for g, cert in reversed(list(zip(population, certs, strict=True))):
        assert_certificate_is_former(cert, g)
        dependent += not cert.extremal
    assert dependent > 0


def keys(population):
    return [(g.signature, gqi.is_extremal(g).support_ranks) for g in population]


@pytest.mark.parametrize("name", POPULATIONS)
def test_population_is_its_single_calls(name):
    population = POPULATIONS[name]()
    verdicts = gqi.validate_all(population)
    assert len(verdicts) == len(population)
    for g, verdict in zip(population, verdicts):
        assert_same_verdict(verdict, gqi.is_valid_gqi(g))
    valid = [g for g, v in zip(population, verdicts) if v.ok]
    for g, cert in zip(valid, gqi.decide_all(valid)):
        assert_same_certificate(cert, gqi.is_extremal(g))
        assert_same_verdict(cert.validation, gqi.is_valid_gqi(g))


def mixed_population():
    """Several signatures and support-rank tuples, each group of several
    members: full-support and identity-exchange exits, head-first exits, the
    fallback, extremal and dependent members."""
    rng = np.random.default_rng(21)
    out = []
    out += [split_comb(CombSignature((2, 2)), rng) for _ in range(3)]
    out += fallback_population() + fallback_population()
    out += identity_exchange_population()[:4]
    for seed in range(4):
        out += [g for g in bench_ladder(seed + 1) if g.signature.total_dim <= 16]
    for seed in range(6):
        r = np.random.default_rng(4000 + seed)
        out.append(suites.random_rank22_qubit_tester(r, nonextremal=bool(seed % 2)))
        out.append(channels.random_instrument(2, 2, (1, 1), r))
    # A full-support outcome beside one of rank 2: the projector exchange.
    for seed in range(3):
        u = channels.random_unitary(4, np.random.default_rng(50 + seed))[:, :2]
        x = 0.5 * u @ u.conj().T
        out.append(Gqi(CombSignature((1, 2, 2, 1)), (np.eye(4) / 2 - x / 2, x / 2)))
    order = np.random.default_rng(5).permutation(len(out))
    return [out[i] for i in order]


def test_mixed_population_is_its_single_calls():
    population = mixed_population()
    verdicts = gqi.validate_all(population)
    certs = gqi.decide_all(population)
    paths = set()
    for g, verdict, cert in zip(population, verdicts, certs, strict=True):
        assert_same_verdict(verdict, gqi.is_valid_gqi(g))
        assert_same_verdict(cert.validation, verdict)
        single = gqi.is_extremal(g)
        assert_same_certificate(cert, single)
        assert_certificate_is_former(cert, g)
        dim = g.signature.total_dim
        if cert.perturbation is not None and cert.rank == dim * dim and dim in cert.support_ranks:
            paths.add("identity-exchange" if cert.support_ranks.count(dim) > 1 else "projector-exchange")
        elif cert.rank == dim * dim:
            paths.add("head" if not cert.extremal else "extremal")
        else:
            paths.add("extremal" if cert.extremal else "dependent")
    assert {"identity-exchange", "projector-exchange", "head", "extremal", "dependent"} <= paths
    groups = {}
    for key in keys(population):
        groups[key] = groups.get(key, 0) + 1
    assert len({sig for sig, _ in groups}) >= 3 and len(groups) >= 6
    assert sum(size > 1 for size in groups.values()) >= 4


def test_decide_all_matches_in_any_order():
    population = mixed_population()
    certs = gqi.decide_all(population)
    back = gqi.decide_all(population[::-1])[::-1]
    for a, b in zip(certs, back, strict=True):
        assert_same_certificate(a, b)


def test_decide_all_runs_one_eigh_per_validation_group(monkeypatch):
    """decide_all validates its objects itself: one eigh per group of one
    signature and outcome shapes, each outcome in it once, and no other."""
    population = mixed_population()
    groups = {(g.signature, tuple(t.shape for t in g.outcomes)) for g in population}
    stacks = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        stacks.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    gqi.decide_all(population)
    assert len(stacks) == len(groups) > 1
    assert sum(stacks) == sum(len(g.outcomes) for g in population)


def test_choi_condition_on_the_certificates_verdict():
    """On seeds 0-39 of the equivalence population, Choi's criterion on the
    verdicts the certificates carry, the kernel the suite calls, is the
    criterion on each channel's own validation."""
    chans = oracles.suite_population("equivalence", 40)
    certs = gqi.decide_all(chans)
    got = channels._kraus_criterion(chans, [cert.validation for cert in certs], DEFAULT_TOL)
    assert got == [channels.choi_condition(c) for c in chans]
    assert set(got) == {True, False}


def invalid_povm():
    return Gqi(CombSignature((2, 1)), (np.eye(2), np.eye(2)))


class TestFaults:
    def test_invalid_member_gets_a_verdict(self):
        population = mixed_population()
        population.insert(3, invalid_povm())
        verdicts = gqi.validate_all(population)
        assert len(verdicts) == len(population)
        assert not verdicts[3].ok and all(v.ok for i, v in enumerate(verdicts) if i != 3)
        assert_same_verdict(verdicts[3], gqi.is_valid_gqi(population[3]))

    def test_invalid_member_raises_with_its_index(self):
        population = mixed_population()
        population.insert(3, invalid_povm())
        with pytest.raises(ValidationError) as single:
            gqi.is_extremal(population[3])
        with pytest.raises(ValidationError) as stacked:
            gqi.decide_all(population)
        assert str(stacked.value) == f"member 3: {single.value}"

    def test_first_faulty_member_raises(self):
        """The lowest index over all groups, and within a group the member
        that faults alone; each error is the one of its own call."""
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 1e-3
        good = Gqi(CombSignature((2, 2)), (np.eye(4) / 4, np.eye(4) / 4))
        bad = Gqi(CombSignature((2, 2)), (np.eye(4) / 4, skew))
        misshaped = Gqi(CombSignature((2, 1)), (np.eye(2), np.eye(3)))
        population = [good, good, misshaped, good, bad, bad]
        with pytest.raises(DimensionMismatchError, match=r"^member 2: outcome shape \(3, 3\)"):
            gqi.validate_all(population)
        with pytest.raises(NotHermitianError, match=r"^member 3: not Hermitian: \|A - A\^dagger\|_max = 1\.000e-03$"):
            gqi.validate_all(population[:2] + population[3:])
        with pytest.raises(ValidationError, match="^member 1: a GQI needs at least one outcome$"):
            gqi.validate_all([good, Gqi(CombSignature((2, 2)), ())])

    @pytest.mark.parametrize("d", [2, 3])
    def test_invalid_member_before_one_that_raises_in_validation(self, d):
        """An invalid member before a non-Hermitian one, in the same stack
        (d = 2) or in another (d = 3): decide_all names the invalid one with
        the error of its own is_extremal."""
        invalid = Gqi(CombSignature((2, 1)), (np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])))
        skew = np.zeros((d, d), dtype=complex)
        skew[0, :2] = 1.0
        skewed = Gqi(CombSignature((d, 1)), (skew, np.eye(d) - skew))
        with pytest.raises(ValidationError) as single:
            gqi.is_extremal(invalid)
        with pytest.raises(NotHermitianError):
            gqi.validate_all([invalid, skewed])
        with pytest.raises(ValidationError) as stacked:
            gqi.decide_all([invalid, skewed])
        assert str(stacked.value) == f"member 0: {single.value}"

    def test_size_guard_before_a_later_validation_fault(self, monkeypatch):
        """A member above the budget before a non-Hermitian one in another
        stack: decide_all reruns each member alone, so it names the first,
        with the error of its own is_extremal."""
        monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 1000)
        big = suites.random_nonextremal_gqi(np.random.default_rng(0))
        skew = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        skewed = gqi.Povm(2, (skew, np.eye(2) - skew))
        with pytest.raises(SizeLimitError) as single:
            gqi.is_extremal(big)
        with pytest.raises(SizeLimitError) as stacked:
            gqi.decide_all([big, skewed])
        assert str(stacked.value).startswith("member 0: ")
        assert str(stacked.value) == f"member 0: {single.value}"

    def test_size_guard_raises_for_its_group(self, monkeypatch):
        monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 1000)
        population = [suites.random_nonextremal_gqi(np.random.default_rng(s)) for s in range(3)]
        with pytest.raises(SizeLimitError) as single:
            gqi.is_extremal(population[0])
        with pytest.raises(SizeLimitError) as stacked:
            gqi.decide_all(population)
        assert str(stacked.value) == f"member 0: {single.value}"


SUMMARIES = {
    "equivalence": {"total": 160, "failures": 0, "details": []},
    "xi-invariance": {"total": 40, "failures": 0, "details": []},
    "bounds": {"total": 84, "failures": 0, "details": []},
    "appendix-c": {"total": 7, "failures": 0, "details": []},
}


@pytest.mark.parametrize("name", SUMMARIES)
def test_suite_summary_at_40_seeds(name):
    """The summaries read before the suites decided their populations in
    stacked passes; the bounds total counts the verdicts found extremal."""
    summary = suites.run_suite(name, seeds=40).summary()
    assert {key: summary[key] for key in ("total", "failures", "details")} == SUMMARIES[name]


def test_suites_decide_in_passes(monkeypatch):
    """A pass holds at most PASS_SEEDS seeds of a suite's population, drawn
    in stacked calls: with every seed's rng drawing the same objects, each
    pass of 3 seeds or fewer makes the same number of ``qr`` and ``eigh``
    calls, building and validating, as a pass of 1 or 2.  (xi-invariance
    draws its tester kind by the parity of the seed, so its last pass holds
    2 seeds, one of each kind.)"""
    log = []

    def counted(fn, event):
        def wrapper(*args, **kwargs):
            log.append(event)
            return fn(*args, **kwargs)

        return wrapper

    decide_all = gqi.decide_all

    def decided(objects, *args, **kwargs):
        objects = list(objects)
        certs = decide_all(objects, *args, **kwargs)
        log.append(len(objects))
        return certs

    def passes(run, seeds):
        """The decide_all size and the qr and eigh calls up to its end, per pass."""
        log.clear()
        result = run(seeds=seeds)
        out, calls = [], []
        for event in log:
            if isinstance(event, int):
                out.append((event, calls.count("qr"), calls.count("eigh")))
                calls = []
            else:
                calls.append(event)
        return result, out

    monkeypatch.setattr(gqi, "decide_all", decided)
    monkeypatch.setattr(np.linalg, "qr", counted(np.linalg.qr, "qr"))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
    monkeypatch.setattr(suites, "PASS_SEEDS", 3)
    cases = [(suites.run_equivalence, 7, [12, 12, 4]), (suites.run_xi_invariance, 8, [6, 6, 4]), (suites.run_bounds, 7, [9, 9, 3])]
    for run, seeds, sizes in cases:
        result, drawn = passes(run, seeds)
        assert result.ok and [size for size, _, _ in drawn] == sizes
    assert passes(suites.run_equivalence, 7)[0].total == 28
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: default_rng(5))
    for run, seeds, sizes in cases:
        result, drawn = passes(run, seeds)
        assert result.ok and [size for size, _, _ in drawn] == sizes
        assert len({tuple(calls) for _, *calls in drawn}) == 1, drawn
        assert drawn[0][1] + drawn[0][2] > 0


def test_rank_stages_stay_within_the_budget(monkeypatch):
    """A group is cut into stacks whose estimated peak, K times that of one
    member, stays within the budget."""
    population = [split_comb(CombSignature((2, 2)), np.random.default_rng(s)) for s in range(7)]
    need = gqi.rank_stage_bytes(CombSignature((2, 2)), gqi.is_extremal(population[0]).support_ranks)
    stacks = []
    rank_test = gqi._rank_test

    def recorded(sig, supports, *args):
        stacks.append(len(supports[0]))
        return rank_test(sig, supports, *args)

    monkeypatch.setattr(gqi, "_rank_test", recorded)
    monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 3 * need)
    certs = gqi.decide_all(population)
    assert stacks == [3, 3, 1]
    for g, cert in zip(population, certs):
        assert_same_certificate(cert, gqi.is_extremal(g))


def central_splits():
    """The central comb at (4,4,4,4), D = 256, split 0.3/0.7, 0.5/0.5 and
    0.7/0.3: two outcomes of full support each."""
    sig = CombSignature((4, 4, 4, 4))
    c = combs.central_comb(sig).operator
    return [Gqi(sig, (w * c, (1.0 - w) * c)) for w in (0.3, 0.5, 0.7)]


def test_exit_stacks_are_cut_by_operator_bytes(monkeypatch):
    """A group at the full-support exit builds no row, so it is cut by its
    members' outcomes, 16 M D^2 bytes each, and not by the rank stage's
    estimate, which its plan does not hold: the three (4,4,4,4) splits,
    each estimated at about 31 GB, are one stack, and two stacks under a
    budget of two members' outcomes."""
    population = central_splits()
    sig, m = population[0].signature, 2
    assert gqi.rank_stage_bytes(sig, (256, 256)) > gqi.RANK_STAGE_BUDGET
    assert gqi._plan(sig, (256, 256), DEFAULT_TOL).stage_bytes is None
    stacks = []
    decide_stack = gqi._decide_stack

    def recorded(gs, *args):
        stacks.append(len(gs))
        return decide_stack(gs, *args)

    monkeypatch.setattr(gqi, "_decide_stack", recorded)
    certs = gqi.decide_all(population)
    assert stacks == [3]
    monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 2 * 16 * m * sig.total_dim ** 2)
    cut = gqi.decide_all(population)
    assert stacks == [3, 2, 1]
    for g, a, b in zip(population, certs, cut, strict=True):
        own = gqi.is_extremal(g)
        assert_same_certificate(a, own)
        assert_same_certificate(b, own)


def test_validation_stacks_stay_within_the_budget(monkeypatch):
    """validate_all cuts a group into stacks of K members whose stacked
    outcomes, 16 M D^2 bytes each, stay within the budget; every verdict is
    the uncut one to the bit."""
    population = [split_comb(CombSignature((2, 2)), np.random.default_rng(s)) for s in range(7)]
    m = len(population[0].outcomes)
    uncut = gqi.validate_all(population)
    stacks = []
    eig = linalg.hermitian_eig

    def recorded(a, *args, **kwargs):
        stacks.append(len(a))
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eig", recorded)
    monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 3 * 16 * m * 16)
    cut = gqi.validate_all(population)
    assert stacks == [3 * m, 3 * m, m]
    for a, b in zip(cut, uncut, strict=True):
        assert_same_verdict(a, b)


def test_each_plan_is_computed_once_per_shape(monkeypatch):
    """The per-shape work of a verdict is computed once per (signature,
    support ranks, policy) and read by every later verdict of that shape;
    the plan holds the size estimate of the shapes that reach the rank
    stage, and the budget is read per stack, so that a budget set later
    still refuses a shape already planned."""
    population = mixed_population()
    shapes = set(keys(population))
    gqi._plan.cache_clear()
    first = gqi.decide_all(population)
    assert gqi._plan.cache_info().misses == len(shapes) < len(population)
    for g, cert in zip(population, first, strict=True):
        assert_same_certificate(gqi.is_extremal(g), cert)
    for sig, ranks in shapes:
        plan = gqi._plan(sig, ranks, DEFAULT_TOL)
        assert plan.stage_bytes == (None if plan.pair else gqi.rank_stage_bytes(sig, ranks))
    again = gqi.decide_all(population)
    info = gqi._plan.cache_info()
    assert (info.misses, info.currsize) == (len(shapes), len(shapes))
    assert info.hits >= len(population)
    for a, b in zip(first, again, strict=True):
        assert_same_certificate(a, b)
    # The policy is part of the key.
    certs = gqi.decide_all(population, linalg.TolerancePolicy(1e-9))
    loose = {(g.signature, cert.support_ranks) for g, cert in zip(population, certs)}
    assert gqi._plan.cache_info().misses == len(shapes) + len(loose)
    # A rank-stage shape, planned by its first verdict, then refused by a smaller budget.
    g = split_comb(CombSignature((2, 2)), np.random.default_rng(0))
    gqi.is_extremal(g)
    monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 1000)
    with pytest.raises(SizeLimitError, match="above the budget of 1,000 bytes"):
        gqi.is_extremal(g)
