"""The epsilon* step against a bisection on ``gqi.perturbation_feasible``.

``gqi.max_perturbation_step`` is a closed form.  With the constant working
margin c = supp_tol(D, 1) / 2 and the rounding allowance
a = 2 D eps_machine max(1, |w|_max), T_i +/- eps D_i + c - a is PSD exactly
while eps |S_i^dagger D_i S_i|_2 <= 1, with S_i = U_i (W_i + c - a)^{-1/2} on
each outcome's support, read from the eigenpairs of validation, and the step
is 1 / max_i |S_i^dagger D_i S_i|_2 from one batched ``eigvalsh``.
The oracles are a doubling-and-bisection search on ``perturbation_feasible``
and the per-matrix feasibility test.

Maximality is "within 1e-12 relative of the bisection, or slack(eps*) <= 2a"
(``assert_maximal``): the step stops a inside the margin by design, which is
more than 1e-12 of eps* where the binding eigenvalue of T_i +/- eps D_i is
small, and the slack that ``perturbation_slack`` reads carries up to
D eps_machine max(1, |w|_max) of rounding, less than a.
"""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exqip import channels, cli, combs, fileio, gqi, linalg, suites, testers
from exqip.combs import CombSignature
from exqip.errors import ValidationError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

import oracles


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


def margin(dim, pol=DEFAULT_TOL):
    """The working margin c = supp_tol(D, 1) / 2."""
    return 0.5 * pol.supp_tol(dim, 1.0)


def allowance(outcomes):
    """The step's rounding allowance a = 2 D eps_machine max(1, |w|_max)."""
    w = np.linalg.eigvalsh(np.asarray(outcomes))
    return 2.0 * w.shape[-1] * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))


def assert_maximal(outcomes, directions, eps, ref):
    """eps* is feasible, never above the bisection ``ref`` beyond 1e-12, and
    within 1e-12 relative of it or at most 2a inside the margin (see the
    module docstring for why 2a)."""
    assert gqi.perturbation_feasible(outcomes, directions, eps)
    assert eps <= ref * (1.0 + 1e-12)
    if eps < ref * (1.0 - 1e-12):
        assert gqi.perturbation_slack(outcomes, directions, eps) <= 2.0 * allowance(outcomes)


def feasibility_oracle(outcomes, directions, eps, pol=DEFAULT_TOL):
    """The per-matrix test: lambda_min >= -c, with c = supp_tol(D, 1) / 2."""
    for t, d in zip(outcomes, directions):
        for a in (t + eps * d, t - eps * d):
            if np.linalg.eigvalsh(a)[0] < -margin(a.shape[0], pol):
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
    """(outcomes, directions, validation spectra) of each certificate."""
    out = []
    for g in population:
        cert = gqi.is_extremal(g)
        assert not cert.extremal
        out.append((g.outcomes, cert.perturbation.directions, cert.validation.spectra))
    return out


@pytest.fixture(scope="module")
def steps():
    """(outcomes, directions, spectra, oracle epsilon) for both populations."""
    triples = witnesses(acceptance_07_population()) + witnesses(ladder_population())
    return [(t, d, spectra, bisection_oracle(t, d)) for t, d, spectra in triples]


def test_agrees_with_bisection(steps):
    # One acceptance-07 witness binds on a small eigenvalue, and its step
    # lies 1e-10 relative below the bisection: the allowance a, inside 2a.
    for t, d, spectra, ref in steps:
        assert ref > 0
        assert_maximal(t, d, gqi.max_perturbation_step(d, spectra), ref)


def test_feasible_at_step_and_infeasible_beyond(steps):
    for t, d, spectra, _ in steps:
        eps = gqi.max_perturbation_step(d, spectra)
        assert gqi.perturbation_feasible(t, d, eps)
        assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))


def counted_calls(monkeypatch, names=("eigh", "eigvalsh")) -> list:
    """Record the shape of every ``np.linalg`` decomposition in ``names``."""
    calls = []
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_no_search_is_left():
    for name in ("block_slack", "_BRACKET", "_WIDEN", "_STOP"):
        assert not hasattr(gqi, name)


def test_probes_per_certificate_step(monkeypatch):
    # After validation a certificate's step is one batched eigvalsh of the
    # (M, k, k) blocks, k the largest support rank; the identity exchange
    # makes none.
    population = acceptance_07_population() + ladder_population()
    calls = counted_calls(monkeypatch, ("eigvalsh",))
    exchanges = 0
    for g in population:
        calls.clear()
        cert = gqi.is_extremal(g)
        assert cert.perturbation is not None
        if any(np.array_equal(abs(d), np.eye(len(d))) for d in cert.perturbation.directions):
            exchanges += 1
            assert calls == []
        else:
            k = max(cert.support_ranks)
            assert calls == [("eigvalsh", (g.n_outcomes, k, k))]
    assert 0 < exchanges < len(population)


def test_feasibility_matches_per_matrix_test(steps):
    for t, d, _, ref in steps[::5]:
        for eps in (0.0, 0.5 * ref, ref, ref * (1.0 + 1e-9), 2.0 * ref):
            assert gqi.perturbation_feasible(t, d, eps) == feasibility_oracle(t, d, eps)
            assert (gqi.perturbation_slack(t, d, eps) >= 0.0) == gqi.perturbation_feasible(t, d, eps)


def bench_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = bench_inputs()


def bench_ladder(seed):
    """Every object of every rung of the benchmark's ladder at ``seed``."""
    return [
        Gqi(CombSignature(dims), ops)
        for dims in BENCH.LADDER.values()
        for _, ops, _, _ in BENCH.ladder_objects(dims, seed)
    ]


def bench_tree_roots(seed):
    """The roots of the benchmark's ``trees`` workload, read as the CLI reads them."""
    out = []
    for _, kind, signature, ops, _ in BENCH.tree_inputs(seed):
        obj = fileio.payload_to_object(
            {
                "format": "exqip-operator-file",
                "version": 1,
                "kind": kind,
                "signature": signature,
                "outcomes": [BENCH.matrix_to_json(t) for t in ops],
            }
        )
        out.append(Gqi(obj.signature, obj.outcomes))
    return out


def summary(cert):
    return cert.verdict, cert.rank, cert.support_ranks


def certified_step(g):
    """The certificate of ``g`` and the bisection on its witness."""
    cert = gqi.is_extremal(g)
    if cert.extremal:
        return cert, None
    return cert, bisection_oracle(g.outcomes, cert.perturbation.directions)


def assert_same_step(g, cert, ref):
    assert_maximal(g.outcomes, cert.perturbation.directions, cert.perturbation.epsilon_star, ref)


class TestSupportBlocks:
    """The certificate's step, on the supports, against the bisection."""

    def test_acceptance_07(self):
        for g in acceptance_07_population():
            cert, ref = certified_step(g)
            assert_same_step(g, cert, ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ladder(self, seed):
        population = bench_ladder(seed)
        assert max(g.signature.total_dim for g in population) == 64
        for g in population:
            cert, ref = certified_step(g)
            if ref is not None:
                assert_same_step(g, cert, ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tree_roots_and_children(self, seed):
        # The children split along the bisection's step are the twins: their
        # verdicts, ranks and support ranks must not move.
        for root in bench_tree_roots(seed):
            cert, ref = certified_step(root)
            if cert.extremal:
                continue
            assert_same_step(root, cert, ref)
            directions = cert.perturbation.directions
            for sign, child in zip((1.0, -1.0), gqi.decompose_step(root, certificate=cert)):
                twin = Gqi(root.signature, tuple(t + sign * ref * d for t, d in zip(root.outcomes, directions)))
                child_cert, child_ref = certified_step(child)
                assert summary(child_cert) == summary(gqi.is_extremal(twin))
                if child_ref is not None:
                    assert_same_step(child, child_cert, child_ref)

    def test_d64_midpoint_probes_2x2_blocks(self, monkeypatch):
        # The midpoint of two rank-one combs at (2,2,2,2,2,2) has support
        # rank 2 of D = 64: the step is one eigvalsh of the one 2 x 2 block
        # S^dagger D S.
        dims = BENCH.LADDER["ladder-d64"]
        ((_, ops, _, _),) = BENCH.ladder_objects(dims, 1)
        g = Gqi(CombSignature(dims), ops)
        validation = gqi.is_valid_gqi(g)
        calls = counted_calls(monkeypatch)
        cert = gqi._decide_stack([g], [validation], DEFAULT_TOL)[0]
        assert cert.support_ranks == (2,) and not cert.extremal
        # The witness is built on its first read.
        assert calls == []
        assert cert.perturbation is not None
        assert calls == [("eigvalsh", (1, 2, 2))]


class TestEdgeCases:
    def test_one_outcome_without_direction(self):
        rng = np.random.default_rng(3)
        u = channels.random_unitary(2, rng)
        t = (0.5 * np.eye(2, dtype=complex), u @ np.diag([1.0, 0.0]) @ u.conj().T)
        d = (np.zeros((2, 2), dtype=complex), u @ np.diag([0.3, 0.0]) @ u.conj().T)
        eps = gqi.max_perturbation_step(d, linalg.hermitian_eig(np.array(t)))
        ref = bisection_oracle(t, d)
        assert abs(eps - ref) <= 1e-12 * ref
        assert gqi.perturbation_feasible(t, d, eps)
        assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))

    def test_eigenvalue_below_working_margin_gives_zero(self):
        # -1.5e-10 passes validation (supp_tol = 2e-10) but lies below the
        # working margin -m = -1e-10, so no epsilon is feasible.
        t = (np.diag([1.0, -1.5e-10]).astype(complex),)
        assert -DEFAULT_TOL.supp_tol(2, 1.0) <= -1.5e-10 < -0.5 * DEFAULT_TOL.supp_tol(2, 1.0)
        d = (np.diag([1.0, 0.0]).astype(complex),)
        assert gqi.max_perturbation_step(d, linalg.hermitian_eig(np.array(t))) == 0.0
        assert bisection_oracle(t, d) == 0.0

    def test_all_directions_vanish(self):
        with pytest.raises(ValidationError, match="vanish"):
            gqi.max_perturbation_step([np.zeros((2, 2))] * 2, linalg.hermitian_eig(np.array([np.eye(2)] * 2)))


def random_hermitian_in_support(t, rng):
    u = oracles.support_vectors(t)
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
    validation = gqi.is_valid_gqi(g)
    assert validation.ok
    directions = tuple(random_hermitian_in_support(t, rng) for t in g.outcomes)
    eps = gqi.max_perturbation_step(directions, validation.spectra)
    assert eps > 0
    assert gqi.perturbation_feasible(g.outcomes, directions, eps)
    assert not gqi.perturbation_feasible(g.outcomes, directions, eps * (1.0 + 1e-6))
    assert_maximal(g.outcomes, directions, eps, bisection_oracle(g.outcomes, directions))


def full_rank_split(sig, weights, rng, spread):
    """Outcomes w_i C_i of random full-rank combs C_i.  With three weights
    the third outcome is only a rank-deficient part b P C_3 P of w_3 C_3,
    whose rest joins the second, so that exactly two outcomes have full
    support."""
    c = [combs.random_deterministic_comb(sig, seed=rng, spread=spread).operator for _ in weights]
    ops = [w * x for w, x in zip(weights, c)]
    if len(ops) == 3:
        u = channels.random_unitary(sig.total_dim, rng)[:, : sig.total_dim // 2]
        part = u @ u.conj().T @ c[2] @ u @ u.conj().T
        lam = np.linalg.eigvalsh(c[2])
        cut = 0.5 * weights[2] * lam[0] / lam[-1]
        ops[1], ops[2] = ops[1] + ops[2] - cut * part, cut * part
    return Gqi(sig, tuple(ops))


def identity_exchange_population():
    """GQIs with M = 2 and 3 and two full-support outcomes, from (3,1) to
    (2,3,3,2), and two written out: a binding outcome whose lambda_max stays
    above 1 after the step, and POVM halves, whose lambda_max is below 1."""
    out = []
    for dims in ((3, 1), (2, 2), (2, 2, 2, 2), (2, 3, 3, 2)):
        sig = CombSignature(dims)
        rng = np.random.default_rng([sig.total_dim, 13])
        for m in (2, 3):
            for spread in (0.3, 0.7):
                out.append(full_rank_split(sig, rng.dirichlet(np.ones(m)), rng, spread))
    phi = np.eye(2).ravel()
    near_identity = 0.95 * np.outer(phi, phi) + 0.05 * np.eye(4) / 2
    out.append(Gqi(CombSignature((2, 2)), (0.8 * near_identity, 0.2 * np.eye(4) / 2)))
    out.append(Gqi(CombSignature((2, 1)), (np.eye(2) / 2, np.eye(2) / 2)))
    return out


class TestIdentityExchange:
    """epsilon* of the identity exchange D_b = I, D_a = -I, in closed form
    from the validation eigenvalues, against the bisection on
    ``perturbation_feasible``."""

    def test_against_bisection(self):
        counts = set()
        for g in identity_exchange_population():
            cert = gqi.is_extremal(g)
            t, d = g.outcomes, cert.perturbation.directions
            dim = g.signature.total_dim
            exchanged = [i for i, x in enumerate(d) if x.any()]
            assert len(exchanged) == 2
            assert all(np.array_equal(abs(d[i]), np.eye(dim)) for i in exchanged)
            eps = cert.perturbation.epsilon_star
            # The smaller lambda_min of the two, plus the margin, less the allowance.
            w_min = min(float(np.linalg.eigvalsh(t[i])[0]) for i in exchanged)
            assert eps == pytest.approx(w_min + margin(dim) - allowance(t), rel=1e-14)
            assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))
            ref = bisection_oracle(t, d)
            assert_maximal(t, d, eps, ref)
            assert ref - 2.0 * allowance(t) <= eps
            counts.add(g.n_outcomes)
        assert counts == {2, 3}

    def test_stack_is_each_member_own_call(self):
        # The K steps of a (K, M, D) stack are the K single calls to the bit,
        # the members with no feasible step included.
        rng = np.random.default_rng(17)
        for m, dim, (a, b) in ((2, 2, (0, 1)), (2, 4, (1, 0)), (3, 4, (0, 2)), (3, 9, (2, 1))):
            w = rng.uniform(0.0, 1.0, (6, m, dim))
            c = margin(dim)
            # Below the working margin: an outcome outside the pair when M = 3.
            w[1, min(set(range(m)) - {b}), 0] = -4.0 * c
            # w + c = 0, then w + c half the allowance 2 D eps_machine.
            w[2, a, 0] = -c
            w[3, b, 0] = -c + dim * np.finfo(float).eps
            steps = gqi.identity_exchange_step(w, a, b)
            assert steps.shape == (6,)
            for step, member in zip(steps, w):
                assert np.float64(step).tobytes() == np.float64(gqi.identity_exchange_step(member, a, b)).tobytes()
            assert steps[1] == steps[2] == steps[3] == 0.0
            assert (steps[[0, 4, 5]] > 0.0).all()

    def test_outcome_below_working_margin_gives_zero(self):
        # A third outcome -delta |v><v| passes validation for delta up to
        # supp_tol(D, 1) but lies below the working margin -supp_tol / 2, so
        # no epsilon is feasible, as in the search.
        sig = CombSignature((2, 2))
        comb = combs.random_deterministic_comb(sig, seed=3, spread=0.5).operator
        delta = 0.75 * DEFAULT_TOL.supp_tol(4, 1.0)
        v = np.zeros((4, 4), dtype=complex)
        v[0, 0] = delta
        g = Gqi(sig, (comb / 2 + v / 2, comb / 2 + v / 2, -v))
        cert = gqi.is_extremal(g)
        assert cert.support_ranks == (4, 4, 0)
        d = cert.perturbation.directions
        assert np.array_equal(d[1], np.eye(4)) and np.array_equal(d[0], -np.eye(4))
        assert cert.perturbation.epsilon_star == 0.0
        assert bisection_oracle(g.outcomes, d) == 0.0

    def test_full_rank_d16_runs_validation_alone(self, monkeypatch):
        """The full-rank two-outcome GQI at (2,2,2,2) takes one batched
        ``eigh`` of its outcomes and no other decomposition: no ``eigvalsh``,
        no ``svd`` and no search."""
        sig = CombSignature((2, 2, 2, 2))
        rng = np.random.default_rng(1)
        g = Gqi(sig, tuple(0.5 * combs.random_deterministic_comb(sig, seed=rng, spread=0.5).operator for _ in range(2)))
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            fn = getattr(np.linalg, name)

            def counted(a, *args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def refuse(*args, **kwargs):
            raise AssertionError("epsilon* searched")

        monkeypatch.setattr(gqi, "max_perturbation_step", refuse)
        cert = gqi.is_extremal(g)
        assert calls == [("eigh", (2, 16, 16))]
        assert cert.support_ranks == (16, 16) and cert.perturbation.epsilon_star > 0.0


def tree_nodes(seed):
    """The ``trees`` roots of ``seed``, their children and grandchildren."""
    out, level = [], bench_tree_roots(seed)
    for _ in range(3):
        out += level
        level = [
            child
            for g in level
            if not (cert := gqi.is_extremal(g)).extremal
            for child in gqi.decompose_step(g, certificate=cert)
        ]
    return out


def suite_testers():
    """The testers the xi-invariance and bounds suites draw, seeds 0-199."""
    out = []
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        out.append((suites.random_extremal_qubit_tester if seed % 2 == 0 else suites.random_nonextremal_qubit_tester)(rng))
        rng = np.random.default_rng(3000 + seed)
        out += [
            suites.random_extremal_qubit_tester(rng),
            suites.random_nonextremal_qubit_tester(rng),
            suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
        ]
    return out


def suite_channels():
    """The channels the equivalence suite draws, seeds 0-199."""
    out = []
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        for d0, d1 in suites.EQUIVALENCE_DIMS:
            count = int(rng.integers(-(-d0 // d1), d0 * d1 + 1))
            out.append(channels.random_channel(d0, d1, count, rng))
    return out


CERTIFICATE_POPULATIONS = {
    **{f"ladder-{seed}": (lambda seed=seed: bench_ladder(seed)) for seed in (1, 2, 3)},
    "acceptance-07": acceptance_07_population,
    **{f"trees-{seed}": (lambda seed=seed: tree_nodes(seed)) for seed in (1, 2, 3)},
    "testers": suite_testers,
    "channels": suite_channels,
}


class TestCertificates:
    """Every certificate's epsilon* is a feasible, maximal and nonzero step."""

    @pytest.mark.parametrize("name", list(CERTIFICATE_POPULATIONS))
    def test_feasible_at_step_and_infeasible_beyond(self, name):
        steps = 0
        for g in CERTIFICATE_POPULATIONS[name]():
            cert = gqi.is_extremal(g)
            if cert.extremal:
                continue
            t, d, eps = g.outcomes, cert.perturbation.directions, cert.perturbation.epsilon_star
            assert eps > 0.0
            assert gqi.perturbation_feasible(t, d, eps)
            assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))
            steps += 1
        assert steps > 0

    def test_tester_split_children_are_testers(self):
        # A step to the margin c = supp_tol(4, 1) / 2 keeps rho of both
        # children above the tester's own cutoff -supp_tol(2, 1).
        children = 0
        for t in suite_testers():
            cert = gqi.is_extremal(t)
            if cert.extremal:
                continue
            for child in gqi.decompose_step(t, certificate=cert):
                assert testers.is_valid_tester(testers.Tester(t.d2, t.d1, child.outcomes))
                children += 1
        assert children > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_trees_take_no_zero_step(self, seed, tmp_path, monkeypatch, capsys):
        # Children of a maximal step sit a inside the margin, outside their
        # supports, so their own steps are not 0.
        # The root is decided by is_extremal, every later depth by decide_all.
        steps = []
        decide, decide_all = gqi.is_extremal, gqi.decide_all

        def recorded(certs):
            steps.extend(c.perturbation.epsilon_star for c in certs if c.perturbation is not None)
            return certs

        monkeypatch.setattr(gqi, "is_extremal", lambda *args, **kwargs: recorded([decide(*args, **kwargs)])[0])
        monkeypatch.setattr(gqi, "decide_all", lambda *args, **kwargs: recorded(decide_all(*args, **kwargs)))
        for name, kind, signature, ops, depth in BENCH.tree_inputs(seed):
            path = str(tmp_path / f"{name}.json")
            BENCH.write_operator_file(path, kind, signature, ops)
            assert cli.main(["decompose", path, "--steps", str(depth), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert len(steps) > 100 and min(steps) > 0.0
