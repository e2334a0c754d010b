"""The epsilon* step against the searches it replaces.

``gqi.max_perturbation_step`` starts from a closed-form estimate (the
generalized-eigenvalue form of Choi's positivity argument, with the working
margin frozen at epsilon = 0), brackets it and refines the bracket on the
positivity slack, probed by ``gqi.block_slack``: on the D x D matrices
T_i +/- eps D_i, or, when the directions lie in the leading k eigenvectors of
the outcomes, on k x k blocks in their eigenbasis.  There are two oracles:

* the former search, an upper bound from lambda_max(T_i) / |D_i|_2, up to 64
  doublings until positivity fails, then 60 bisection steps on
  ``gqi.perturbation_feasible``;
* the same closed form, bracket and refinement probing
  ``gqi.perturbation_slack`` on the D x D matrices, as the step ran before
  it moved to support blocks.

The block search is compared with the second oracle on the benchmark's own
inputs (``perfbench/inputs.py``, which builds them with numpy alone).
"""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exqip import channels, combs, fileio, gqi, linalg, suites
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


def full_matrix_search(outcomes, directions, spectra, pol=DEFAULT_TOL):
    """The step as it ran on D x D matrices: closed form, bracket, then secant
    and Illinois refinement, every probe a ``gqi.perturbation_slack``."""
    t = np.asarray(outcomes, dtype=complex)
    d = np.asarray(directions, dtype=complex)
    w, v = spectra.values, spectra.vectors
    shifted = w + 0.5 * pol.supp_tol(t.shape[-1], w.max(axis=1))[:, None]
    if shifted.min() <= 0.0:
        return 0.0
    noise = np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    s = v / np.sqrt(np.maximum(shifted, noise))[:, None, :]
    est = 1.0 / float(np.abs(np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ d @ s)).max())

    def slack(eps):
        return gqi.perturbation_slack(t, d, eps, pol)

    width = 1e-10
    lo, hi = est * (1.0 - width), est * (1.0 + width)
    f_lo, f_hi = slack(lo), slack(hi)
    prev = None
    while f_lo < 0.0:
        prev = (hi, f_hi)
        hi, f_hi = lo, f_lo
        width *= 16.0
        lo = est * (1.0 - width) if width < 1.0 else 0.0
        f_lo = slack(lo) if lo > 0.0 else float(shifted.min())
    while f_hi >= 0.0:
        lo, f_lo = hi, f_hi
        width *= 16.0
        hi = est * (1.0 + width)
        f_hi = slack(hi)
    g_lo, g_hi = f_lo, f_hi
    side = 0
    older = old = np.inf
    while hi - lo > 1e-14 * hi and not (f_lo <= noise and f_hi >= -noise):
        step = 0.5e-14 * hi
        x = np.nan
        if prev is not None and prev[1] != f_hi:
            x = hi - f_hi * (hi - prev[0]) / (f_hi - prev[1])
        if not lo < x < hi + step:
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if hi - lo > 0.5 * older or not np.isfinite(x):
            x = 0.5 * (lo + hi)
        else:
            x = min(max(x, lo + step), hi - step)
        older, old = old, hi - lo
        fx = slack(x)
        if fx >= 0.0:
            if side < 0:
                g_hi *= 0.5
            lo, f_lo, g_lo, side = x, fx, fx, -1
        else:
            if side > 0:
                g_lo *= 0.5
            prev = (hi, f_hi)
            hi, f_hi, g_hi, side = x, fx, fx, 1
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


def counted_probes(monkeypatch) -> list:
    """Record every probe of the step's search."""
    probes = []
    slack = gqi.block_slack

    def counted(*args, **kwargs):
        probes.append(1)
        return slack(*args, **kwargs)

    monkeypatch.setattr(gqi, "block_slack", counted)
    return probes


def test_probes_per_step(steps, monkeypatch):
    probes = counted_probes(monkeypatch)
    for t, d, _ in steps:
        gqi.max_perturbation_step(t, d)
    # The former search made 62 or more probes per step.
    assert len(probes) / len(steps) <= 16


def test_probes_per_certificate_step(monkeypatch):
    population = acceptance_07_population() + ladder_population()
    probes = counted_probes(monkeypatch)
    for g in population:
        assert gqi.is_extremal(g).perturbation is not None
    assert 2 * len(population) <= len(probes) <= 16 * len(population)


def test_feasibility_matches_per_matrix_test(steps):
    for t, d, ref in steps[::5]:
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
    """The certificate of ``g`` and the full-matrix step on its witness."""
    verdict = gqi.is_valid_gqi(g)
    cert = gqi.is_extremal(g, validation=verdict)
    if cert.extremal:
        return cert, None
    return cert, full_matrix_search(g.outcomes, cert.perturbation.directions, verdict.spectra)


def assert_same_step(g, cert, ref):
    """epsilon* within 1e-12 relative of the full-matrix step, or both inside
    the rounding band of the slack: a step decided on an eigenvalue that sits
    on the margin moves with the rounding of the probed matrices, which is up
    to D eps_machine max(1, |lambda|_max) for a D x D ``eigvalsh``."""
    eps = cert.perturbation.epsilon_star
    if abs(eps - ref) <= 1e-12 * ref:
        return
    dim = g.signature.total_dim
    band = dim * np.finfo(float).eps * max(1.0, max(float(np.abs(np.linalg.eigvalsh(t)).max()) for t in g.outcomes))
    for x in (eps, ref):
        assert abs(gqi.perturbation_slack(g.outcomes, cert.perturbation.directions, x)) <= band


class TestSupportBlocks:
    """The certificate's step, searched on support blocks, against the
    full-matrix search."""

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
        # The children split along the full-matrix step are the twins: their
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
        # rank 2 of D = 64: the closed form sees one 2 x 2 block, every probe
        # the two blocks T +/- eps D.
        dims = BENCH.LADDER["ladder-d64"]
        ((_, ops, _, _),) = BENCH.ladder_objects(dims, 1)
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        step = gqi.max_perturbation_step

        def recorded_step(*args, **kwargs):
            def recording(a, *rest, **kw):
                shapes.append(np.shape(a))
                return eigvalsh(a, *rest, **kw)

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigvalsh", recording)
                return step(*args, **kwargs)

        monkeypatch.setattr(gqi, "max_perturbation_step", recorded_step)
        cert = gqi.is_extremal(Gqi(CombSignature(dims), ops))
        assert cert.support_ranks == (2,) and not cert.extremal
        assert shapes[0] == (1, 2, 2)
        assert len(shapes) >= 3 and set(shapes[1:]) == {(2, 2, 2)}


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
        probes = counted_probes(monkeypatch)
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
    (2,3,3,2), and the two margin branches written out: a binding outcome
    whose lambda_max stays above 1 after the step, and POVM halves, whose
    lambda_max is below 1."""
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
        branches = set()
        counts = set()
        for g in identity_exchange_population():
            cert = gqi.is_extremal(g)
            t, d = g.outcomes, cert.perturbation.directions
            dim = g.signature.total_dim
            exchanged = [i for i, x in enumerate(d) if x.any()]
            assert len(exchanged) == 2
            assert all(np.array_equal(abs(d[i]), np.eye(dim)) for i in exchanged)
            eps = cert.perturbation.epsilon_star
            ref = bisection_oracle(t, d)
            assert gqi.perturbation_feasible(t, d, eps)
            assert not gqi.perturbation_feasible(t, d, eps * (1.0 + 1e-6))
            # At most the rounding allowance below the boundary, and never above it.
            w = gqi.is_valid_gqi(g).spectra.values
            allowance = dim * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
            assert ref - 2.0 * allowance <= eps <= ref
            # The binding outcome's lambda_max after the step, against 1.
            binding = min(exchanged, key=lambda i: w[i, -1] + 0.5 * DEFAULT_TOL.supp_tol(dim, w[i, 0] - eps) - eps)
            branches.add(bool(w[binding, 0] - eps > 1.0))
            counts.add(g.n_outcomes)
        assert branches == {True, False}
        assert counts == {2, 3}

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
