"""Tests for GQI validation, the master extremality criterion, and the
constructive decomposition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from exqip import channels, combs, gqi, linalg
from exqip.combs import CombSignature
from exqip.errors import DimensionMismatchError, ExtremalInputError, ValidationError
from exqip.gqi import Gqi
from exqip.linalg import TolerancePolicy

import oracles
from test_head_rank import measure_and_prepare, split_comb

CHANNEL_SIG = CombSignature((2, 2))


def unitary_channel_gqi(u=None):
    u = np.eye(2, dtype=complex) if u is None else np.asarray(u, dtype=complex)
    v = u.ravel()
    return Gqi(signature=CHANNEL_SIG, outcomes=(np.outer(v, v.conj()),))


def depolarizing_gqi():
    return Gqi(signature=CHANNEL_SIG, outcomes=(np.eye(4, dtype=complex) / 2.0,))


class TestValidation:
    def test_unitary_channel_valid(self):
        assert gqi.is_valid_gqi(unitary_channel_gqi()).ok

    def test_negative_outcome_rejected(self):
        g = Gqi(
            signature=CHANNEL_SIG,
            outcomes=(np.diag([1.5, 1.5, 0.5, -0.5]).astype(complex),),
        )
        verdict = gqi.is_valid_gqi(g)
        assert not verdict.ok
        assert min(verdict.outcome_min_eigenvalues) < -0.1

    def test_broken_normalization_rejected(self):
        g = Gqi(signature=CHANNEL_SIG, outcomes=(np.eye(4, dtype=complex),))
        assert not gqi.is_valid_gqi(g).ok

    def test_no_outcomes_rejected(self):
        with pytest.raises(ValidationError):
            gqi.is_valid_gqi(Gqi(signature=CHANNEL_SIG, outcomes=()))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gqi.is_valid_gqi(Gqi(signature=CHANNEL_SIG, outcomes=(np.eye(3),)))


class TestExtremality:
    def test_unitary_channel_extremal(self):
        cert = gqi.is_extremal(unitary_channel_gqi())
        assert cert.extremal
        assert cert.perturbation is None
        assert cert.verdict == "extremal"

    def test_profile_counts_unitary(self):
        g = unitary_channel_gqi()
        cert = gqi.is_extremal(g)
        assert cert.extremal
        assert cert.support_ranks == (1,)
        assert cert.family_size - cert.normalization_basis_size == 1
        assert cert.normalization_basis_size == 12
        assert cert.rank == 13
        assert g.signature.total_dim ** 2 == 16
        assert cert.margin is not None and cert.margin > 1e-3

    def test_tolerance_above_every_eigenvalue(self):
        """No support is left: V alone is independent, and there is no margin."""
        cert = gqi.is_extremal(unitary_channel_gqi(), pol=TolerancePolicy(eps_rel=0.5))
        assert cert.extremal and cert.support_ranks == (0,) and cert.margin is None

    def test_depolarizing_not_extremal(self):
        cert = gqi.is_extremal(depolarizing_gqi())
        assert not cert.extremal
        assert cert.rank < cert.family_size
        assert cert.perturbation is not None
        assert cert.margin is None

    def test_certificate_soundness(self):
        """The perturbation must satisfy all structural side conditions."""
        g = depolarizing_gqi()
        cert = gqi.is_extremal(g)
        pert = cert.perturbation
        # sum of directions equals the normalization shift Delta
        total = sum(pert.directions)
        assert linalg.max_abs(total - pert.delta) < 1e-12
        # each direction is supported inside its outcome's support
        for t, d in zip(g.outcomes, pert.directions):
            u = oracles.support_vectors(t)
            p = u @ u.conj().T
            assert linalg.max_abs(d - p @ d @ p) < 1e-10
        # Delta lies in the span of the variable basis: projections onto the
        # forbidden directions vanish, and reconstruction from the basis works
        basis = oracles.comb_variable_basis(g.signature)
        recon = sum(
            linalg.hs_inner(b, pert.delta).real * b for b in basis
        )
        assert linalg.max_abs(recon - pert.delta) < 1e-10
        for f in combs.comb_forbidden_directions(g.signature):
            assert abs(linalg.hs_inner(f, pert.delta)) < 1e-10
        assert pert.epsilon_star > 0

    def test_epsilon_star_maximal(self):
        g = depolarizing_gqi()
        pert = gqi.is_extremal(g).perturbation
        eps = pert.epsilon_star
        # valid at eps, invalid slightly beyond
        for sign in (1.0, -1.0):
            shifted = Gqi(
                signature=g.signature,
                outcomes=tuple(
                    t + sign * eps * d for t, d in zip(g.outcomes, pert.directions)
                ),
            )
            assert gqi.is_valid_gqi(shifted).ok
        beyond = eps * (1.0 + 1e-6)
        assert gqi.perturbation_feasible(g.outcomes, pert.directions, eps)
        assert not gqi.perturbation_feasible(g.outcomes, pert.directions, beyond)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValidationError):
            gqi.is_extremal(Gqi(signature=CHANNEL_SIG, outcomes=(np.eye(4),)))


class TestDecompose:
    def test_step_contract(self):
        g = depolarizing_gqi()
        plus, minus = gqi.decompose_step(g)
        assert gqi.is_valid_gqi(plus).ok
        assert gqi.is_valid_gqi(minus).ok
        mid = gqi.mix(plus, minus, 0.5)
        residual = max(
            linalg.max_abs(a - b) for a, b in zip(mid.outcomes, g.outcomes)
        )
        assert residual < 1e-12
        distance = sum(
            np.linalg.norm(a - b) for a, b in zip(plus.outcomes, minus.outcomes)
        )
        assert distance > 1e-6

    def test_extremal_input_raises(self):
        with pytest.raises(ExtremalInputError):
            gqi.decompose_step(unitary_channel_gqi())

    def test_reuses_certificate(self):
        g = depolarizing_gqi()
        cert = gqi.is_extremal(g)
        plus, _ = gqi.decompose_step(g, certificate=cert)
        eps = cert.perturbation.epsilon_star
        expected = g.outcomes[0] + eps * cert.perturbation.directions[0]
        assert linalg.max_abs(plus.outcomes[0] - expected) == 0.0


class TestMixtures:
    def test_midpoint_of_distinct_extremals_not_extremal(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        a = unitary_channel_gqi(np.eye(2))
        b = unitary_channel_gqi(h)
        mixed = gqi.mix(a, b, 0.5)
        assert gqi.is_valid_gqi(mixed).ok
        assert not gqi.is_extremal(mixed).extremal

    def test_mix_weights(self):
        a = unitary_channel_gqi(np.eye(2))
        b = depolarizing_gqi()
        m = gqi.mix(a, b, 0.25)
        expected = 0.25 * a.outcomes[0] + 0.75 * b.outcomes[0]
        assert linalg.max_abs(m.outcomes[0] - expected) < 1e-15

    def test_mix_shape_mismatch(self):
        a = unitary_channel_gqi()
        b = Gqi(signature=CombSignature((2, 1)), outcomes=(np.eye(2) / 1.0,))
        with pytest.raises(DimensionMismatchError):
            gqi.mix(a, b)


class TestPerturbationStep:
    def test_simple_known_value(self):
        # T = diag(1, 1), D = diag(1, -1): positivity breaks exactly at eps = 1
        eps = gqi.max_perturbation_step(
            [np.eye(2, dtype=complex)], [np.diag([1.0, -1.0]).astype(complex)]
        )
        assert eps == pytest.approx(1.0, rel=1e-9)

    def test_zero_directions_rejected(self):
        with pytest.raises(ValidationError):
            gqi.max_perturbation_step([np.eye(2)], [np.zeros((2, 2))])


# (d0, d1) and Kraus counts per outcome of the random instruments below.
INSTRUMENT_SHAPES = [
    ((2, 2), (1, 1)),
    ((2, 2), (1, 2)),
    ((2, 2), (2, 2)),
    ((2, 2), (1, 1, 1)),
    ((2, 3), (1, 3)),
    ((3, 2), (2, 2, 1)),
]
GQI_KINDS = ["instrument", "full-rank", "split-comb", "measure-and-prepare"]


def random_instrument_gqi(shape, seed):
    (d0, d1), counts = INSTRUMENT_SHAPES[shape]
    ins = channels.random_instrument(d0, d1, counts, np.random.default_rng(seed))
    return Gqi(ins.signature, ins.outcomes)


def draw_gqi(kind, seed):
    """A random GQI of one of four kinds:

    * a random instrument (INSTRUMENT_SHAPES);
    * full rank: two or three random full-rank combs at (2,2) or (2,2,2,2)
      with random weights, so that the full-support exit decides the rank
      before any row is built;
    * split comb: a full-rank comb split into two outcomes that each miss
      one of its eigenvectors, whose rows outnumber their span, so that the
      rank is decided on the head;
    * measure and prepare: rho_i (x) |u_i><u_i|^T, each outcome's projected
      rows of rank 1, so that the head is deficient and the rank comes from
      the full stack.
    """
    rng = np.random.default_rng(seed)
    if kind == "instrument":
        return random_instrument_gqi(int(rng.integers(len(INSTRUMENT_SHAPES))), seed)
    if kind == "split-comb":
        return split_comb(CombSignature([(2, 2), (2, 2, 2, 2)][rng.integers(2)]), rng)
    if kind == "full-rank":
        sig = CombSignature([(2, 2), (2, 2, 2, 2)][rng.integers(2)])
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        return Gqi(
            sig,
            tuple(
                w * combs.random_deterministic_comb(sig, seed=rng, spread=0.5).operator
                for w in weights
            ),
        )
    return measure_and_prepare(rng, *[(2, 2), (2, 3), (3, 2)][rng.integers(3)])


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(GQI_KINDS), st.integers(0, 2**31 - 1))
    def test_outcome_permutation(self, kind, seed):
        """Permuting the outcomes leaves verdict, rank and family size alone
        and permutes the support ranks."""
        g = draw_gqi(kind, seed)
        order = np.random.default_rng(seed + 1).permutation(g.n_outcomes)
        a = gqi.is_extremal(g)
        b = gqi.is_extremal(Gqi(g.signature, tuple(g.outcomes[i] for i in order)))
        assert (b.extremal, b.rank, b.family_size) == (a.extremal, a.rank, a.family_size)
        assert b.support_ranks == tuple(a.support_ranks[i] for i in order)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(GQI_KINDS), st.integers(0, 2**31 - 1))
    def test_local_unitaries(self, kind, seed):
        """Conjugating every outcome by a product of unitaries, one on each
        space of each tooth, maps GQIs to GQIs and keeps the verdict, rank,
        support ranks and family size; the identity exchange keeps its
        epsilon*, which depends on the outcomes' eigenvalues alone."""
        g = draw_gqi(kind, seed)
        rng = np.random.default_rng([seed, 1])
        u = np.eye(1)
        for d in g.signature.dims:
            # Space 0 is the last Kronecker factor.
            u = np.kron(channels.random_unitary(d, rng), u)
        moved = Gqi(g.signature, tuple(u @ t @ u.conj().T for t in g.outcomes))
        a = gqi.is_extremal(g)
        b = gqi.is_extremal(moved)
        assert (b.extremal, b.rank, b.support_ranks, b.family_size) == (a.extremal, a.rank, a.support_ranks, a.family_size)
        dim = g.signature.total_dim
        if a.perturbation is not None and any(np.array_equal(d, np.eye(dim)) for d in a.perturbation.directions):
            assert any(np.array_equal(d, np.eye(dim)) for d in b.perturbation.directions)
            want = a.perturbation.epsilon_star
            assert abs(b.perturbation.epsilon_star - want) <= 1e-12 * want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(INSTRUMENT_SHAPES) - 1), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_midpoint_of_distinct_instruments(self, shape, seed_a, seed_b):
        a = random_instrument_gqi(shape, seed_a)
        b = random_instrument_gqi(shape, seed_b)
        assume(max(linalg.max_abs(x - y) for x, y in zip(a.outcomes, b.outcomes)) > 1e-6)
        assert not gqi.is_extremal(gqi.mix(a, b)).extremal

    def test_kinds_run_both_rank_paths(self, monkeypatch):
        """Split combs are decided on the head alone (one SVD); measure and
        prepare draws fall back to the values-only SVD of the full stack;
        full-rank draws run no SVD."""
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, compute_uv=True, **kwargs):
            calls.append(compute_uv)
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for kind, want in (("split-comb", [True]), ("measure-and-prepare", [True, False]), ("full-rank", [])):
            for seed in range(5):
                calls.clear()
                gqi.is_extremal(draw_gqi(kind, seed))
                assert sorted(calls, reverse=True) == want
