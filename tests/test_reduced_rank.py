"""The reduced rank test against the explicit pooled-basis test it replaces.

``gqi.is_extremal`` decides on the support bases projected off the comb
variable directions V, in coordinates taken from partial traces.  The oracle
below is the explicit construction: every support basis element and every
element of the V basis (``oracles.comb_variable_basis``) vectorized into one
family, ranked by an SVD at the pooled cutoff max(m, n) * sigma_max * eps_rel.
"""

import math

import numpy as np
import pytest

from exqip import channels, combs, gqi, linalg, testers
from exqip.combs import CombSignature
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

import oracles
from populations import ladder_inputs, product_comb, random_povm

SIGNATURES = [
    (2, 2),
    (2, 2, 2, 2),
    (2, 3, 3, 2),
    (1, 2, 2, 1),
    (3, 1),
    (2, 3),
    (1, 2, 3, 2),
    (2, 2, 2, 2, 2, 2),
]


def pooled_oracle(g, normalization_basis=None, pol=DEFAULT_TOL):
    """(extremal, rank) from the explicit pooled family."""
    family = [q for t in g.outcomes for q in oracles.support_basis(t, pol)]
    if normalization_basis is None:
        normalization_basis = oracles.comb_variable_basis(g.signature)
    family += list(normalization_basis)
    x = linalg.vectorize_hermitian(np.array(family))
    s = np.linalg.svd(x, compute_uv=False)
    rank = int(np.count_nonzero(s > pol.rank_tol(*x.shape, float(s[0]))))
    return rank == len(family), rank


def isometry(rng, d, r):
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return np.linalg.qr(g)[0]


def split(comb, effects):
    """Outcomes sqrt(C) E_i sqrt(C) of a comb C and a POVM {E_i}.

    Eigenvalues of C at rounding level are set to zero: their square roots
    (about 1e-8) would tilt every support by as much, which puts singular
    values of the pooled family right at the cutoff.
    """
    w, v = np.linalg.eigh(comb)
    w = np.where(w > 1e-12 * w[-1], w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    return tuple(root @ e @ root for e in effects)


def mixed_gqi(rng):
    sig = CombSignature([(2, 2), (2, 2, 2, 2), (3, 3)][rng.integers(0, 3)])
    k = int(rng.integers(1, 4))
    weights = rng.random(k)
    weights /= weights.sum()
    comb = sum(w * product_comb(sig, rng) for w in weights)
    m = int(rng.integers(1, 4))
    return Gqi(signature=sig, outcomes=split(comb, random_povm(rng, sig.total_dim, m)))


class TestComplementCoordinates:
    @pytest.mark.parametrize("dims", SIGNATURES)
    def test_gram_matches_explicit_projector(self, dims):
        """Rows of the coordinates have the Gram matrix of (1 - P_V) q_j."""
        sig = CombSignature(dims)
        rng = np.random.default_rng(sum(dims))
        u = isometry(rng, sig.total_dim, min(3, sig.total_dim))
        q = linalg.vectorize_hermitian(linalg.support_operators(u))
        basis = oracles.comb_variable_basis(sig)
        v = linalg.vectorize_hermitian(np.array(basis)) if basis else q[:0]
        explicit = q @ q.T - (q @ v.T) @ (v @ q.T)
        x = combs.complement_coordinates(u, sig)
        assert np.abs(x @ x.T - explicit).max() < 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (1, 2, 2, 1), (2, 3, 3, 2)])
    def test_forbidden_part_matches_explicit_projector(self, dims):
        sig = CombSignature(dims)
        rng = np.random.default_rng(7)
        d = sig.total_dim
        x = linalg.unvectorize_hermitian(rng.standard_normal(d * d), d)
        explicit = x - sum(
            linalg.hs_inner(b, x).real * b for b in oracles.comb_variable_basis(sig)
        )
        assert linalg.max_abs(combs.forbidden_part(x, sig) - explicit) < 1e-13

    def test_support_operators_are_partial_traces(self):
        rng = np.random.default_rng(3)
        u = isometry(rng, 12, 3)
        full = linalg.support_operators(u)
        reduced = linalg.support_operators(u, 3)
        for q, y in zip(full, reduced):
            assert linalg.max_abs(linalg.partial_trace(q, (3, 4), {0}) - y) < 1e-14


class TestVerdictsAgreeWithOracle:
    def test_mixed_gqis(self):
        rng = np.random.default_rng(2024)
        extremal = 0
        for _ in range(60):
            g = mixed_gqi(rng)
            cert = gqi.is_extremal(g)
            assert (cert.extremal, cert.rank) == pooled_oracle(g)
            extremal += cert.extremal
        assert 0 < extremal < 60

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
    def test_ladder_inputs(self, dims):
        rng = np.random.default_rng(11)
        verdicts = []
        for g in ladder_inputs(dims, rng):
            cert = gqi.is_extremal(g)
            assert (cert.extremal, cert.rank) == pooled_oracle(g)
            verdicts.append(cert.extremal)
        assert verdicts == [True, False, False]

    def test_ladder_midpoint_d36(self):
        sig = CombSignature((2, 3, 3, 2))
        rng = np.random.default_rng(12)
        pieces = []
        for _ in range(2):
            w = isometry(rng, 3, 2)
            v = w.ravel()  # isometry 2 -> 3 on (space 1) x (space 0)
            k = isometry(rng, 4, 3).reshape(2, 2, 3)  # two Kraus operators 3 -> 2
            choi = channels.kraus_to_choi(list(k))
            pieces.append(np.kron(choi, np.outer(v, v.conj())))
        g = Gqi(signature=sig, outcomes=((pieces[0] + pieces[1]) / 2.0,))
        assert gqi.is_valid_gqi(g).ok
        cert = gqi.is_extremal(g)
        assert not cert.extremal
        assert (cert.extremal, cert.rank) == pooled_oracle(g)

    @pytest.mark.parametrize("angle", [1e-6, 3e-6, 1e-5, 0.0])
    def test_schmidt_testers_near_product(self, angle):
        rng = np.random.default_rng(int(angle * 1e7) + 5)
        for _ in range(5):
            t = testers.schmidt_tester(
                angle, channels.random_unitary(2, rng), channels.random_unitary(2, rng)
            )
            view = Gqi(t.signature, t.outcomes)
            cert = testers.is_extremal_tester(t)
            assert (cert.extremal, cert.rank) == pooled_oracle(view, oracles.former_tester_basis(t))
            assert cert.extremal == (angle > 0.0)
            assert (cert.extremal, cert.rank) == pooled_oracle(view)


class TestRankBookkeeping:
    def test_rank_is_projected_rank_plus_variables(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            g = mixed_gqi(rng)
            cert = gqi.is_extremal(g)
            x = np.vstack(
                [
                    combs.complement_coordinates(oracles.support_vectors(t), g.signature)
                    for t in g.outcomes
                ]
            )
            n_var = combs.comb_variable_count(g.signature)
            d2 = g.signature.total_dim ** 2
            s = np.linalg.svd(x, compute_uv=False)
            tau = max(x.shape[0] + n_var, d2) * max(1.0, s[0]) * DEFAULT_TOL.eps_rel
            assert cert.rank == int(np.count_nonzero(s > tau)) + n_var
            assert cert.normalization_basis_size == n_var
            assert cert.family_size == sum(r * r for r in cert.support_ranks) + n_var

    def test_too_many_rows_gives_sound_witness(self):
        """Two full-rank outcomes at (2,2) give 32 projected rows in a
        4-dimensional complement; the witness still sums into V."""
        sig = CombSignature((2, 2))
        g = ladder_inputs((2, 2), np.random.default_rng(5))[2]
        cert = gqi.is_extremal(g)
        assert sum(r * r for r in cert.support_ranks) > 16 - combs.comb_variable_count(sig)
        pert = cert.perturbation
        assert linalg.max_abs(sum(pert.directions) - pert.delta) < 1e-15
        assert linalg.max_abs(combs.forbidden_part(pert.delta, sig)) < 1e-12
        plus, minus = gqi.decompose_step(g, certificate=cert)
        assert gqi.is_valid_gqi(plus).ok and gqi.is_valid_gqi(minus).ok

    def test_profile_margin_is_smallest_projected_singular_value(self):
        g = ladder_inputs((2, 2, 2, 2), np.random.default_rng(8))[0]
        cert = gqi.is_extremal(g)
        x = combs.complement_coordinates(oracles.support_vectors(g.outcomes[0]), g.signature)
        assert cert.extremal
        assert cert.margin == pytest.approx(np.linalg.svd(x, compute_uv=False)[-1], rel=1e-12)


def test_no_variable_basis_is_built(record):
    """Deciding and sampling never enumerate the D^2-long V basis: the
    program has no function that builds it, and never calls the Hermitian
    bases such a function would use."""
    assert not hasattr(combs, "comb_variable_basis")
    calls = record(combs, "comb_forbidden_directions")
    record(linalg, "hermitian_basis", "traceless_hermitian_basis", log=calls)
    sig = CombSignature((2, 2, 2, 2))
    for g in ladder_inputs(sig.dims, np.random.default_rng(1)):
        gqi.is_extremal(g)
    combs.random_deterministic_comb(sig, seed=1)
    assert calls == []
