"""Tests for the deterministic-comb cascade, bases, and random generation."""

import numpy as np
import pytest

from exqip import combs, linalg
from exqip.combs import CombSignature
from exqip.errors import DimensionMismatchError, ValidationError


QUBIT_CHANNEL = CombSignature((2, 2))
TESTER_SIG = CombSignature((1, 2, 2, 1))
TWO_COMB = CombSignature((2, 2, 2, 2))


class TestSignature:
    def test_basic_properties(self):
        sig = CombSignature((2, 3, 4, 5))
        assert sig.n == 2
        assert sig.total_dim == 120
        assert sig.kron_dims == (5, 4, 3, 2)
        assert sig.odd_product == 15
        assert sig.truncated(1) == CombSignature((2, 3))

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CombSignature((2, 2, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CombSignature((2, 0))


class TestCentralComb:
    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TESTER_SIG, TWO_COMB])
    def test_central_is_deterministic(self, sig):
        comb = combs.central_comb(sig)
        verdict = combs.is_deterministic_comb(comb.operator, sig)
        assert verdict.ok
        assert verdict.max_residual < 1e-14

    def test_choi_of_depolarizing(self):
        # the central (2,2) comb is the Choi operator of the fully depolarizing
        # channel: I/2
        comb = combs.central_comb(QUBIT_CHANNEL)
        assert linalg.max_abs(comb.operator - np.eye(4) / 2.0) == 0.0


class TestCascadeValidation:
    def test_identity_choi_is_valid(self):
        # Choi of the identity channel: |I>><<I|
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
        r = np.outer(v, v.conj())
        assert combs.is_deterministic_comb(r, QUBIT_CHANNEL).ok

    def test_wrong_trace_rejected(self):
        r = np.eye(4, dtype=complex)  # trace 4, should be 2
        verdict = combs.is_deterministic_comb(r, QUBIT_CHANNEL)
        assert not verdict.ok
        assert verdict.max_residual > 0.1

    def test_negative_rejected(self):
        r = np.diag([1.5, 1.5, 0.5, -0.5]).astype(complex)
        # partial trace over the first factor gives I, but the operator is not PSD
        verdict = combs.is_deterministic_comb(r, QUBIT_CHANNEL)
        assert not verdict.ok
        assert verdict.min_eigenvalue < -0.1

    def test_residual_per_level(self):
        comb = combs.random_deterministic_comb(TWO_COMB, seed=0, spread=0.5)
        verdict = combs.is_deterministic_comb(comb.operator, TWO_COMB)
        assert len(verdict.level_residuals) == 2
        assert verdict.ok

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            combs.is_deterministic_comb(np.eye(3), QUBIT_CHANNEL)


class TestReduction:
    def test_two_comb_reduces_to_channel(self):
        comb = combs.random_deterministic_comb(TWO_COMB, seed=1, spread=0.5)
        reduced = combs.reduced_comb(comb, 1)
        assert reduced.signature == QUBIT_CHANNEL
        assert combs.is_deterministic_comb(reduced.operator, QUBIT_CHANNEL).ok

    def test_invalid_comb_rejected(self):
        bad = combs.DeterministicComb(signature=QUBIT_CHANNEL, operator=np.eye(4))
        with pytest.raises(ValidationError):
            combs.reduced_comb(bad, 1)

    def test_level_out_of_range(self):
        comb = combs.central_comb(TWO_COMB)
        with pytest.raises(DimensionMismatchError):
            combs.reduced_comb(comb, 3)


class TestVariableBasis:
    def test_qubit_channel_count(self):
        basis = combs.comb_variable_basis(QUBIT_CHANNEL)
        assert len(basis) == 12  # (d_1^2 - 1) * d_0^2 = 3 * 4
        assert combs.comb_variable_count(QUBIT_CHANNEL) == 12

    def test_tester_signature_count(self):
        basis = combs.comb_variable_basis(TESTER_SIG)
        assert len(basis) == 3  # only the level-1 block contributes
        assert combs.comb_variable_count(TESTER_SIG) == 3

    def test_povm_signature_empty(self):
        assert combs.comb_variable_basis(CombSignature((3, 1))) == []

    @pytest.mark.parametrize(
        "dims, count",
        [((2, 2), 12), ((2, 3), 32), ((3, 1), 0), ((1, 2, 2, 1), 3), ((2, 3, 3, 2), 1004),
         ((2,) * 6, 3276), ((4,) * 4, 61680)],
    )
    def test_count_matches_basis(self, dims, count):
        sig = CombSignature(dims)
        assert combs.comb_variable_count(sig) == count
        # The two largest bases would take about 0.2 GB and 68 GB.
        if sig.total_dim <= 36:
            assert len(combs.comb_variable_basis(sig)) == count

    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TESTER_SIG, TWO_COMB])
    def test_orthonormal(self, sig):
        basis = combs.comb_variable_basis(sig)
        assert len(basis) == combs.comb_variable_count(sig)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(linalg.hs_inner(a, b) - expected) < 1e-12

    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TWO_COMB])
    def test_directions_preserve_cascade(self, sig):
        """Central comb plus any small combination must stay deterministic."""
        rng = np.random.default_rng(0)
        basis = combs.comb_variable_basis(sig)
        base = combs.central_comb(sig).operator
        coeff = 0.01 * rng.standard_normal(len(basis))
        shifted = base + sum(c * g for c, g in zip(coeff, basis))
        verdict = combs.is_deterministic_comb(shifted, sig)
        assert verdict.ok
        assert verdict.max_residual < 1e-13

    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TWO_COMB])
    def test_forbidden_directions_orthogonal(self, sig):
        """Directions breaking the cascade are HS-orthogonal to the variable
        basis, so projections of valid combs onto them vanish."""
        variable = combs.comb_variable_basis(sig)
        forbidden = combs.comb_forbidden_directions(sig)
        assert forbidden
        for f in forbidden:
            for g in variable:
                assert abs(linalg.hs_inner(f, g)) < 1e-12

    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TWO_COMB])
    def test_comb_projections_onto_forbidden_vanish(self, sig):
        comb = combs.random_deterministic_comb(sig, seed=3, spread=0.7)
        for f in combs.comb_forbidden_directions(sig):
            assert abs(linalg.hs_inner(f, comb.operator)) < 1e-12


class TestRandomComb:
    @pytest.mark.parametrize("sig", [QUBIT_CHANNEL, TESTER_SIG, TWO_COMB])
    @pytest.mark.parametrize("spread", [0.0, 0.3, 1.0])
    def test_valid(self, sig, spread):
        comb = combs.random_deterministic_comb(sig, seed=42, spread=spread)
        assert combs.is_deterministic_comb(comb.operator, sig).ok

    def test_spread_zero_is_central(self):
        comb = combs.random_deterministic_comb(TWO_COMB, seed=0, spread=0.0)
        assert linalg.max_abs(comb.operator - combs.central_comb(TWO_COMB).operator) == 0.0

    def test_seed_reproducible(self):
        a = combs.random_deterministic_comb(TWO_COMB, seed=5, spread=0.5)
        b = combs.random_deterministic_comb(TWO_COMB, seed=5, spread=0.5)
        assert linalg.max_abs(a.operator - b.operator) == 0.0

    def test_bad_spread(self):
        with pytest.raises(ValidationError):
            combs.random_deterministic_comb(TWO_COMB, seed=0, spread=1.5)
