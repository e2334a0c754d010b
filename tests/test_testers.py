"""Tests for 1-testers: validation, extremality, bounds, transforms, the
two-outcome qubit closed form, and POVMs."""

import math

import numpy as np
import pytest

from exqip import channels, linalg, testers
from exqip.errors import DimensionMismatchError, ValidationError
from exqip.testers import Povm, Tester

import oracles
from populations import shapes, validation_calls


def bell_tester():
    return testers.schmidt_tester(math.pi / 4)


def product_tester():
    return testers.schmidt_tester(0.0)


def trine_povm():
    effects = []
    for k in range(3):
        a = 2.0 * math.pi * k / 3.0
        v = np.array([math.cos(a), math.sin(a)], dtype=complex)
        effects.append((2.0 / 3.0) * np.outer(v, v.conj()))
    return Povm(d=2, effects=tuple(effects))


class TestValidation:
    def test_bell_tester_valid(self):
        assert testers.is_valid_tester(bell_tester())

    def test_normalization_extraction(self):
        rho, residual = oracles.tester_normalization(bell_tester())
        assert residual < 1e-14
        assert linalg.max_abs(rho - np.eye(2) / 2.0) < 1e-14

    def test_non_product_normalization_rejected(self):
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        t = Tester(d2=2, d1=2, outcomes=(np.outer(v, v.conj()),))
        assert not testers.is_valid_tester(t)

    def test_negative_outcome_rejected(self):
        t = Tester(
            d2=2,
            d1=2,
            outcomes=(
                np.diag([0.6, 0.5, 0.5, -0.1]).astype(complex),
                np.diag([-0.1, 0.0, 0.0, 0.6]).astype(complex),
            ),
        )
        assert not testers.is_valid_tester(t)


class TestExtremality:
    def test_bell_extremal_with_13_element_family(self):
        cert = testers.is_extremal_tester(bell_tester())
        assert cert.extremal
        # 1 + 9 support elements + 3 normalization elements
        assert cert.family_size == 13
        assert cert.rank == 13
        assert cert.support_ranks == (1, 3)
        assert cert.normalization_basis_size == 3

    def test_product_not_extremal(self):
        cert = testers.is_extremal_tester(product_tester())
        assert not cert.extremal
        assert cert.perturbation is not None

    def test_single_outcome_pure_extremal(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        t = Tester(
            d2=2,
            d1=2,
            outcomes=(linalg.kron(np.eye(2, dtype=complex), np.outer(phi, phi.conj())),),
        )
        assert testers.is_extremal_tester(t).extremal

    def test_single_outcome_mixed_not_extremal(self):
        t = Tester(d2=2, d1=2, outcomes=(np.eye(4, dtype=complex) / 2.0,))
        assert not testers.is_extremal_tester(t).extremal

    def test_invalid_rejected(self):
        t = Tester(d2=2, d1=2, outcomes=(np.eye(4, dtype=complex),))
        with pytest.raises(ValidationError):
            testers.is_extremal_tester(t)


class TestBounds:
    def test_bell_bounds(self):
        b = testers.check_bounds(bell_tester())
        # 1 + 9 + 3 = 13 <= 16
        assert b.rank_bound_lhs == 13
        assert b.rank_bound_rhs == 16
        assert b.ok
        # mixed ranks: the outcome-count bound does not apply
        assert not b.outcome_bound_applicable

    def test_outcome_count_bound_for_rank_one_testers(self):
        t = bell_tester()
        b = testers.check_bounds(
            Tester(d2=2, d1=2, outcomes=(t.outcomes[0],) * 1 + (t.outcomes[1],))
        )
        assert b.outcome_bound_rhs == 13  # d_1^2 (d_2^2 - 1) + 1 for qubits

    def test_rank_bound_violation_detected(self):
        # two full-rank outcomes: 16 + 16 + 3 > 16
        t = Tester(
            d2=2,
            d1=2,
            outcomes=(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex) / 4.0),
        )
        b = testers.check_bounds(t)
        assert not b.rank_bound_ok
        assert not b.ok
        assert not testers.is_extremal_tester(t).extremal

    def test_invalid_tester_rejected(self):
        t = testers.schmidt_tester(0.3)
        t = Tester(d2=2, d1=2, outcomes=(t.outcomes[0], t.outcomes[1] + np.diag([0.1, 0, 0, 0])))
        with pytest.raises(ValidationError, match=r"^invalid GQI: outcome min eigenvalues \(.*\), cascade residuals \(.*\)$"):
            testers.check_bounds(t)

    def test_bound_is_not_sufficient(self):
        # the product tester satisfies the bounds yet is not extremal
        b = testers.check_bounds(product_tester())
        assert b.ok
        assert not testers.is_extremal_tester(product_tester()).extremal


class TestXiTransform:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        t = bell_tester()
        u = channels.random_unitary(2, rng)
        rho = np.diag([0.7, 0.3]).astype(complex)
        back = testers.xi_inverse(testers.xi_transform(t, rho, u), rho, u)
        residual = max(
            linalg.max_abs(a - b) for a, b in zip(back.outcomes, t.outcomes)
        )
        assert residual < 1e-12

    def test_normalization_moves_to_rho(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        moved = testers.xi_transform(bell_tester(), rho, np.eye(2, dtype=complex))
        got, residual = oracles.tester_normalization(moved)
        assert residual < 1e-12
        assert linalg.max_abs(got - rho) < 1e-12

    def test_preserves_extremality_verdicts(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        for t, expected in [(bell_tester(), True), (product_tester(), False)]:
            moved = testers.xi_transform(t, rho, u)
            assert testers.is_valid_tester(moved)
            assert testers.is_extremal_tester(moved).extremal is expected

    def test_requires_full_rank(self):
        with pytest.raises(ValidationError):
            testers.xi_transform(bell_tester(), np.diag([1.0, 0.0]), np.eye(2))

    @pytest.mark.parametrize("xi", [testers.xi_transform, testers.xi_inverse])
    def test_factors_must_be_d1_by_d1(self, xi):
        """A rho or U that is not d_1 x d_1 raises, naming both shapes."""
        rho, u = np.eye(2) / 2, np.eye(2)
        with pytest.raises(DimensionMismatchError, match=r"rho has shape \(3, 3\), but d_1 x d_1 is \(2, 2\)"):
            xi(bell_tester(), np.eye(3) / 3, u)
        with pytest.raises(DimensionMismatchError, match=r"U has shape \(3, 3\), but d_1 x d_1 is \(2, 2\)"):
            xi(bell_tester(), rho, np.eye(3))
        with pytest.raises(DimensionMismatchError, match=r"U has shape \(2,\)"):
            xi(bell_tester(), rho, np.ones(2))


class TestPovm:
    def test_projective_valid_and_extremal(self):
        p = Povm(d=2, effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert testers.povm_is_valid(p)
        assert testers.povm_is_extremal(p)

    def test_trine_extremal(self):
        assert testers.povm_is_extremal(trine_povm())

    def test_uniform_not_extremal(self):
        p = Povm(d=2, effects=(np.eye(2) / 2.0, np.eye(2) / 2.0))
        assert testers.povm_is_valid(p)
        assert not testers.povm_is_extremal(p)

    def test_invalid_sum_rejected(self):
        p = Povm(d=2, effects=(np.eye(2), np.eye(2)))
        assert not testers.povm_is_valid(p)
        with pytest.raises(ValidationError):
            testers.povm_is_extremal(p)


class TestPureNormalization:
    @pytest.mark.parametrize("extremal", [True, False])
    def test_matches_povm_verdict(self, extremal):
        povm = (
            trine_povm()
            if extremal
            else Povm(d=2, effects=(np.eye(2) / 2.0, np.eye(2) / 2.0))
        )
        phi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        t = testers.tester_from_pure_normalization(phi, povm)
        assert testers.is_valid_tester(t)
        assert testers.is_extremal_tester(t).extremal is extremal
        assert testers.povm_is_extremal(povm) is extremal

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValidationError):
            testers.tester_from_pure_normalization(
                np.array([1.0, 1.0]), trine_povm()
            )


class TestSplitting:
    def test_projective_split_preserves_validity_and_extremality(self):
        t = bell_tester()
        effects = testers.projective_split_effects(t.outcomes[1])
        assert len(effects) == 3
        split = testers.split_outcome(t, 1, effects)
        assert split.n_outcomes == 4
        assert testers.is_valid_tester(split)
        assert testers.is_extremal_tester(split).extremal

    def test_partial_split(self):
        t = bell_tester()
        e = testers.projective_split_effects(t.outcomes[1])
        split = testers.split_outcome(t, 1, [e[0] + e[1], e[2]])
        assert split.n_outcomes == 3
        assert testers.is_valid_tester(split)
        assert testers.is_extremal_tester(split).extremal

    def test_sum_reproduces_original_outcome(self):
        t = bell_tester()
        effects = testers.projective_split_effects(t.outcomes[1])
        split = testers.split_outcome(t, 1, effects)
        total = sum(split.outcomes[1:])
        assert linalg.max_abs(total - t.outcomes[1]) < 1e-10

    def test_bad_sub_povm_rejected(self):
        t = bell_tester()
        with pytest.raises(ValidationError):
            testers.split_outcome(t, 1, [np.eye(4, dtype=complex)])

    def test_effect_of_another_dimension_rejected(self):
        """A sub-POVM on d = 3 for outcomes on D = 4 raises, naming both shapes."""
        with pytest.raises(DimensionMismatchError, match=r"shape \(3, 3\) does not match outcome shape \(4, 4\)"):
            testers.split_outcome(bell_tester(), 1, Povm(3, (np.eye(3),)))

    def test_bad_index_rejected(self):
        with pytest.raises(DimensionMismatchError):
            testers.split_outcome(bell_tester(), 5, [])


class TestTwoOutcomeQubitClosedForm:
    def test_entangled_13_extremal(self):
        v = testers.classify_two_outcome_qubit(bell_tester())
        assert v.case == "(1,3)"
        assert v.extremal

    def test_product_13_not_extremal(self):
        v = testers.classify_two_outcome_qubit(product_tester())
        assert v.case == "(1,3)"
        assert not v.extremal
        assert v.witness is not None

    def test_generic_22_extremal(self):
        rng = np.random.default_rng(1)
        u = channels.random_unitary(4, rng)
        p1 = u[:, :2] @ u[:, :2].conj().T
        t = Tester(d2=2, d1=2, outcomes=(p1 / 2.0, (np.eye(4) - p1) / 2.0))
        v = testers.classify_two_outcome_qubit(t)
        assert v.case == "(2,2)"
        assert v.extremal is testers.is_extremal_tester(t).extremal

    def test_identity_times_pure_not_extremal(self):
        vket = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        p1 = linalg.kron(np.eye(2, dtype=complex), np.outer(vket, vket.conj()))
        t = Tester(d2=2, d1=2, outcomes=(p1 / 2.0, (np.eye(4) - p1) / 2.0))
        v = testers.classify_two_outcome_qubit(t)
        assert v.case == "(2,2)"
        assert not v.extremal
        assert not testers.is_extremal_tester(t).extremal

    def test_product_pair_22_not_extremal(self):
        f = np.array([1.0, 0.0], dtype=complex)
        h = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        p1 = linalg.kron(np.outer(f, f.conj()), np.outer(e0, e0.conj())) + linalg.kron(
            np.outer(h, h.conj()), np.outer(e1, e1.conj())
        )
        t = Tester(d2=2, d1=2, outcomes=(p1 / 2.0, (np.eye(4) - p1) / 2.0))
        v = testers.classify_two_outcome_qubit(t)
        assert v.case == "(2,2)"
        assert not v.extremal
        assert not testers.is_extremal_tester(t).extremal

    def test_nonuniform_normalization_handled(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        t = testers.xi_transform(bell_tester(), rho, np.eye(2, dtype=complex))
        v = testers.classify_two_outcome_qubit(t)
        assert v.extremal

    def test_pure_normalization_reduces_to_povm(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        povm = Povm(d=2, effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        t = testers.tester_from_pure_normalization(phi, povm)
        v = testers.classify_two_outcome_qubit(t)
        assert v.case == "other"
        assert v.extremal

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            testers.classify_two_outcome_qubit(
                Tester(d2=2, d1=2, outcomes=(np.eye(4, dtype=complex) / 2.0,))
            )


class TestSchmidtTester:
    def test_local_unitaries_keep_validity(self):
        rng = np.random.default_rng(2)
        t = testers.schmidt_tester(
            0.4, channels.random_unitary(2, rng), channels.random_unitary(2, rng)
        )
        assert testers.is_valid_tester(t)
        assert testers.is_extremal_tester(t).extremal


class TestClassifyValidatesOnce:
    """One tester validation per classification: the outcomes are decomposed
    once, as one stack, and rho is extracted once, by the comb cascade of
    the GQI verdict."""

    def test_uniform_normalization(self, record):
        t = testers.schmidt_tester(0.3)
        calls = validation_calls(record)
        assert testers.classify_two_outcome_qubit(t).extremal
        names = [c.name for c in calls]
        assert names.count("_cascade") == 1
        assert names.count("partial_trace") == 0
        assert names.count("check_hermitian_stack") == 1
        assert shapes(calls, "eigh") == [(2, 4, 4)]
        # Neither rho, whose rank is not read here, nor the sum is decomposed.
        assert shapes(calls, "eigvalsh") == []

    def test_xi_branch_redoes_the_verdict(self, record):
        t = testers.xi_transform(bell_tester(), np.diag([0.7, 0.3]).astype(complex), np.eye(2))
        calls = validation_calls(record)
        assert testers.classify_two_outcome_qubit(t).extremal
        # One cascade per GQI verdict: the tester's, and the one of the
        # outcomes xi_inverse returns.
        assert [c.name for c in calls].count("_cascade") == 2
        # The given outcomes, rho (once, in xi_inverse, as a stack of one:
        # its rank is read from eigvalsh) and the outcomes xi_inverse returns.
        assert shapes(calls, "eigh") == [(2, 4, 4), (1, 2, 2), (2, 4, 4)]
        # rho's rank, from the stacked eigvalsh of the counting bounds on a stack of one.
        assert shapes(calls, "eigvalsh") == [(1, 2, 2)]
