"""Unit and property tests for the linear-algebra kernel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exqip import linalg
from exqip.errors import DimensionMismatchError, NotHermitianError, NotPositiveError
from exqip.linalg import DEFAULT_TOL, TolerancePolicy

import oracles


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def random_psd(rng, d, rank=None):
    rank = rank if rank is not None else d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL.eps_rel == 1e-10
        assert DEFAULT_TOL.eps_comb == pytest.approx(1e-9)

    def test_scaled(self):
        p = TolerancePolicy(eps_rel=1e-6)
        assert p.eps_rel == 1e-6
        assert p.comb_factor == DEFAULT_TOL.comb_factor == 10.0
        assert p.eps_comb == pytest.approx(1e-5)

    def test_supp_tol_floor(self):
        # near-zero operators still get a usable threshold
        assert DEFAULT_TOL.supp_tol(4, 1e-30) == DEFAULT_TOL.supp_tol(4, 1.0)

    def test_supp_tol_elementwise(self):
        lam = np.array([-1.0, 1e-30, 0.5, 1.0, 3.0, 1e6])
        expected = [5 * max(float(x), 1.0) * DEFAULT_TOL.eps_rel for x in lam]
        assert DEFAULT_TOL.supp_tol(5, lam).tolist() == expected
        assert [DEFAULT_TOL.supp_tol(5, float(x)) for x in lam] == expected


class TestCheckHermitian:
    def test_accepts_and_symmetrizes(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        out = linalg.check_hermitian(h + 1e-13 * 1j * np.eye(4))
        assert linalg.max_abs(out - out.conj().T) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            linalg.check_hermitian(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NotHermitianError):
            linalg.check_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 3)
        linalg.check_hermitian(h.T)  # must not trip the dtype view


# Any float, signed zeros, subnormals and the ends of the range included.
PARTS = st.floats(width=64)


@st.composite
def kron_operands(draw):
    """A matrix of 1-6 rows and columns, real or complex, contiguous or a
    strided or transposed view of a larger array."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    shape = {"contiguous": (m, n), "strided": (2 * m, 3 * n), "transposed": (n, m)}[layout]
    dtype = draw(st.sampled_from([float, complex]))
    parts = draw(st.lists(PARTS, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]))
    a = np.empty(shape, dtype=dtype)
    a.real = np.reshape(parts[::2], shape)
    if dtype is complex:
        a.imag = np.reshape(parts[1::2], shape)
    return {"contiguous": a, "strided": a[::2, ::3], "transposed": a.T}[layout]


class TestKron:
    @settings(max_examples=300, deadline=None)
    @given(kron_operands(), kron_operands())
    def test_is_np_kron_to_the_bit(self, a, b):
        """Every entry, NaNs and signed zeros included, and the dtype are
        those of ``np.kron``, for real, complex and mixed operands."""
        with np.errstate(all="ignore"):
            got, want = linalg.kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(kron_operands(), kron_operands(), st.sampled_from([((3,), (3,)), ((2, 1), (1, 3)), ((), (2,)), ((4,), ())]))
    # A product that underflows: numpy gives a lone real-complex product +0
    # and the same product within a longer run -0.
    @example(np.array([[1e-300]]), np.array([[complex(-2.38091325e-147, -0.0)]]), ((3,), (3,)))
    def test_stack_is_each_product_to_the_bit(self, a, b, leads):
        """Stacks whose leading axes broadcast give, matrix by matrix, the
        product of the two matrices' own call."""
        lead_a, lead_b = leads
        with np.errstate(all="ignore"):
            sa = np.stack([a * (k + 1) for k in range(math.prod(lead_a))]).reshape(lead_a + a.shape)
            sb = np.stack([b - k for k in range(math.prod(lead_b))]).reshape(lead_b + b.shape)
            got = linalg.kron(sa, sb)
            lead = np.broadcast_shapes(lead_a, lead_b)
            assert got.shape == lead + (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
            x, y = np.broadcast_to(sa, lead + a.shape), np.broadcast_to(sb, lead + b.shape)
            for idx in np.ndindex(*lead):
                assert got[idx].tobytes() == linalg.kron(x[idx], y[idx]).tobytes()

    def test_suites_call_no_np_kron(self, record):
        """The tester generators and the xi maps take their products from
        ``linalg.kron``: a round of every suite makes no ``np.kron`` call."""
        from exqip import suites

        calls = record(np, "kron")
        for name in suites.SUITES:
            assert suites.run_suite(name, seeds=4).ok
        assert calls == []

    @pytest.mark.parametrize("shapes", [((2,), (2, 2)), ((2, 2), (3,)), ((), (2, 2)), ((2, 2, 2), (3, 2, 2))])
    def test_only_matrices(self, shapes):
        """Matrices, or stacks of them whose leading axes broadcast."""
        a, b = (np.ones(shape) for shape in shapes)
        with pytest.raises(DimensionMismatchError):
            linalg.kron(a, b)


class TestPartialTrace:
    def test_kron_factorization(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        full = linalg.kron(a, b)
        left = linalg.partial_trace(full, (2, 3), {1})
        right = linalg.partial_trace(full, (2, 3), {0})
        assert linalg.max_abs(left - np.trace(b) * a) < 1e-12
        assert linalg.max_abs(right - np.trace(a) * b) < 1e-12

    def test_composition_matches_single_call(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        d = math.prod(dims)
        x = random_hermitian(rng, d)
        both = linalg.partial_trace(x, dims, {0, 2})
        stepwise = linalg.partial_trace(
            linalg.partial_trace(x, dims, {2}), dims[:2], {0}
        )
        assert linalg.max_abs(both - stepwise) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        x = random_hermitian(rng, 6)
        reduced = linalg.partial_trace(x, (2, 3), {0})
        assert abs(np.trace(reduced) - np.trace(x)) < 1e-12

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(4), (2, 3), {0})
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(6), (2, 3), {2})


class TestHermitianEig:
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_reconstruction(self, d):
        rng = np.random.default_rng(d)
        h = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(h)
        assert linalg.max_abs(eig.reconstruct() - h) < 1e-10
        assert np.all(np.diff(eig.values) <= 1e-12)  # descending

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(9)
        eig = linalg.hermitian_eig(random_hermitian(rng, 6))
        gram = eig.vectors.conj().T @ eig.vectors
        assert linalg.max_abs(gram - np.eye(6)) < 1e-12

    def test_stack_matches_single(self):
        """The stacked decomposition against a plain ``eigh`` of each
        symmetrized matrix, sorted by ``argsort`` and cut at supp_tol."""
        rng = np.random.default_rng(10)
        stack = np.array(
            [random_psd(rng, 5, rank=r) for r in (1, 3, 5)] + [np.diag([1.0, 1.0, 0.5, 0.0, 0.0])]
        )
        eigs = linalg.hermitian_eig(stack)
        for k, a in enumerate(stack):
            w, v = np.linalg.eigh((a + a.conj().T) / 2)
            order = np.argsort(w)[::-1]
            w, v = w[order], v[:, order]
            assert np.array_equal(eigs[k].values, w)
            # Columns of tied eigenvalues may come in either order: compare spans.
            for value in np.unique(w):
                cols = w == value
                got, want = eigs[k].vectors[:, cols], v[:, cols]
                if cols.sum() == 1:
                    assert np.array_equal(got, want)
                else:
                    assert linalg.max_abs(got @ got.conj().T - want @ want.conj().T) < 1e-12
            assert DEFAULT_TOL.support(eigs[k].values)[1] == np.count_nonzero(w > DEFAULT_TOL.supp_tol(5, w[0]))
        assert DEFAULT_TOL.support(eigs.values)[1].tolist() == [1, 3, 5, 3]
        assert linalg.max_abs(eigs.reconstruct() - stack) < 1e-10

    def test_stack_check_raises_for_first_failing_matrix(self):
        skew = np.eye(3, dtype=complex)
        skew[0, 2] = 0.5
        nan = np.full((3, 3), np.nan)
        with pytest.raises(NotHermitianError, match="5.000e-01"):
            linalg.check_hermitian_stack(np.array([np.eye(3), skew, nan]))
        with pytest.raises(NotHermitianError, match="non-finite"):
            linalg.check_hermitian_stack(np.array([nan, skew]))
        # The entry rule: a modulus above MAX_ENTRY, after and before a skew matrix.
        huge = np.diag([1e308, 0.0, 0.0])
        with pytest.raises(NotHermitianError, match="5.000e-01"):
            linalg.check_hermitian_stack(np.array([np.eye(3), skew, huge]))
        with pytest.raises(NotHermitianError, match=r"^matrix entry of modulus above 1e\+100$"):
            linalg.check_hermitian_stack(np.array([np.eye(3), huge, skew]))
        with pytest.raises(NotHermitianError, match="non-finite"):
            linalg.check_hermitian_stack(np.array([nan, huge]))

    def test_sqrt_psd(self):
        rng = np.random.default_rng(12)
        a = random_psd(rng, 4, rank=2)
        root = linalg.sqrt_psd(a)
        assert linalg.max_abs(root @ root - a) < 1e-10
        assert linalg.max_abs(root - root.conj().T) < 1e-12


class TestNumericalRank:
    """``oracles.rank_decision``, the independent reference of the rank
    stage, on families of real vectors (the rows)."""

    def test_full_rank(self):
        decision = oracles.rank_decision(np.eye(3))
        assert decision.rank == 3 and decision.nullvector is None

    def test_deficient_gives_nullvector(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        decision = oracles.rank_decision(np.array(vecs))
        assert decision.rank == 2
        nullvec = decision.nullvector
        combo = sum(c * v for c, v in zip(nullvec, vecs))
        assert np.linalg.norm(combo) < 1e-12
        assert abs(np.linalg.norm(nullvec) - 1.0) < 1e-12

    def test_nullvector_sign_deterministic(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = oracles.rank_decision(vecs).nullvector
        b = oracles.rank_decision(vecs).nullvector
        assert np.array_equal(a, b)
        assert a[int(np.argmax(np.abs(a)))] > 0

    def test_empty(self):
        decision = oracles.rank_decision(np.zeros((0, 3)))
        assert decision.rank == 0 and decision.nullvector is None

    def test_mixed_lengths(self):
        with pytest.raises(ValueError):
            oracles.rank_decision([np.zeros(2), np.zeros(3)])

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((4, 6))
        r1 = oracles.rank_decision(vecs).rank
        r2 = oracles.rank_decision(1e8 * vecs).rank
        assert r1 == r2 == 4


class TestComplexFamilyRank:
    """``oracles.complex_family_rank``, the reference of the Kraus-product
    criterion's rank."""

    def test_independent(self):
        mats = [np.eye(2), np.array([[0, 1], [0, 0]], dtype=complex)]
        assert oracles.complex_family_rank(mats) == 2

    def test_complex_dependence_detected(self):
        # 1j * A is dependent over C even though R-independent as real vectors
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert oracles.complex_family_rank([a, 1j * a]) == 1


class TestVectorization:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hs_isometry(self, d, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        va, vb = linalg.vectorize_hermitian(a), linalg.vectorize_hermitian(b)
        assert abs(float(va @ vb) - linalg.hs_inner(a, b).real) < 1e-12 * max(
            1.0, abs(linalg.hs_inner(a, b))
        )

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, d, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, d)
        back = linalg.unvectorize_hermitian(linalg.vectorize_hermitian(a), d)
        assert linalg.max_abs(back - a) < 1e-12

    def test_length(self):
        assert linalg.vectorize_hermitian(np.eye(4)).size == 16

    def test_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            linalg.unvectorize_hermitian(np.zeros(5), 2)

    def test_upper_indices_cached_and_read_only(self):
        iu = linalg._upper_indices(5)
        assert linalg._upper_indices(5) is iu
        for got, want in zip(iu, np.triu_indices(5, k=1)):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 1


class TestSupport:
    def test_projector_idempotent(self):
        rng = np.random.default_rng(6)
        t = random_psd(rng, 5, rank=2)
        u = oracles.support_vectors(t)
        p = u @ u.conj().T
        assert linalg.max_abs(p @ p - p) < 1e-10
        assert abs(np.trace(p).real - 2.0) < 1e-10
        assert linalg.max_abs(p @ t - t) < 1e-8

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_basis_count_and_orthonormality(self, rank):
        rng = np.random.default_rng(rank)
        t = random_psd(rng, 4, rank=rank)
        basis = oracles.support_basis(t)
        assert len(basis) == rank * rank
        for i, a in enumerate(basis):
            assert linalg.max_abs(a - a.conj().T) < 1e-12
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(linalg.hs_inner(a, b) - expected) < 1e-10

    def test_basis_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            oracles.support_basis(np.diag([1.0, -1.0]))


class TestOperatorBases:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_traceless_basis(self, d):
        basis = linalg.traceless_hermitian_basis(d)
        assert len(basis) == d * d - 1
        for i, a in enumerate(basis):
            assert abs(np.trace(a)) < 1e-12
            assert linalg.max_abs(a - a.conj().T) < 1e-12
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(linalg.hs_inner(a, b) - expected) < 1e-12

    def test_qubit_matches_pauli_span(self):
        basis = linalg.traceless_hermitian_basis(2)
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for b, p in zip(basis, paulis):
            assert linalg.max_abs(b - p / math.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full_basis_spans(self, d):
        basis = linalg.hermitian_basis(d)
        assert len(basis) == d * d
        assert oracles.rank_decision(linalg.vectorize_hermitian(np.array(basis))).rank == d * d
