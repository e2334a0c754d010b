"""Tests for Choi/Kraus conversions, channel and instrument extremality, the
square-root and Lueders constructions, and the combination fixtures."""

import math

import numpy as np
import pytest

from exqip import channels, fileio, gqi, linalg, suites, testers
from exqip.channels import APPENDIX_TABLE, Channel, Instrument
from exqip.errors import DimensionMismatchError, NotPositiveError, ValidationError
from exqip.testers import Povm

import oracles


def haar_kraus(rng, d0, d1, count):
    return channels.channel_kraus(channels.random_channel(d0, d1, count, rng))


class TestVecConventions:
    def test_vec_is_row_major(self):
        a = np.arange(6, dtype=complex).reshape(2, 3)
        assert np.array_equal(channels.vec_op(a), np.arange(6, dtype=complex))
        assert np.array_equal(channels.unvec_op(channels.vec_op(a), 2, 3), a)

    def test_partial_trace_identity(self):
        """Tr_1 |K_m>><<K_n| = K_m^T K_n^conj under the reshape convention."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            km = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            kn = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            lhs = linalg.partial_trace(
                np.outer(channels.vec_op(km), channels.vec_op(kn).conj()), (3, 2), {0}
            )
            rhs = km.T @ kn.conj()
            assert linalg.max_abs(lhs - rhs) < 1e-12


class TestKrausChoi:
    @pytest.mark.parametrize("d0,d1,count", [(2, 2, 1), (2, 2, 3), (2, 3, 2), (3, 2, 4)])
    def test_round_trip(self, d0, d1, count):
        rng = np.random.default_rng(count)
        ks = haar_kraus(rng, d0, d1, count)
        choi = channels.kraus_to_choi(ks)
        back = channels.choi_to_kraus(choi, d1, d0)
        assert linalg.max_abs(channels.kraus_to_choi(back) - choi) < 1e-10

    def test_minimal_count(self):
        rng = np.random.default_rng(1)
        ks = haar_kraus(rng, 2, 2, 3)
        back = channels.choi_to_kraus(channels.kraus_to_choi(ks), 2, 2)
        assert len(back) == 3

    def test_negative_choi_rejected(self):
        with pytest.raises(NotPositiveError):
            channels.choi_to_kraus(np.diag([1.0, -1.0, 1.0, 1.0]), 2, 2)

    def test_identity_channel(self):
        c = channels.channel_from_kraus([np.eye(2, dtype=complex)])
        assert channels.is_valid_channel(c)
        ks = channels.channel_kraus(c)
        assert len(ks) == 1
        assert linalg.max_abs(np.abs(ks[0]) - np.eye(2)) < 1e-12


class TestChannelExtremality:
    def test_unitary_extremal_both_criteria(self):
        c = channels.channel_from_kraus([np.eye(2, dtype=complex)])
        assert channels.choi_condition(c)
        assert channels.channel_extremal_theorem1(c)

    def test_depolarizing_not_extremal_both_criteria(self):
        c = Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0)
        assert not channels.choi_condition(c)
        assert not channels.channel_extremal_theorem1(c)

    def test_amplitude_damping_extremal(self):
        gamma = 0.3
        k1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]], dtype=complex)
        k2 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        c = channels.channel_from_kraus([k1, k2])
        assert channels.choi_condition(c)
        assert channels.channel_extremal_theorem1(c)

    @pytest.mark.parametrize("seed", range(10))
    def test_criteria_agree_on_random_channels(self, seed):
        rng = np.random.default_rng(seed)
        d0, d1 = [(2, 2), (2, 3), (3, 2)][seed % 3]
        count = int(rng.integers(-(-d0 // d1), d0 * d1 + 1))
        c = channels.random_channel(d0, d1, count, rng)
        assert channels.choi_condition(c) == channels.channel_extremal_theorem1(c)

    def test_invalid_channel_rejected(self):
        c = Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex))
        with pytest.raises(ValidationError):
            channels.choi_condition(c)
        with pytest.raises(ValidationError, match=r"^invalid GQI: outcome min eigenvalues \(1\.0,\), cascade residuals \(1\.0,\)$"):
            channels.channel_extremal_theorem1(c)

    def test_channel_is_the_one_outcome_instrument(self):
        c = channels.random_channel(2, 3, 2, np.random.default_rng(5))
        assert isinstance(c, Instrument) and c.operators == (c.choi,) and c.n_outcomes == 1
        assert fileio.kind_of(c).name == "channel"
        assert channels.is_valid_channel is channels.is_valid_instrument
        assert channels.choi_condition is channels.instrument_extremal
        assert channels.channel_extremal_theorem1 is channels.instrument_extremal_rank_test
        assert [linalg.max_abs(a - b) for a, b in zip(channels.channel_kraus(c), channels.choi_to_kraus(c.choi, 3, 2))] == [0.0, 0.0]
        with pytest.raises(DimensionMismatchError):
            Channel(d1=2, d0=2, choi=np.eye(3))

    def test_theorem1_matches_dense_family_and_choi(self):
        """Theorem 1 on the GQI view against the dense family it replaced
        and against Choi's criterion, at (d_0, d_1) up to D = 12."""
        verdicts = set()
        for d0, d1 in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4)]:
            rng = np.random.default_rng(100 * d0 + d1)
            for _ in range(30):
                count = int(rng.integers(-(-d0 // d1), d0 * d1 + 1))
                c = channels.random_channel(d0, d1, count, rng)
                want = oracles.theorem1_dense(c)
                assert channels.channel_extremal_theorem1(c) == want == channels.choi_condition(c), (d0, d1, count)
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_theorem1_builds_no_dense_family(self, monkeypatch):
        """Theorem 1 runs one eigh per channel, its own validation, ranks no
        complex family and builds no Gell-Mann basis."""

        def refuse(*args, **kwargs):
            raise AssertionError("dense Theorem 1 family built")

        real_eigh = np.linalg.eigh
        eighs = []

        def counting_eigh(*args, **kwargs):
            eighs.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        rng = np.random.default_rng(7)
        cases = []
        for d0, d1 in suites.EQUIVALENCE_DIMS:
            for count in sorted({-(-d0 // d1), d0 * d1}):
                c = channels.random_channel(d0, d1, count, rng)
                cases.append(c)
        monkeypatch.setattr(linalg, "complex_family_rank", refuse)
        monkeypatch.setattr(linalg, "traceless_hermitian_basis", refuse)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        verdicts = {channels.channel_extremal_theorem1(c) for c in cases}
        assert verdicts == {True, False}
        assert eighs == [(1, c.d0 * c.d1, c.d0 * c.d1) for c in cases]


def former_kraus_products(eig, d1, d0, pol=linalg.DEFAULT_TOL):
    """The r^2 products K_m^dagger K_n, m-major, one product at a time, of
    the Kraus operators sqrt(lambda_m) unvec(v_m) taken one at a time."""
    ks = [
        math.sqrt(eig.values[m]) * channels.unvec_op(eig.vectors[:, m], d1, d0)
        for m in range(eig.support_ranks(pol))
    ]
    return [km.conj().T @ kn for km in ks for kn in ks]


def former_choi_condition(ins, pol=linalg.DEFAULT_TOL):
    spectra = gqi.is_valid_gqi(ins, pol=pol).spectra
    products = []
    for i in range(len(spectra.values)):
        products += former_kraus_products(spectra[i], ins.d1, ins.d0, pol)
    return linalg.complex_family_rank(products, pol) == len(products)


def equivalence_channels(seeds):
    """The ``equivalence`` suite's population."""
    out = []
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        for d0, d1 in suites.EQUIVALENCE_DIMS:
            out.append(channels.random_channel(d0, d1, int(rng.integers(-(-d0 // d1), d0 * d1 + 1)), rng))
    return out


class TestKrausProducts:
    """The Kraus products of the Kraus-product criterion come from one
    broadcast matmul of the (r, d1, d0) Kraus stack."""

    def population(self):
        rng = np.random.default_rng(31)
        out = equivalence_channels(10)
        out += [channels.random_instrument(2, 2, counts, rng) for counts in ((1, 1), (1, 2), (2, 2), (1, 1, 2))]
        return out + [channels.combination_fixture(k) for k in sorted(APPENDIX_TABLE)]

    def test_products_are_the_former_products_to_the_bit(self):
        for ins in self.population():
            spectra = gqi.is_valid_gqi(ins).spectra
            for i in range(len(spectra.values)):
                got = channels._kraus_products(channels._kraus_stack(spectra[i], ins.d1, ins.d0, linalg.DEFAULT_TOL))
                want = former_kraus_products(spectra[i], ins.d1, ins.d0)
                assert got.shape == (len(want), ins.d0, ins.d0)
                assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_kraus_lists_are_the_former_lists(self):
        for ins in self.population():
            for n in ins.operators:
                eig = linalg.hermitian_eig(n)
                want = [
                    math.sqrt(eig.values[m]) * channels.unvec_op(eig.vectors[:, m], ins.d1, ins.d0)
                    for m in range(eig.support_ranks(linalg.DEFAULT_TOL))
                ]
                got = channels.choi_to_kraus(n, ins.d1, ins.d0)
                assert len(got) == len(want)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_choi_verdicts_on_the_equivalence_population(self):
        population = equivalence_channels(200)
        got = [channels.choi_condition(c) for c in population]
        assert got == [former_choi_condition(c) for c in population]
        assert set(got) == {True, False}


class TestInstrumentExtremality:
    def test_luders_extremal(self):
        ins = channels.luders_instrument(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        assert channels.is_valid_instrument(ins)
        assert channels.instrument_extremal(ins)
        assert channels.instrument_extremal_rank_test(ins)

    def test_sqrt_instrument_tracks_effect_independence(self):
        independent = Povm(
            d=2, effects=(np.diag([1 / 3, 2 / 3]), np.diag([2 / 3, 1 / 3]))
        )
        dependent = Povm(d=2, effects=(np.eye(2) / 2.0, np.eye(2) / 2.0))
        assert channels.instrument_extremal(channels.sqrt_instrument(independent))
        assert not channels.instrument_extremal(channels.sqrt_instrument(dependent))

    @pytest.mark.parametrize("seed", range(8))
    def test_criteria_agree_on_random_instruments(self, seed):
        rng = np.random.default_rng(seed)
        counts = [(1, 1), (1, 2), (2, 2), (1, 1, 1)][seed % 4]
        ins = channels.random_instrument(2, 2, counts, rng)
        assert channels.instrument_extremal(ins) == channels.instrument_extremal_rank_test(ins)

    def test_rank_bound(self):
        ins = channels.random_instrument(2, 2, (2, 2), np.random.default_rng(0))
        bound = channels.instrument_rank_bound(ins)
        assert bound.lhs == 8 and bound.rhs == 4 and not bound.ok
        assert not channels.instrument_extremal(ins)


class TestInducedObjects:
    def test_induced_channel_sums_operators(self):
        ins = channels.luders_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        chan = channels.induced_channel(ins)
        assert linalg.max_abs(chan.choi - sum(ins.operators)) == 0.0
        assert channels.is_valid_channel(chan)

    def test_induced_povm_probabilities(self):
        """Tr[P_i rho] must equal Tr[sum_m K_m rho K_m^dagger] per outcome."""
        rng = np.random.default_rng(3)
        ins = channels.random_instrument(2, 3, (1, 2), rng)
        povm = channels.induced_povm(ins)
        assert testers.povm_is_valid(povm)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for effect, ks in zip(povm.effects, channels.instrument_kraus(ins)):
            direct = sum(np.trace(k @ rho @ k.conj().T).real for k in ks)
            assert abs(np.trace(effect @ rho).real - direct) < 1e-10

    def test_induced_povm_effects_hermitian(self):
        ins = channels.random_instrument(3, 2, (1, 1, 1), np.random.default_rng(4))
        for e in channels.induced_povm(ins).effects:
            assert linalg.max_abs(e - e.conj().T) < 1e-12


class TestCombinationFixtures:
    @pytest.mark.parametrize("k", sorted(APPENDIX_TABLE))
    def test_fixture_is_valid(self, k):
        assert channels.is_valid_instrument(channels.combination_fixture(k))

    @pytest.mark.parametrize("k", sorted(APPENDIX_TABLE))
    def test_fixture_matches_table(self, k):
        triple = channels.classify_combination(channels.combination_fixture(k))
        assert triple.as_signs() == APPENDIX_TABLE[k]

    def test_open_problem_row(self):
        with pytest.raises(ValidationError):
            channels.combination_fixture(5)

    def test_unknown_row(self):
        with pytest.raises(ValidationError):
            channels.combination_fixture(9)


class TestRandomGenerators:
    def test_random_unitary_is_unitary(self):
        u = channels.random_unitary(4, np.random.default_rng(0))
        assert linalg.max_abs(u @ u.conj().T - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("d0,d1", [(2, 2), (3, 2), (2, 3)])
    def test_random_channel_valid(self, d0, d1):
        c = channels.random_channel(d0, d1, 2, np.random.default_rng(1))
        assert channels.is_valid_channel(c)

    def test_random_channel_clamps_kraus_count(self):
        # one Kraus operator cannot carry a 3 -> 2 channel; the count is raised
        c = channels.random_channel(3, 2, 1, np.random.default_rng(2))
        assert channels.is_valid_channel(c)

    def test_random_instrument_valid(self):
        ins = channels.random_instrument(2, 2, (1, 2), np.random.default_rng(3))
        assert channels.is_valid_instrument(ins)
        assert ins.n_outcomes == 2
