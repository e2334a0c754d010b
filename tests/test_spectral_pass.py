"""One spectral pass per verdict, against the pipeline it replaces.

``gqi.is_valid_gqi`` checks and decomposes a GQI's outcomes as one stack, and
``gqi.is_extremal`` reuses those eigenpairs for the support bases and for the
epsilon* step.  The oracle below is the former pipeline: a plain ``eigh``
of each symmetrized outcome, sorted by ``argsort`` and cut at supp_tol, for
the supports, and the public ``gqi.max_perturbation_step`` on those
eigenpairs, as the program reads validation's.  Where one outcome has full
support beside another nonzero one, the oracle builds the exchange witness
of the full-support exit from its own supports.
"""

import numpy as np
import pytest

from exqip import channels, combs, gqi, linalg, suites, testers
from exqip.combs import CombSignature
from exqip.errors import DimensionMismatchError, NotHermitianError, ValidationError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

import oracles
from test_epsilon_star import acceptance_07_population, ladder_population
from test_reduced_rank import ladder_inputs, former_tester_basis


def former_spectra(outcomes):
    """Eigenpairs of the outcomes as the per-outcome pipeline computed them,
    eigenvalues descending, as one stack."""
    values, vectors = [], []
    for t in outcomes:
        t = np.asarray(t, dtype=complex)
        w, v = np.linalg.eigh((t + t.conj().T) / 2)
        order = np.argsort(w)[::-1]
        values.append(w[order])
        vectors.append(v[:, order])
    return linalg.EigenDecomposition(np.array(values), np.array(vectors))


def oracle(g, normalization_basis=None, pol=DEFAULT_TOL):
    """(extremal, rank, support_ranks, family_size, epsilon*) of the former pipeline."""
    assert gqi.is_valid_gqi(g, pol=pol).ok
    spectra = former_spectra(g.outcomes)
    supports = [v[:, w > pol.supp_tol(len(w), float(w[0]))] for w, v in zip(spectra.values, spectra.vectors)]
    dim = g.signature.total_dim
    if normalization_basis is None:
        n_known = combs.comb_variable_count(g.signature)
        rows = [combs.complement_coordinates(u, g.signature) for u in supports]
    else:
        n_known = len(normalization_basis)
        known = np.array([linalg.vectorize_hermitian(b) for b in normalization_basis])
        q = np.linalg.qr(known.reshape(n_known, dim * dim).T)[0]
        rows = []
        for u in supports:
            x = linalg.vectorize_hermitian(linalg.support_operators(u))
            rows.append(x - (x @ q) @ q.T)
    decision = oracles.rank_decision(np.vstack(rows), pol, known=n_known, ambient=dim * dim)
    ranks = tuple(u.shape[1] for u in supports)
    eps = None
    full = [i for i, r in enumerate(ranks) if r == dim]
    others = [i for i, r in enumerate(ranks) if r > 0 and i not in full[:1]]
    tau = pol.rank_tol(sum(r * r for r in ranks) + n_known, dim * dim, max(1.0, np.sqrt(len(ranks))))
    if full and others and tau < 1.0:
        # Exchange weight between the first full-support outcome and the
        # first other nonzero one, along the projector onto the latter's support.
        p = supports[others[0]] @ supports[others[0]].conj().T
        directions = [np.zeros((dim, dim), dtype=complex) for _ in ranks]
        directions[full[0]], directions[others[0]] = -p, p
        eps = gqi.max_perturbation_step(directions, spectra, pol)
    elif decision.nullvector is not None:
        directions = []
        pos = 0
        for u, r in zip(supports, ranks):
            h = linalg.unvectorize_hermitian(decision.nullvector[pos : pos + r * r], r)
            directions.append(u @ h @ u.conj().T)
            pos += r * r
        eps = gqi.max_perturbation_step(directions, spectra, pol)
    return decision.nullvector is None, decision.rank, ranks, sum(r * r for r in ranks) + n_known, eps


def summary(cert):
    eps = None if cert.perturbation is None else cert.perturbation.epsilon_star
    return cert.extremal, cert.rank, cert.support_ranks, cert.family_size, eps


def assert_matches_oracle(got, want):
    assert got[:4] == want[:4]
    if want[4] is None:
        assert got[4] is None
    else:
        assert abs(got[4] - want[4]) <= 1e-12 * max(abs(want[4]), abs(got[4]))


def appendix_gqis():
    """The appendix fixtures, their induced channels and POVMs, as GQIs."""
    out = []
    for k in sorted(channels.APPENDIX_TABLE):
        ins = channels.combination_fixture(k)
        for x in (ins, channels.induced_channel(ins), channels.induced_povm(ins)):
            out.append(Gqi(x.signature, x.outcomes))
    return out


class TestOracle:
    @pytest.mark.parametrize(
        "population",
        [acceptance_07_population, appendix_gqis, ladder_population],
        ids=["acceptance-07", "appendix", "ladder"],
    )
    def test_certificates_match(self, population):
        for g in population():
            assert_matches_oracle(summary(gqi.is_extremal(g)), oracle(g))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2, 2)])
    def test_ladder_inputs(self, dims):
        rng = np.random.default_rng(sum(dims))
        verdicts = set()
        for g in ladder_inputs(dims, rng):
            got = summary(gqi.is_extremal(g))
            assert_matches_oracle(got, oracle(g))
            verdicts.add(got[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 4])
    def test_testers(self, angle):
        t = testers.schmidt_tester(angle)
        split = testers.split_outcome(t, 1, testers.projective_split_effects(t.outcomes[1]))
        for x in (t, split):
            want = oracle(Gqi(x.signature, x.outcomes), former_tester_basis(x))
            assert_matches_oracle(summary(testers.is_extremal_tester(x)), want)

    def test_kraus_criteria(self):
        """Kraus operators from the validation eigenpairs against
        ``choi_to_kraus`` on each operator."""

        def independent(kraus_lists):
            products = [km.conj().T @ kn for ks in kraus_lists for km in ks for kn in ks]
            return linalg.complex_family_rank(products) == len(products)

        rng = np.random.default_rng(11)
        verdicts = set()
        for counts in [(1,), (2,), (4,), (1, 1), (1, 2), (2, 2), (1, 1, 1)]:
            ins = channels.random_instrument(2, 2, counts, rng)
            want = independent(channels.instrument_kraus(ins))
            assert channels.instrument_extremal(ins) == want
            c = channels.induced_channel(ins)
            want = independent([channels.channel_kraus(c)])
            assert channels.choi_condition(c) == channels.channel_extremal_theorem1(c) == want
            verdicts.add(want)
        assert verdicts == {True, False}


def three_outcome_gqi():
    """A non-extremal three-outcome GQI at (2, 2): a random comb split by a
    three-effect POVM."""
    sig = CombSignature((2, 2))
    comb = combs.random_deterministic_comb(sig, seed=3, spread=0.5).operator
    root = linalg.sqrt_psd(comb)
    u = channels.random_unitary(4, np.random.default_rng(3))
    effects = [u[:, [0]] @ u[:, [0]].conj().T, u[:, [1]] @ u[:, [1]].conj().T]
    effects.append(np.eye(4) - effects[0] - effects[1])
    return Gqi(signature=sig, outcomes=tuple(root @ e @ root for e in effects))


def test_verdicts_of_one_gqi_compare_equal():
    g = three_outcome_gqi()
    first, second = gqi.is_valid_gqi(g), gqi.is_valid_gqi(g)
    assert first == second and hash(first) == hash(second)
    assert "spectra" not in repr(first)


def eig_calls(monkeypatch) -> dict:
    """The arguments of every later ``np.linalg.eigh`` and ``eigvalsh`` call."""
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            calls[_name].append(np.array(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestCount:
    def test_one_batched_outcome_decomposition(self, monkeypatch):
        g = three_outcome_gqi()
        calls = eig_calls(monkeypatch)
        checked = []

        def check(a, *rest, _fn=linalg.check_hermitian_stack):
            checked.append(a.shape)
            return _fn(a, *rest)

        monkeypatch.setattr(linalg, "check_hermitian_stack", check)
        cert = gqi.is_extremal(g)
        assert not cert.extremal and cert.perturbation.epsilon_star > 0.0
        assert checked == [(3, 4, 4)]
        assert [a.shape for a in calls["eigh"]] == [(3, 4, 4)]
        # The sum is neither checked nor decomposed: every eigvalsh call is a
        # stack of the epsilon* step.
        assert calls["eigvalsh"] and all(a.ndim == 3 for a in calls["eigvalsh"])

    def test_xi_and_split_decompose_once(self, monkeypatch):
        """sqrt(rho) and sqrt(T_i) come from the eigh that checks them."""
        t = testers.schmidt_tester(0.3)
        rho = np.diag([0.3, 0.7]).astype(complex)
        effects = testers.projective_split_effects(t.outcomes[1])
        calls = eig_calls(monkeypatch)
        testers.xi_transform(t, rho, channels.random_unitary(2, np.random.default_rng(0)))
        # Each is the stacked code on a stack of one.
        assert len(calls["eigh"]) == 1 and np.array_equal(calls["eigh"][0], rho[None])
        assert calls["eigvalsh"] == []
        calls["eigh"].clear()
        testers.split_outcome(t, 1, effects)
        assert len(calls["eigh"]) == 1 and np.array_equal(calls["eigh"][0], t.outcomes[1][None])

    def test_no_per_outcome_eig(self, monkeypatch):
        # The one hermitian_eig of a verdict is validation's, of the (M, D, D)
        # stack of its outcomes: no operator is decomposed on its own.
        shapes = []
        eig = linalg.hermitian_eig

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eig(a, *args, **kwargs)

        population = [three_outcome_gqi(), *ladder_inputs((2, 2), np.random.default_rng(4))]
        monkeypatch.setattr(linalg, "hermitian_eig", recorded)
        for g in [*population, testers.schmidt_tester(0.3)]:
            shapes.clear()
            (testers.is_extremal_tester if isinstance(g, testers.Tester) else gqi.is_extremal)(g)
            assert shapes == [np.shape(g.outcomes)]


class TestErrorPaths:
    """Messages as the per-outcome validation raised them."""

    def gqi_with(self, *outcomes):
        return Gqi(signature=CombSignature((2, 2)), outcomes=outcomes)

    def test_non_hermitian_outcome(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 1e-3
        g = self.gqi_with(np.eye(4) / 4, bad)
        with pytest.raises(NotHermitianError, match=r"^not Hermitian: \|A - A\^dagger\|_max = 1\.000e-03$"):
            gqi.is_extremal(g)

    def test_nan_outcome(self):
        bad = np.eye(4) / 2
        bad[2, 2] = np.nan
        with pytest.raises(NotHermitianError, match="^matrix contains non-finite entries$"):
            gqi.is_valid_gqi(self.gqi_with(np.eye(4) / 2, bad))

    def test_wrong_shape(self):
        with pytest.raises(
            DimensionMismatchError, match=r"^outcome shape \(3, 3\) does not match signature dimension 4$"
        ):
            gqi.is_extremal(self.gqi_with(np.eye(4) / 2, np.eye(3) / 2))

    def test_first_failing_outcome_raises(self):
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 2e-3
        nan = np.full((4, 4), np.nan)
        with pytest.raises(NotHermitianError, match="2.000e-03"):
            gqi.is_valid_gqi(self.gqi_with(skew, nan))
        with pytest.raises(NotHermitianError, match="non-finite"):
            gqi.is_valid_gqi(self.gqi_with(nan, skew))
        with pytest.raises(NotHermitianError, match="2.000e-03"):
            gqi.is_valid_gqi(self.gqi_with(skew, np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            gqi.is_valid_gqi(self.gqi_with(np.eye(3), skew))

    @pytest.mark.parametrize("case", ["not-product", "negative-outcome"])
    def test_invalid_tester(self, case):
        t = testers.schmidt_tester(0.3)
        if case == "not-product":
            t = testers.Tester(d2=2, d1=2, outcomes=(t.outcomes[0], t.outcomes[1] + np.diag([0.1, 0, 0, 0])))
        else:
            dent = np.diag([0.01, -0.01, 0.0, 0.0])
            t = testers.Tester(d2=2, d1=2, outcomes=(t.outcomes[0] - dent, t.outcomes[1] + dent))
        assert not testers.is_valid_tester(t)
        with pytest.raises(ValidationError, match=r"^invalid GQI: outcome min eigenvalues \(.*\), cascade residuals \(.*\)$"):
            testers.is_extremal_tester(t)


class TestTracerGuard:
    """The verdict reaches validation and epsilon* through the module
    attributes, where a wrapper installed on the module sees them."""

    def counting(self, monkeypatch, name, size=lambda args: 1):
        """Calls of ``gqi.<name>``, or the sum of ``size(args)`` over them."""
        fn = getattr(gqi, name)
        count = [0]

        def counted(*args, **kwargs):
            count[0] += size(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(gqi, name, counted)
        return count

    def test_is_extremal(self, monkeypatch):
        valid = self.counting(monkeypatch, "is_valid_gqi")
        step = self.counting(monkeypatch, "max_perturbation_step")
        extremal, midpoint, _ = ladder_inputs((2, 2), np.random.default_rng(2))
        assert gqi.is_extremal(extremal).extremal
        assert (valid[0], step[0]) == (1, 0)
        cert = gqi.is_extremal(midpoint)
        # The witness, and with it epsilon*, is built on its first read.
        assert not cert.extremal and (valid[0], step[0]) == (2, 0)
        assert cert.perturbation is not None
        assert (valid[0], step[0]) == (2, 1)

    def test_tester_validates_once(self, monkeypatch):
        valid = self.counting(monkeypatch, "is_valid_gqi")
        step = self.counting(monkeypatch, "max_perturbation_step")
        cert = testers.is_extremal_tester(testers.schmidt_tester(0.0))
        assert not cert.extremal and (valid[0], step[0]) == (1, 0)
        assert cert.perturbation is not None
        assert (valid[0], step[0]) == (1, 1)

    def test_equivalence_suite_validates_each_channel_once(self, monkeypatch):
        # Both criteria read the Kraus operators from one verdict per channel,
        # the one its certificate carries, and the channels are decided as
        # one population.
        valid = self.counting(monkeypatch, "is_valid_gqi")
        members = self.counting(monkeypatch, "decide_all", lambda args: len(args[0]))
        validated = self.counting(monkeypatch, "_validate_stack", lambda args: len(args[0]))
        result = suites.run_equivalence(seeds=5)
        assert result.total == 20 and result.ok
        assert (valid[0], members[0], validated[0]) == (0, 20, 20)
