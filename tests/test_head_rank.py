"""Head-first rank decisions against the full-stack decision they shortcut.

``gqi.is_extremal`` builds the projected rows outcome by outcome and, when
they outnumber their span D^2 - |V| (the counting rule), decides on the first
span + 1 rows alone whenever those already carry span singular values above
the cutoff taken at sigma_max <= sqrt(M).  The oracle is
``oracles.rank_decision`` on the whole stack, which always runs the
values-only SVD of every row.  Verdict, rank, family size, support ranks and
the null vector must agree, the null vector to the bit.

An outcome of full support beside a nonzero one settles the rank at D^2
before any row is built (the full-support exit); its verdict, rank, support
ranks and family size must agree with the same oracle.  The head-first and
fallback paths are reached by counting-rule inputs with no full-support
outcome (``split_comb``, ``measure_and_prepare``).

Also here: the size guard of the rank stage.
"""

import collections
import json

import numpy as np
import pytest

from exqip import channels, cli, combs, fileio, gqi, suites, testers
from exqip.combs import CombSignature
from exqip.errors import SizeLimitError, ToleranceError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL, TolerancePolicy

import oracles
from populations import (
    GOLDEN_NAMES,
    acceptance_07_population,
    bench_ladder,
    fallback_population,
    fixture_path,
    golden,
    ladder_inputs,
    ladder_population,
    measure_and_prepare,
    run_cli,
    split_comb,
)


def full_stack_decision(g, pol=DEFAULT_TOL):
    """(decision, support ranks, |V|) from every projected row at once."""
    spectra = gqi.is_valid_gqi(g, pol=pol).spectra
    supports = [v[:, :r] for v, r in zip(spectra.vectors, oracles.support_rank(spectra.values, pol))]
    x = np.vstack([combs.complement_coordinates(u, g.signature) for u in supports])
    n_known = combs.comb_variable_count(g.signature)
    decision = oracles.rank_decision(x, pol, known=n_known, ambient=g.signature.total_dim ** 2)
    return decision, tuple(u.shape[1] for u in supports), n_known


def has_full_support(ranks, dim):
    """Whether the full-support exit applies at the default tolerance: one
    outcome of full support and another nonzero one."""
    return dim in ranks and sum(r > 0 for r in ranks) > 1


def ladder():
    """d4, d16 and d36 midpoints and two-outcome GQIs, rank-one combs, and
    split combs at d4 and d16."""
    out = list(ladder_population())
    for dims in ((2, 2), (2, 2, 2, 2)):
        rng = np.random.default_rng(sum(dims))
        out += ladder_inputs(dims, rng)
        out += [split_comb(CombSignature(dims), rng) for _ in range(3)]
    return out


def tree_roots():
    rng = np.random.default_rng(7)
    out = []
    for k in (6, 7, 8):
        ins = channels.combination_fixture(k)
        out.append(Gqi(ins.signature, ins.outcomes))
    for d, counts in ((2, (1, 2)), (3, (1, 3))):
        a = channels.random_instrument(d, d, counts, rng)
        b = channels.random_instrument(d, d, counts, rng)
        out.append(gqi.mix(Gqi(a.signature, a.outcomes), Gqi(b.signature, b.outcomes)))
    return out


def uniform_tester():
    """The qubit tester with two outcomes I/4, both of full support."""
    return testers.Tester(2, 2, (np.eye(4) / 4, np.eye(4) / 4))


def qubit_testers():
    out = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        for t in (
            suites.random_extremal_qubit_tester(rng),
            suites.random_nonextremal_qubit_tester(rng),
            suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
            uniform_tester(),
        ):
            out.append(Gqi(t.signature, t.outcomes))
    return out


@pytest.fixture
def rank_calls(record):
    """Every ``np.linalg.svd``, ``combs.complement_coordinates`` and
    ``gqi._rank_test`` call, in one order."""
    calls = record(np.linalg, "svd")
    record(combs, "complement_coordinates", log=calls)
    return record(gqi, "_rank_test", log=calls)


def rank_stage(calls):
    """The decisions of the rank stage in ``calls``, one per GQI of each
    stacked call, each with whether the call stopped at the head: it built
    fewer rows than the m = sum r_i^2 of the family and ran no values-only
    SVD."""
    out, rows, values_only = [], 0, 0
    for call in calls:
        if call.name == "svd":
            values_only += call.kwargs.get("compute_uv", True) is False
        elif call.name == "complement_coordinates":
            rows += call.result.shape[-2]
        else:
            m = sum(u.shape[-1] ** 2 for u in call.args[1])
            out += [(oracles.Decision(rank, c), rows < m and not values_only) for rank, c, _ in call.result]
            rows = values_only = 0
    return out


POPULATIONS = {
    "ladder": ladder,
    "acceptance-07": acceptance_07_population,
    "tree-roots": tree_roots,
    "testers": qubit_testers,
    "fallback": fallback_population,
}


@pytest.mark.parametrize("name", POPULATIONS)
def test_matches_full_stack(name, rank_calls):
    """Verdict, rank, support ranks and family size on every input; the
    decision and its null vector wherever the rank stage ran."""
    population = POPULATIONS[name]()
    wants = [full_stack_decision(g) for g in population]
    paths = collections.Counter()
    for g, (want, ranks, n_known) in zip(population, wants):
        rank_calls.clear()
        cert = gqi.is_extremal(g)
        recorded = rank_stage(rank_calls)
        assert cert.extremal == (want.nullvector is None)
        assert cert.rank == want.rank
        assert cert.support_ranks == ranks
        assert cert.family_size == sum(r * r for r in ranks) + n_known
        dim = g.signature.total_dim
        counting = sum(r * r for r in ranks) > dim * dim - n_known
        if not recorded:
            assert has_full_support(ranks, dim) and counting
            paths["full-support"] += 1
            continue
        assert len(recorded) == 1 and not has_full_support(ranks, dim)
        ((got, stopped),) = recorded
        assert got.rank == want.rank
        if want.nullvector is None:
            assert got.nullvector is None
        else:
            assert np.array_equal(got.nullvector, want.nullvector)
        assert not (stopped and not counting)
        paths["head" if stopped else "fallback" if counting else "full"] += 1
    if name in ("ladder", "acceptance-07", "tree-roots"):
        assert paths["head"] > 0
    if name in ("ladder", "acceptance-07", "testers"):
        assert paths["full-support"] > 0
    if name == "fallback":
        assert paths["fallback"] == len(population)


def svd_shapes(calls):
    """(matrix shape, compute_uv) of every ``np.linalg.svd`` call in ``calls``."""
    return [(c.args[0].shape[-2:], c.kwargs.get("compute_uv", True)) for c in calls if c.name == "svd"]


def test_exit_skips_the_rest_of_the_rows(rank_calls):
    """A split comb at (2,2,2,2): one SVD per verdict, and only the head of
    the rows is built."""
    g = split_comb(CombSignature((2, 2, 2, 2)), np.random.default_rng(3))
    cert = gqi.is_extremal(g)
    span = 256 - combs.comb_variable_count(g.signature)
    assert cert.support_ranks == (15, 15) and not cert.extremal
    assert [shape[0] for shape, _ in svd_shapes(rank_calls)] == [span + 1]
    assert [c.result.shape[-2] for c in rank_calls if c.name == "complement_coordinates"] == [span + 1]


def test_svd_calls_per_path(record):
    """With m = sum r_i^2 rows of n coordinates and span = D^2 - |V|: a
    family within the span, extremal or dependent, runs one SVD with U of
    all rows; the head exit runs one SVD with U of the span + 1 rows of the
    head; the fallback runs that one and then a values-only SVD of all
    rows."""
    rng = np.random.default_rng(4)
    rank_one, midpoint, _ = ladder_inputs((2, 2, 2, 2), rng)
    cases = [
        ("extremal", rank_one),
        ("dependent", midpoint),
        ("head exit", split_comb(CombSignature((2, 2, 2, 2)), rng)),
        ("fallback", measure_and_prepare(rng, 3, 2)),
    ]
    svd_calls = record(np.linalg, "svd")
    for name, g in cases:
        sig = g.signature
        span = sig.total_dim ** 2 - combs.comb_variable_count(sig)
        n = combs.complement_coordinates(np.eye(sig.total_dim)[:, :1], sig).shape[1]
        verdict = gqi.is_valid_gqi(g)
        svd_calls.clear()
        cert = gqi._decide_stack([g], [verdict], DEFAULT_TOL)[0]
        m = cert.family_size - cert.normalization_basis_size
        rows, head = ((m, n), False), ((span + 1, n), True)
        want = {
            "extremal": [((m, n), True)],
            "dependent": [((m, n), True)],
            "head exit": [head],
            "fallback": [head, rows],
        }
        assert cert.extremal == (name == "extremal"), name
        assert (m > span) == (name in ("head exit", "fallback")), name
        assert svd_shapes(svd_calls) == want[name], name


def rank_one_qubit_povm(w):
    """The POVM of the rank-one effects w_k w_k^dagger, w_k the columns of a
    2 x 3 co-isometry ``w``."""
    return gqi.Povm(2, tuple(np.outer(w[:, k], w[:, k].conj()) for k in range(w.shape[1])))


def test_one_svd_per_stack(rank_calls):
    """Three-outcome rank-one qubit POVMs share one stack.  Generic ones are
    extremal; those with two effects on one ray, a P and (1 - a) P, are
    dependent.  Their m = 3 rows lie within the span, and the stack runs
    one SVD, with U, of all rows.  Each null vector c satisfies
    |X^T c| <= tau on its member's own rows X, and each margin is the
    smallest singular value of X."""
    rng = np.random.default_rng(12)
    population = []
    for _ in range(3):
        population.append(rank_one_qubit_povm(channels.random_unitary(3, rng)[:2]))
        a = rng.uniform(0.2, 0.8)
        ray = np.array([[np.sqrt(a), np.sqrt(1 - a), 0.0], [0.0, 0.0, 1.0]])
        population.append(rank_one_qubit_povm(channels.random_unitary(2, rng) @ ray))
    certs = gqi.decide_all(population)
    decided = [d for c in rank_calls if c.name == "_rank_test" for d in c.result]
    sig = population[0].signature
    n = combs.complement_coordinates(np.eye(2)[:, :1], sig).shape[1]
    assert svd_shapes(rank_calls) == [((3, n), True)]
    assert [cert.extremal for cert in certs] == [True, False] * 3
    for g, cert, (_, c, _) in zip(population, certs, decided, strict=True):
        assert cert.support_ranks == (1, 1, 1) and cert.normalization_basis_size == 0
        spectra = gqi.is_valid_gqi(g).spectra
        x = np.vstack([combs.complement_coordinates(v[:, :1], sig) for v in spectra.vectors])
        s = np.linalg.svd(x, compute_uv=False)
        if cert.extremal:
            assert c is None and cert.rank == 3
            assert cert.margin == pytest.approx(s[-1], rel=1e-12)
        else:
            assert cert.margin is None and cert.rank == 2
            assert np.linalg.norm(x.T @ c) <= DEFAULT_TOL.rank_tol(3, 4, s[0])


def test_family_with_no_rows_runs_no_svd(record):
    """At a tolerance whose support cutoff lies above every eigenvalue
    (D eps_rel >= 1), every support rank would be 0 and the verdict
    vacuous: validation refuses it, before any SVD."""
    calls = record(np.linalg, "svd")
    loose = TolerancePolicy(eps_rel=0.6)
    for g in (gqi.Povm(2, (np.eye(2) / 2, np.eye(2) / 2)), channels.combination_fixture(1)):
        with pytest.raises(ToleranceError, match="leaves every support empty"):
            gqi.is_extremal(g, pol=loose)
    assert calls == []


@pytest.mark.parametrize("dims", [(1, 3), (1, 4), (1, 1, 1, 3)])
def test_witness_stays_in_v_where_n_is_span(dims):
    """Two outcomes splitting a rank-deficient state.  Every even space is
    trivial, so the rows have n = span = 1 coordinate and the head has two
    rows: its null vector is a column of the full U only.  Delta lies in V,
    and both children are valid."""
    sig = CombSignature(dims)
    d = sig.total_dim
    rng = np.random.default_rng(d)
    for r in range(1, d):
        v = channels.random_unitary(d, rng)[:, :r]
        w = rng.uniform(0.2, 1.0, r)
        w /= w.sum()
        rho, root = (v * w) @ v.conj().T, (v * np.sqrt(w)) @ v.conj().T
        x = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        e = v @ (x @ x.conj().T) @ v.conj().T
        e /= 1.5 * np.linalg.eigvalsh(e)[-1]
        g = Gqi(sig, (root @ e @ root, rho - root @ e @ root))
        cert = gqi.is_extremal(g)
        assert cert.support_ranks == (r, r) and not cert.extremal
        assert np.abs(combs.forbidden_part(cert.perturbation.delta, sig)).max() <= 1e-12
        for child in gqi.decompose_step(g, certificate=cert):
            assert gqi.is_valid_gqi(child).ok


class TestFullSupportExit:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_bench_ladder_matches_full_stack(self, seed, rank_calls):
        """Every object of the benchmark's ladder at seeds 1-10: verdict,
        rank, support ranks and family size as on the full stack, and the
        exit taken exactly where it applies."""
        exits = 0
        for g in bench_ladder(seed):
            want, ranks, n_known = full_stack_decision(g)
            rank_calls.clear()
            cert = gqi.is_extremal(g)
            assert (cert.extremal, cert.rank, cert.support_ranks) == (want.nullvector is None, want.rank, ranks)
            assert cert.family_size == sum(r * r for r in ranks) + n_known
            exit = has_full_support(ranks, g.signature.total_dim)
            assert len(rank_stage(rank_calls)) == (not exit)
            exits += exit
        assert exits > 0

    def full_support_inputs(self):
        out = [ladder_inputs(dims, np.random.default_rng(5))[2] for dims in ((2, 2), (2, 2, 2, 2), (2, 3, 3, 2))]
        for name in ("gqi", "povm"):
            obj = golden(name)
            out.append(Gqi(obj.signature, obj.outcomes))
        t = uniform_tester()
        out.append(Gqi(t.signature, t.outcomes))
        return out

    def test_builds_no_row_and_runs_no_svd(self, rank_calls, record):
        record(gqi, "rank_stage_bytes", log=rank_calls)
        for g in self.full_support_inputs():
            cert = gqi.is_extremal(g)
            assert not cert.extremal and cert.rank == g.signature.total_dim ** 2
            assert cert.margin is None
            # The plan of an exit shape holds no size estimate.
            assert gqi._plan(g.signature, cert.support_ranks, DEFAULT_TOL).stage_bytes is None
        assert rank_calls == []

    def test_witness_exchanges_weight(self):
        """D_b = P_b and D_a = -P_b for the first full-support outcome a and
        b the next full-support outcome, or else the first other nonzero
        one; P_b = I exactly when r_b = D, U_b U_b^dagger otherwise.
        Delta = 0, and a positive, feasible step."""
        inputs = self.full_support_inputs()
        # A full-support outcome beside a rank-deficient one, and a
        # rank-deficient outcome listed before the second full-support one.
        t = uniform_tester()
        x = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        inputs.append(Gqi(t.signature, (2 * t.outcomes[0] - x / 2, x / 2)))
        inputs.append(Gqi(t.signature, (t.outcomes[0] - x / 4, x / 4, t.outcomes[1])))
        kinds = set()
        for g in inputs:
            cert = gqi.is_extremal(g)
            pert = cert.perturbation
            dim = g.signature.total_dim
            a = cert.support_ranks.index(dim)
            full = [i for i, r in enumerate(cert.support_ranks) if i != a and r == dim]
            b = full[0] if full else next(i for i, r in enumerate(cert.support_ranks) if i != a and r > 0)
            if cert.support_ranks[b] == dim:
                p = np.eye(dim, dtype=complex)
            else:
                u = gqi.is_valid_gqi(g).spectra.vectors[b][:, : cert.support_ranks[b]]
                p = u @ u.conj().T
            kinds.add(cert.support_ranks[b] == dim)
            assert np.array_equal(pert.directions[b], p)
            assert np.array_equal(pert.directions[a], -pert.directions[b])
            assert all(not d.any() for i, d in enumerate(pert.directions) if i not in (a, b))
            assert not pert.delta.any()
            assert pert.epsilon_star > 0.0
            assert gqi.perturbation_feasible(g.outcomes, pert.directions, pert.epsilon_star)
        assert kinds == {True, False}

    def test_children_valid_as_their_kind_after_json(self, tmp_path):
        """Both children of a full-support step are valid objects of the
        root's kind after a JSON round trip; a tester's rho moves only by
        the rounding of the sum, since Delta = 0."""
        rng = np.random.default_rng(17)
        roots = [golden(name) for name in ("gqi", "povm")]
        choi = channels.random_channel(2, 3, 6, rng).choi
        roots.append(channels.Instrument(d1=3, d0=2, operators=(0.3 * choi, 0.7 * choi)))
        roots.append(uniform_tester())
        for seed in range(20):
            t = suites.random_nonextremal_qubit_tester(np.random.default_rng(3000 + seed))
            if 4 in gqi.is_extremal(Gqi(t.signature, t.outcomes)).support_ranks:
                roots.append(t)
        assert sum(isinstance(x, testers.Tester) for x in roots) > 1
        for obj in roots:
            cls = fileio.kind_of(obj)
            root = Gqi(obj.signature, obj.outcomes)
            cert = gqi.is_extremal(root)
            assert has_full_support(cert.support_ranks, root.signature.total_dim)
            for child in gqi.decompose_step(root, certificate=cert):
                path = tmp_path / "child.json"
                fileio.save_object(path, cls.from_view(child.signature, child.outcomes))
                back = fileio.load_object(path)
                assert gqi.is_valid_gqi(back).ok, cls.kind
                if cls.kind == "tester":
                    got, want = (gqi.is_valid_gqi(x).comb_verdict.reduced[0] for x in (back, obj))
                    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps

    def test_exit_needs_two_nonzero_outcomes_and_a_small_cutoff(self, rank_calls):
        """One outcome, a zero second outcome, and a tolerance whose cutoff
        at sqrt(M) reaches 1 (while D eps < 1) all go to the rank stage."""
        comb = ladder_inputs((2, 2), np.random.default_rng(9))[2].normalization
        sig = CombSignature((2, 2))
        n_known = combs.comb_variable_count(sig)
        loose = TolerancePolicy(eps_rel=0.02)
        assert 4 * loose.eps_rel < 1.0 <= loose.rank_tol(32 + n_known, 16, np.sqrt(2))
        cases = [
            (Gqi(sig, (comb,)), DEFAULT_TOL),
            (Gqi(sig, (comb, np.zeros((4, 4)))), DEFAULT_TOL),
            (Gqi(sig, (comb / 2, comb / 2)), loose),
        ]
        for g, pol in cases:
            rank_calls.clear()
            cert = gqi.is_extremal(g, pol=pol)
            assert len(rank_stage(rank_calls)) == 1
            want, ranks, n_known = full_stack_decision(g, pol)
            assert (cert.extremal, cert.rank, cert.support_ranks) == (want.nullvector is None, want.rank, ranks)
            assert max(ranks) == 4
        rank_calls.clear()
        assert not gqi.is_extremal(Gqi(sig, (comb / 2, comb / 2))).extremal
        assert rank_stage(rank_calls) == []

    def test_cli_decides_full_rank_4444(self, tmp_path):
        """A full-rank two-outcome GQI at (4,4,4,4), whose rank stage would
        need about 29 GiB, is decided: exit 0, not 2."""
        sig = CombSignature((4, 4, 4, 4))
        assert gqi.rank_stage_bytes(sig, (256, 256)) > combs.RANK_STAGE_BUDGET
        rng = np.random.default_rng(4)
        ops = tuple(0.5 * combs.random_deterministic_comb(sig, seed=rng, spread=0.5).operator for _ in range(2))
        path = tmp_path / "full.json"
        fileio.save_object(path, Gqi(sig, ops))
        code, out, _ = run_cli(["extremal", path])
        assert code == 0
        got = json.loads(out)
        assert (got["verdict"], got["rank"], got["support_ranks"]) == ("not_extremal", 65536, [256, 256])
        assert got["epsilon_star"] > 0.0


class TestSizeGuard:
    def test_cli_refuses_above_budget(self, monkeypatch, capsys, tmp_path):
        sig = CombSignature((2, 2))
        path = tmp_path / "split.json"
        fileio.save_object(path, split_comb(sig, np.random.default_rng(1)))
        monkeypatch.setattr(combs, "RANK_STAGE_BUDGET", 1000)
        assert cli.main(["extremal", str(path)]) == 2
        err = capsys.readouterr().err
        need = gqi.rank_stage_bytes(sig, (3, 3))
        assert f"needs about {need:,} bytes, above the budget of 1,000 bytes" in err

    def test_raises_before_any_row_is_built(self, monkeypatch, record):
        monkeypatch.setattr(combs, "RANK_STAGE_BUDGET", 1000)
        rows = record(combs, "complement_coordinates")
        with pytest.raises(SizeLimitError):
            gqi.is_extremal(split_comb(CombSignature((2, 2)), np.random.default_rng(1)))
        assert rows == []

    @pytest.mark.parametrize(
        "dims, full, mixed",
        [
            ((2, 2), 9336, 5384),
            ((2, 3), 19256, 5384),
            ((3, 1), 15104, 14144),
            ((1, 2, 2, 1), 41088, 26576),
            ((2, 3, 3, 2), 52316600, 378704),
            ((2,) * 6, 524647288, 1209744),
            ((4,) * 4, 30967127864, 4670416),
        ],
    )
    def test_estimate_values(self, dims, full, mixed):
        """The estimate for two full-rank outcomes and for support ranks (1, 2, 3)."""
        sig = CombSignature(dims)
        assert gqi.rank_stage_bytes(sig, (sig.total_dim,) * 2) == full
        assert gqi.rank_stage_bytes(sig, (1, 2, 3)) == mixed

    def test_default_budget_admits_the_ladder_and_fixtures(self):
        """The estimate for a full-rank two-outcome GQI fits at (2,2,2,2,2,2)
        and not at (4,4,4,4), though both are decided by the full-support exit
        without it, and every CLI fixture runs."""
        budget = combs.RANK_STAGE_BUDGET
        assert gqi.rank_stage_bytes(CombSignature((2,) * 6), (64, 64)) < budget
        assert gqi.rank_stage_bytes(CombSignature((4,) * 4), (256, 256)) > budget
        for name in GOLDEN_NAMES:
            assert run_cli(["extremal", fixture_path(name)])[0] == 0
