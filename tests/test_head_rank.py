"""Head-first rank decisions against the full-stack decision they shortcut.

``gqi.is_extremal`` builds the projected rows outcome by outcome and, when
they outnumber their span D^2 - |V| (the counting rule), decides on the first
span + 1 rows alone whenever those already carry span singular values above
the cutoff taken at sigma_max <= sqrt(M).  The oracle is
``linalg.rank_decision`` on the whole stack, which always runs the
values-only SVD of every row.  Verdict, rank, family size, support ranks and
the null vector must agree, the null vector to the bit.

Also here: the size guard of the rank stage.
"""

import contextlib
import io
import os

import numpy as np
import pytest

from exqip import channels, cli, combs, gqi, linalg, suites, testers
from exqip.combs import CombSignature
from exqip.errors import SizeLimitError
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

from test_epsilon_star import acceptance_07_population, ladder_population
from test_reduced_rank import ladder_inputs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli")


def full_stack_decision(g, pol=DEFAULT_TOL):
    """(decision, support ranks, |V|) from every projected row at once."""
    spectra = gqi.is_valid_gqi(g, pol=pol).spectra
    supports = [v[:, :r] for v, r in zip(spectra.vectors, spectra.support_ranks(pol))]
    x = np.vstack([combs.complement_coordinates(u, g.signature) for u in supports])
    n_known = combs.comb_variable_count(g.signature)
    decision = linalg.rank_decision(x, pol, known=n_known, ambient=g.signature.total_dim ** 2)
    return decision, tuple(u.shape[1] for u in supports), n_known


def measure_and_prepare(rng, d0, d1):
    """N_i = rho_i (x) |u_i><u_i|^T over an orthonormal basis u_i of the
    input, with full-rank output states rho_i.

    The projected rows of each outcome have rank 1, so the head is deficient
    and the rank comes from the full stack."""
    u = channels.random_unitary(d0, rng)
    return Gqi(
        CombSignature((d0, d1)),
        tuple(
            np.kron(suites.random_full_rank_state(d1, rng), np.outer(u[:, i], u[:, i].conj()).T)
            for i in range(d0)
        ),
    )


def ladder():
    """d4, d16 and d36 midpoints and two-outcome GQIs, and rank-one combs."""
    out = list(ladder_population())
    for dims in ((2, 2), (2, 2, 2, 2)):
        out += ladder_inputs(dims, np.random.default_rng(sum(dims)))
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


def qubit_testers():
    out = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        for t in (
            suites.random_extremal_qubit_tester(rng),
            suites.random_nonextremal_qubit_tester(rng),
            suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
            testers.Tester(2, 2, (np.eye(4) / 4, np.eye(4) / 4)),
        ):
            out.append(Gqi(t.signature, t.outcomes))
    return out


def fallback_population():
    rng = np.random.default_rng(11)
    return [measure_and_prepare(rng, d0, d1) for d0, d1 in ((2, 2), (2, 3), (3, 2))]


@pytest.fixture
def recorded(monkeypatch):
    """Decisions of ``gqi.is_extremal``, each with whether it stopped at the
    head (no values-only SVD of the full stack)."""
    out = []
    full_svds = [0]
    block_rank_decision, svd = linalg.block_rank_decision, np.linalg.svd

    def counted_svd(a, *args, compute_uv=True, **kwargs):
        full_svds[0] += not compute_uv
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def recording(*args, **kwargs):
        before = full_svds[0]
        decision = block_rank_decision(*args, **kwargs)
        out.append((decision, full_svds[0] == before))
        return decision

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(linalg, "block_rank_decision", recording)
    return out


POPULATIONS = {
    "ladder": ladder,
    "acceptance-07": acceptance_07_population,
    "tree-roots": tree_roots,
    "testers": qubit_testers,
    "fallback": fallback_population,
}


@pytest.mark.parametrize("name", POPULATIONS)
def test_matches_full_stack(name, recorded):
    population = POPULATIONS[name]()
    oracles = [full_stack_decision(g) for g in population]
    recorded.clear()
    exits = fallbacks = 0
    for g, (want, ranks, n_known) in zip(population, oracles):
        cert = gqi.is_extremal(g)
        got, stopped = recorded[-1]
        assert cert.extremal == (want.nullvector is None)
        assert cert.rank == got.rank == want.rank
        assert cert.support_ranks == ranks
        assert cert.family_size == sum(r * r for r in ranks) + n_known
        if want.nullvector is None:
            assert got.nullvector is None
        else:
            assert np.array_equal(got.nullvector, want.nullvector)
        counting = sum(r * r for r in ranks) > g.signature.total_dim ** 2 - n_known
        assert not (stopped and not counting)
        exits += stopped
        fallbacks += counting and not stopped
    if name in ("ladder", "acceptance-07", "tree-roots"):
        assert exits > 0
    if name == "fallback":
        assert fallbacks == len(population)


def test_exit_skips_the_rest_of_the_rows(monkeypatch):
    """A full-rank two-outcome GQI: one SVD per verdict, and only the head of
    the first outcome's rows is built."""
    g = ladder_inputs((2, 2, 2, 2), np.random.default_rng(3))[2]
    svds, rows = [], []
    svd, coordinates = np.linalg.svd, combs.complement_coordinates

    def counted_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    def counted_coordinates(u, sig, *args):
        x = coordinates(u, sig, *args)
        rows.append(x.shape[0])
        return x

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(combs, "complement_coordinates", counted_coordinates)
    cert = gqi.is_extremal(g)
    span = 256 - combs.comb_variable_count(g.signature)
    assert cert.support_ranks == (16, 16) and not cert.extremal
    assert [shape[0] for shape in svds] == [span + 1]
    assert rows == [span + 1]


class TestSizeGuard:
    def test_cli_refuses_above_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 1000)
        assert cli.main(["extremal", os.path.join(GOLDEN, "gqi.json")]) == 2
        err = capsys.readouterr().err
        need = gqi.rank_stage_bytes(CombSignature((2, 2)), (4, 4))
        assert f"needs about {need:,} bytes, above the budget of 1,000 bytes" in err

    def test_raises_before_any_row_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rows built")

        monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 1000)
        monkeypatch.setattr(combs, "complement_coordinates", refuse)
        with pytest.raises(SizeLimitError):
            gqi.is_extremal(ladder_inputs((2, 2), np.random.default_rng(1))[2])

    def test_default_budget_admits_the_ladder_and_fixtures(self):
        """The full-rank two-outcome GQI at (2,2,2,2,2,2) fits (not run here),
        (4,4,4,4) does not, and every CLI fixture runs."""
        budget = gqi.RANK_STAGE_BUDGET
        assert gqi.rank_stage_bytes(CombSignature((2,) * 6), (64, 64)) < budget
        assert gqi.rank_stage_bytes(CombSignature((4,) * 4), (256, 256)) > budget
        for name in sorted(os.listdir(GOLDEN)):
            if name != "expected.json":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["extremal", os.path.join(GOLDEN, name)]) == 0
