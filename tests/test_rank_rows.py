"""The rows of the rank stage, each built once, and the memory they take.

``gqi._rank_test`` builds the projected rows of the head, the first
span + 1 rows, and, when the head cannot decide the rank, the fallback
builds the rows past it; the outcome whose rows straddle the head forms its
partial traces again there.  Every row is built exactly once.

Also here: the size guard's estimate, ``gqi.rank_stage_bytes``, against the
``tracemalloc`` peak of the stage it guards.
"""

import tracemalloc

import numpy as np
import pytest

from exqip import channels, combs, gqi, linalg, suites
from exqip.combs import CombSignature
from exqip.gqi import Gqi
from exqip.linalg import DEFAULT_TOL

from test_head_rank import fallback_population, split_comb


def mp_comb(rng):
    """T_i = (I_16 / 4) (x) rho_i (x) |u_i><u_i|^T at (2,2,2,2,2,2), i = 0, 1,
    over a qubit basis u and full-rank qubit states rho_i.

    A measure-and-prepare channel under I / 4 on the four upper spaces: its
    support ranks (32, 32) give m = 2048 rows against a span of 820, and the
    head cannot decide the rank, so the stage falls back on a large input."""
    u = channels.random_unitary(2, rng)
    eye = np.eye(16) / 4
    return Gqi(
        CombSignature((2,) * 6),
        tuple(
            np.kron(eye, np.kron(suites.random_full_rank_state(2, rng), np.outer(u[:, i], u[:, i].conj()).T))
            for i in range(2)
        ),
    )


def test_fallback_builds_every_row_once(monkeypatch):
    """On the fallback the rows of all complement_coordinates calls of one
    verdict sum to m, and support_operators runs once per level for each
    outcome and once more for the outcome whose rows straddle the head,
    which every one of these inputs has."""
    rows, calls = [], []
    coordinates, support_operators = combs.complement_coordinates, linalg.support_operators

    def counted_coordinates(*args):
        x = coordinates(*args)
        rows.append(x.shape[-2])
        return x

    def counted_operators(*args):
        calls.append(args[0].shape)
        return support_operators(*args)

    monkeypatch.setattr(combs, "complement_coordinates", counted_coordinates)
    monkeypatch.setattr(linalg, "support_operators", counted_operators)
    for g in fallback_population() + [mp_comb(np.random.default_rng(1))]:
        rows.clear()
        calls.clear()
        cert = gqi.is_extremal(g)
        dim = g.signature.total_dim
        m = cert.family_size - cert.normalization_basis_size
        assert m > dim * dim - cert.normalization_basis_size + 1 and cert.rank < dim * dim
        assert sum(rows) == m
        levels = sum(even > 1 for _, _, even, _ in g.signature.levels)
        assert len(calls) == levels * (len(g.outcomes) + 1)


GUARDED = {
    "split-(2,2,2,2,2,2)": lambda rng: split_comb(CombSignature((2, 2, 2, 2, 2, 2)), rng),
    "split-(3,3,3,3)": lambda rng: split_comb(CombSignature((3, 3, 3, 3)), rng),
    "mp-comb": mp_comb,
}


@pytest.mark.parametrize("name", GUARDED)
def test_size_guard_bounds_the_peak(name):
    """The tracemalloc peak of one decision of a rank-stage input stays
    below rank_stage_bytes.  The estimates are above 1 MB: below it fixed
    overheads dominate the peak."""
    g = GUARDED[name](np.random.default_rng(1))
    verdict = gqi.is_valid_gqi(g)
    ranks = verdict.support_ranks
    estimate = gqi.rank_stage_bytes(g.signature, ranks)
    assert estimate > 1 << 20
    tracemalloc.start()
    try:
        cert = gqi._decide_stack([g], [verdict], DEFAULT_TOL)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not cert.extremal and cert.support_ranks == ranks
    assert peak <= estimate
