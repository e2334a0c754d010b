"""Randomized property suites and fixture generators.

These back the ``exqip suite`` CLI command and the acceptance tests: the
channel-criteria equivalence check, verdict invariance under the
normalization-changing xi transform, the counting bounds as necessary
conditions, and the appendix fixture table regression.

The seeded suites draw a pass of at most ``PASS_SEEDS`` seeds first, each
seed with its own generator in a fixed draw order, and then decide the whole
pass with :func:`gqi.validate_all` and :func:`gqi.decide_all`.  No draw
depends on a verdict, so a suite's population is that of deciding one
object at a time.  The appendix suite classifies its seven fixtures with one
:func:`channels.classify_combinations`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, gqi as gqi_mod, linalg, testers
from .channels import APPENDIX_TABLE
from .errors import ToleranceError
from .linalg import DEFAULT_TOL, TolerancePolicy


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    failures: int = 0
    details: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, detail: str = "") -> None:
        self.total += 1
        if not ok:
            self.failures += 1
            if detail:
                self.details.append(detail)

    def summary(self) -> dict:
        return {
            "suite": self.name,
            "total": self.total,
            "failures": self.failures,
            "ok": self.ok,
            "details": self.details[:20],
        }


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# The weights of random_full_rank_state are uniform on [STATE_FLOOR, 1 + STATE_FLOOR)
# before normalization.
STATE_FLOOR = 0.05


def random_full_rank_state(d: int, rng) -> np.ndarray:
    """Random density operator whose eigenvalues all lie above
    :func:`smallest_state_eigenvalue`."""
    u = channels.random_unitary(d, rng)
    w = rng.random(d) + STATE_FLOOR
    w /= w.sum()
    return (u * w) @ u.conj().T


def smallest_state_eigenvalue(d: int) -> float:
    """The infimum of the eigenvalues :func:`random_full_rank_state` draws:
    one weight at ``STATE_FLOOR`` beside d - 1 weights just under
    1 + STATE_FLOOR."""
    return STATE_FLOOR / (STATE_FLOOR + (d - 1) * (1.0 + STATE_FLOOR))


def random_extremal_qubit_tester(rng) -> testers.Tester:
    """Entangled two-outcome tester, sometimes split to 3 or 4 outcomes."""
    angle = rng.uniform(0.15, math.pi / 4)
    t = testers.schmidt_tester(
        angle, channels.random_unitary(2, rng), channels.random_unitary(2, rng)
    )
    style = rng.integers(0, 3)
    if style == 1:
        effects = testers.projective_split_effects(t.outcomes[1])
        t = testers.split_outcome(t, 1, effects)
    elif style == 2:
        effects = testers.projective_split_effects(t.outcomes[1])
        merged = [effects[0] + effects[1], effects[2]]
        t = testers.split_outcome(t, 1, merged)
    return t


def random_nonextremal_qubit_tester(rng) -> testers.Tester:
    """Product-vector testers and mixtures of distinct extremal testers."""
    if rng.integers(0, 2) == 0:
        return testers.schmidt_tester(
            0.0, channels.random_unitary(2, rng), channels.random_unitary(2, rng)
        )
    a = testers.schmidt_tester(
        rng.uniform(0.2, math.pi / 4),
        channels.random_unitary(2, rng),
        channels.random_unitary(2, rng),
    )
    b = testers.schmidt_tester(
        rng.uniform(0.2, math.pi / 4),
        channels.random_unitary(2, rng),
        channels.random_unitary(2, rng),
    )
    return gqi_mod.mix(a, b)


def random_rank22_qubit_tester(rng, nonextremal: bool = False) -> testers.Tester:
    """Two-outcome tester with both parts rank two ((2,2) profile)."""
    if not nonextremal:
        u = channels.random_unitary(4, rng)
        p1 = u[:, :2] @ u[:, :2].conj().T
    else:
        if rng.integers(0, 2) == 0:
            v = channels.random_unitary(2, rng)[:, 0]
            p1 = linalg.kron(np.eye(2, dtype=complex), np.outer(v, v.conj()))
        else:
            f = channels.random_unitary(2, rng)
            h = channels.random_unitary(2, rng)
            e = channels.random_unitary(2, rng)
            p1 = linalg.kron(
                np.outer(f[:, 0], f[:, 0].conj()), np.outer(e[:, 0], e[:, 0].conj())
            ) + linalg.kron(
                np.outer(h[:, 0], h[:, 0].conj()), np.outer(e[:, 1], e[:, 1].conj())
            )
    p2 = np.eye(4, dtype=complex) - p1
    return testers.Tester(d2=2, d1=2, outcomes=(p1 / 2.0, p2 / 2.0))


def random_two_outcome_qubit_tester(rng) -> testers.Tester:
    """Mixed population spanning the (1,3) and (2,2) profiles, including
    near-product Schmidt angles down to 1e-6 and exact product vectors."""
    style = rng.integers(0, 6)
    u2 = channels.random_unitary(2, rng)
    u1 = channels.random_unitary(2, rng)
    if style == 0:
        return testers.schmidt_tester(rng.uniform(0.1, math.pi / 4), u2, u1)
    if style == 1:
        return testers.schmidt_tester(0.0, u2, u1)
    if style == 2:
        return testers.schmidt_tester(rng.uniform(1e-6, 1e-5), u2, u1)
    if style == 3:
        return random_rank22_qubit_tester(rng, nonextremal=False)
    if style == 4:
        return random_rank22_qubit_tester(rng, nonextremal=True)
    return testers.schmidt_tester(1e-6, u2, u1)


def random_nonextremal_gqi(rng) -> channels.Instrument:
    """Midpoint of two distinct random instruments (never extremal)."""
    counts = [(1, 1), (1, 2), (2, 1), (1, 1, 1)][rng.integers(0, 4)]
    a = channels.random_instrument(2, 2, counts, rng)
    b = channels.random_instrument(2, 2, counts, rng)
    return gqi_mod.mix(a, b, 0.5)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

EQUIVALENCE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))

# Seeds drawn and decided per pass: a pass holds its whole population in
# memory, so a suite's memory stays bounded however many seeds it runs.
PASS_SEEDS = 100


def _passes(seeds: int):
    for start in range(0, seeds, PASS_SEEDS):
        yield range(start, min(seeds, start + PASS_SEEDS))


def run_equivalence(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Choi's criterion and the master-criterion form must agree on random
    channels across small dimension pairs."""
    result = SuiteResult(name="equivalence")
    for chunk in _passes(seeds):
        drawn = []
        for seed in chunk:
            rng = np.random.default_rng(1000 + seed)
            for d0, d1 in EQUIVALENCE_DIMS:
                count = int(rng.integers(-(-d0 // d1), d0 * d1 + 1))
                drawn.append((seed, d0, d1, count, channels.random_channel(d0, d1, count, rng)))
        chans = [chan for *_, chan in drawn]
        verdicts = gqi_mod.validate_all(chans, pol)
        certs = gqi_mod.decide_all(chans, pol, verdicts)
        for (seed, d0, d1, count, chan), verdict, cert in zip(drawn, verdicts, certs):
            a = channels.choi_condition(chan, pol, verdict)
            b = cert.extremal
            result.record(
                a == b,
                f"seed {seed} dims ({d0},{d1}) kraus {count}: choi={a} rank-form={b}",
            )
    return result


def run_xi_invariance(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Extremality verdicts are invariant under xi_{rho,U}; the transform
    round-trips to 1e-10.  A support cutoff that reaches the states drawn,
    which xi_transform needs of full rank, raises :class:`ToleranceError`."""
    floor = smallest_state_eigenvalue(2)
    if pol.supp_tol(2, 1.0) >= floor:
        raise ToleranceError(f"tolerance {pol.eps_rel:g} puts the support cutoff at or above {floor:.4g}, "
                             "the smallest eigenvalue of the states xi-invariance draws")
    result = SuiteResult(name="xi-invariance")
    for chunk in _passes(seeds):
        drawn = []
        for seed in chunk:
            rng = np.random.default_rng(2000 + seed)
            if seed % 2 == 0:
                t = random_extremal_qubit_tester(rng)
            else:
                t = random_nonextremal_qubit_tester(rng)
            rho = random_full_rank_state(2, rng)
            u = channels.random_unitary(2, rng)
            moved = testers.xi_transform(t, rho, u, pol)
            back = testers.xi_inverse(moved, rho, u, pol)
            residual = max(
                linalg.max_abs(x - y) for x, y in zip(back.outcomes, t.outcomes)
            )
            drawn.append((seed, t, moved, residual))
        certs = gqi_mod.decide_all([x for _, t, moved, _ in drawn for x in (t, moved)], pol)
        for (seed, _, _, residual), first, second in zip(drawn, certs[::2], certs[1::2]):
            before, after = first.extremal, second.extremal
            result.record(
                before == after and residual <= 1e-10,
                f"seed {seed}: before={before} after={after} roundtrip={residual:.2e}",
            )
    return result


def run_bounds(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Counting bounds hold for every object the criteria report extremal."""
    result = SuiteResult(name="bounds")
    for chunk in _passes(seeds):
        drawn = []
        for seed in chunk:
            rng = np.random.default_rng(3000 + seed)
            pool = [
                random_extremal_qubit_tester(rng),
                random_nonextremal_qubit_tester(rng),
                random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
            ]
            counts = [(1,), (1, 1), (1, 2), (1, 1, 1), (2, 2)][int(rng.integers(0, 5))]
            drawn.append((seed, pool, channels.random_instrument(2, 2, counts, rng)))
        pools = [t for _, pool, _ in drawn for t in pool]
        verdicts = gqi_mod.validate_all(pools + [ins for *_, ins in drawn], pol)
        tested = iter(zip(pools, verdicts, gqi_mod.decide_all(pools, pol, verdicts[: len(pools)])))
        for (seed, pool, ins), verdict in zip(drawn, verdicts[len(pools) :]):
            for t, checks, cert in itertools.islice(tested, len(pool)):
                if cert.extremal:
                    bounds = testers.check_bounds(t, pol, checks)
                    result.record(bounds.ok, f"seed {seed}: tester bound violated {bounds}")
            if channels.instrument_extremal(ins, pol, verdict):
                bound = channels.instrument_rank_bound(ins, pol, verdict)
                result.record(bound.ok, f"seed {seed}: instrument bound violated {bound}")
    return result


def run_appendix_c(seeds: int = 0, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Each fixture must reproduce its row of the extremality table.  The
    population is fixed: ``seeds`` is ignored."""
    result = SuiteResult(name="appendix-c")
    rows = sorted(APPENDIX_TABLE.items())
    triples = channels.classify_combinations([channels.combination_fixture(k) for k, _ in rows], pol)
    for (k, expected), triple in zip(rows, triples):
        got = triple.as_signs()
        result.record(got == expected, f"row {k}: expected {expected}, got {got}")
    return result


SUITES = {
    "equivalence": run_equivalence,
    "xi-invariance": run_xi_invariance,
    "bounds": run_bounds,
    "appendix-c": run_appendix_c,
}


def run_suite(name: str, seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seeds=seeds, pol=pol)
