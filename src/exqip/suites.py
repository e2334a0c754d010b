"""Randomized property suites and fixture generators.

These back the ``exqip suite`` CLI command and the acceptance tests: the
channel-criteria equivalence check, verdict invariance under the
normalization-changing xi transform, the counting bounds as necessary
conditions, and the appendix fixture table regression.

The seeded suites work in passes of at most ``PASS_SEEDS`` seeds, in three
steps.  Draw: each seed's rng is consumed in a fixed order, and only the
discrete choices (angles, styles, Kraus counts) and the raw complex
Gaussians are kept; no rng call depends on a computed value.  Build: the
whole pass is built with one stacked call per shape or style group: QR and
the phase fix of the unitaries and isometries, the Schmidt vectors and
their projectors, ``eigh`` of the split outcomes and of the Choi operators
of the instruments, the full-rank states and the xi maps.  Decide: one
:func:`gqi.decide_all` of the pass, whose certificates carry the verdicts
that the suite's criteria read, and whose witnesses no suite reads, so none
is built; bounds first validates its instruments with one
:func:`combs.validate_all`.  Each criterion is then one kernel call per pass
(:func:`channels._kraus_criterion`, :func:`testers._bounds`).  Every object
is the one the former per-object generators drew, to the bit.  A pass that
raises names the first seed whose own pass raises, ``seed N: `` leading its
error (:func:`combs._first_fault`).  The public generators of what a pass
draws are the build of their own draw alone; the two that no pass draws,
:func:`random_two_outcome_qubit_tester` and :func:`random_nonextremal_gqi`,
are plain calls of the per-object generators.  The appendix suite
classifies its seven fixtures with one :func:`channels.classify_combinations`.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from . import channels, combs, gqi as gqi_mod, linalg, testers
from .channels import APPENDIX_TABLE
from .errors import ToleranceError
from .linalg import DEFAULT_TOL, TolerancePolicy


class SuiteResult:
    def __init__(self, name: str, total: int = 0, failures: int = 0, details: list | None = None):
        self.name = name
        self.total = total
        self.failures = failures
        self.details = [] if details is None else details

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


# A generator that a pass draws is a draw and a build (see the module
# docstring).  A draw is tagged with the build that reads it, (build, draw),
# so that draws of several generators are built together by :func:`_build`.

# The weights of random_full_rank_state are uniform on [STATE_FLOOR, 1 + STATE_FLOOR)
# before normalization.
STATE_FLOOR = 0.05


def _positions(keys) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {key: np.array(at) for key, at in groups.items()}


def _build(draws) -> list:
    """The objects of tagged draws (build, draw), in order: each build runs
    once, on all its draws, in order of first appearance."""
    out = [None] * len(draws)
    for build, at in _positions(build for build, _ in draws).items():
        for i, obj in zip(at, build([draws[i][1] for i in at])):
            out[i] = obj
    return out


def _qubit_testers(outcomes) -> list:
    return [testers.Tester(d2=2, d1=2, outcomes=tuple(o)) for o in outcomes]


def _schmidt(draws) -> np.ndarray:
    """The outcomes (K, 2, 4, 4) of the Schmidt testers of draws
    (angle, g2, g1), u2 and u1 from one stacked QR."""
    angles, g2, g1 = zip(*draws)
    u = channels._unitaries(np.array(g2 + g1))
    return testers._schmidt_outcomes(testers._schmidt_vectors(angles, u[: len(angles)], u[len(angles) :]))


def _draw_state(d: int, rng) -> tuple:
    return channels._gaussian(rng, (d, d)), rng.random(d)


def _states(draws) -> np.ndarray:
    """The states of draws (Gaussian, weights) of one dimension, (K, d, d)."""
    g, raw = zip(*draws)
    u = channels._unitaries(np.array(g))
    w = np.array(raw) + STATE_FLOOR
    w /= w.sum(axis=-1, keepdims=True)
    return (u * w[:, None, :]) @ testers._adjoint(u)


def random_full_rank_state(d: int, rng) -> np.ndarray:
    """Random density operator whose eigenvalues all lie above
    :func:`smallest_state_eigenvalue`."""
    return _states([_draw_state(d, rng)])[0]


def smallest_state_eigenvalue(d: int) -> float:
    """The infimum of the eigenvalues :func:`random_full_rank_state` draws:
    one weight at ``STATE_FLOOR`` beside d - 1 weights just under
    1 + STATE_FLOOR."""
    return STATE_FLOOR / (STATE_FLOOR + (d - 1) * (1.0 + STATE_FLOOR))


def _gaussian2(rng) -> np.ndarray:
    return channels._gaussian(rng, (2, 2))


def _draw_extremal_qubit_tester(rng) -> tuple:
    angle = rng.uniform(0.15, math.pi / 4)
    return _extremal_qubit_testers, (angle, _gaussian2(rng), _gaussian2(rng), int(rng.integers(0, 3)))


def _extremal_qubit_testers(draws) -> list:
    """Schmidt testers whose outcome 1 is split, by style, into none, its
    three projective effects (1), or two of them merged and the third (2):
    one ``eigh`` of the split outcomes, one split per style."""
    outcomes = _schmidt([draw[:3] for draw in draws])
    built = [tuple(o) for o in outcomes]
    styles = np.array([draw[3] for draw in draws])
    split = np.flatnonzero(styles)
    if split.size:
        eig = linalg.hermitian_eig(outcomes[split, 1], DEFAULT_TOL)
        effects, ranks = testers._projectors(eig), DEFAULT_TOL.support(eig.values)[1]
        for (style, r), at in _positions(zip(styles[split].tolist(), ranks.tolist())).items():
            subs = effects[at, :r]
            if style == 2:
                subs = np.stack([subs[:, 0] + subs[:, 1], subs[:, 2]], axis=1)
            for k, pieces in zip(split[at], testers._split_pieces(eig[at], subs, DEFAULT_TOL)):
                built[k] = (built[k][0], *pieces)
    return [testers.Tester(d2=2, d1=2, outcomes=o) for o in built]


def random_extremal_qubit_tester(rng) -> testers.Tester:
    """Entangled two-outcome tester, sometimes split to 3 or 4 outcomes."""
    return _build([_draw_extremal_qubit_tester(rng)])[0]


def _draw_nonextremal_qubit_tester(rng) -> tuple:
    if rng.integers(0, 2) == 0:
        return _nonextremal_qubit_testers, [(0.0, _gaussian2(rng), _gaussian2(rng))]
    return _nonextremal_qubit_testers, [
        (rng.uniform(0.2, math.pi / 4), _gaussian2(rng), _gaussian2(rng)) for _ in range(2)
    ]


def _nonextremal_qubit_testers(draws) -> list:
    """A product-vector Schmidt tester for a draw of one Schmidt tester, the
    midpoint of the two for a draw of two: one Schmidt build of them all."""
    outcomes = _schmidt([schmidt for draw in draws for schmidt in draw])
    first = np.cumsum([0] + [len(draw) for draw in draws[:-1]])
    mixed = np.array([len(draw) == 2 for draw in draws])
    out = outcomes[first]
    # The outcomes of gqi.mix(a, b, 0.5).
    out[mixed] = 0.5 * outcomes[first[mixed]] + 0.5 * outcomes[first[mixed] + 1]
    return _qubit_testers(out)


def random_nonextremal_qubit_tester(rng) -> testers.Tester:
    """Product-vector testers and mixtures of distinct extremal testers."""
    return _build([_draw_nonextremal_qubit_tester(rng)])[0]


def _draw_rank22_qubit_tester(rng, nonextremal: bool) -> tuple:
    if not nonextremal:
        return _rank22_qubit_testers, (0, channels._gaussian(rng, (4, 4)))
    if rng.integers(0, 2) == 0:
        return _rank22_qubit_testers, (1, _gaussian2(rng))
    return _rank22_qubit_testers, (2, _gaussian2(rng), _gaussian2(rng), _gaussian2(rng))


def _rank22_qubit_testers(draws) -> list:
    """{P_1 / 2, (I - P_1) / 2} per draw (style, Gaussians...), one build per
    style: P_1 the projector onto two columns of a 4 x 4 unitary (0),
    I (x) |v><v| (1), or |f><f| (x) |e><e| + |h><h| (x) |e_perp><e_perp| (2)."""

    def outer(v):
        return v[..., :, None] * v[..., None, :].conj()

    p1 = np.empty((len(draws), 4, 4), dtype=complex)
    for style, at in _positions(draw[0] for draw in draws).items():
        # The unitaries of a style, (n, K, d, d) for its n Gaussians per draw, from one QR.
        g = np.array([[draws[i][j] for i in at] for j in range(1, len(draws[at[0]]))])
        u = channels._unitaries(g.reshape(-1, *g.shape[2:])).reshape(g.shape)
        if style == 0:
            p1[at] = u[0, :, :, :2] @ testers._adjoint(u[0, :, :, :2])
        elif style == 1:
            p1[at] = linalg.kron(np.eye(2, dtype=complex), outer(u[0, :, :, 0]))
        else:
            f, h, e = u
            fe = linalg.kron(outer(f[:, :, 0]), outer(e[:, :, 0]))
            p1[at] = fe + linalg.kron(outer(h[:, :, 0]), outer(e[:, :, 1]))
    p2 = np.eye(4, dtype=complex) - p1
    return [testers.Tester(d2=2, d1=2, outcomes=(a / 2.0, b / 2.0)) for a, b in zip(p1, p2)]


def random_rank22_qubit_tester(rng, nonextremal: bool = False) -> testers.Tester:
    """Two-outcome tester with both parts rank two ((2,2) profile)."""
    return _build([_draw_rank22_qubit_tester(rng, nonextremal)])[0]


def random_two_outcome_qubit_tester(rng) -> testers.Tester:
    """Mixed population spanning the (1,3) and (2,2) profiles, including
    near-product Schmidt angles down to 1e-6 and exact product vectors."""
    style = rng.integers(0, 6)
    g2, g1 = _gaussian2(rng), _gaussian2(rng)
    if style in (3, 4):
        return random_rank22_qubit_tester(rng, nonextremal=style == 4)
    if style == 0:
        angle = rng.uniform(0.1, math.pi / 4)
    elif style == 2:
        angle = rng.uniform(1e-6, 1e-5)
    else:
        angle = 0.0 if style == 1 else 1e-6
    return testers.schmidt_tester(angle, *channels._unitaries(np.array([g2, g1])))


def _draw_instrument(counts: tuple, rng) -> tuple:
    """The draw of ``channels.random_instrument(2, 2, counts, rng)``."""
    return _instruments, (counts, channels._stinespring_gaussian(2, 2, sum(counts), rng))


def _instruments(draws) -> list:
    """The instruments on (2, 2) of draws (counts, Gaussian), one stacked
    build per Kraus-count tuple."""
    out = [None] * len(draws)
    for counts, at in _positions(draw[0] for draw in draws).items():
        for i, o in zip(at, channels._instrument_operators(np.array([draws[i][1] for i in at]), 2, counts)):
            out[i] = channels.Instrument(d1=2, d0=2, operators=tuple(o))
    return out


def random_nonextremal_gqi(rng) -> channels.Instrument:
    """Midpoint of two distinct random instruments (never extremal)."""
    counts = [(1, 1), (1, 2), (2, 1), (1, 1, 1)][rng.integers(0, 4)]
    return gqi_mod.mix(channels.random_instrument(2, 2, counts, rng), channels.random_instrument(2, 2, counts, rng))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

EQUIVALENCE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))

# Seeds drawn and decided per pass: a pass holds its whole population in
# memory, so a suite's memory stays bounded however many seeds it runs.
PASS_SEEDS = 100


def _run_passes(name: str, decide, seeds: int, pol: TolerancePolicy) -> SuiteResult:
    """The suite ``name`` over seeds 0 to ``seeds`` - 1, in passes of at most
    ``PASS_SEEDS`` seeds.  ``decide(seeds, pol)`` draws, builds and decides
    the population of the seeds it is given and yields its records
    (ok, detail) in order.  A pass that raises names the first seed whose
    own pass raises, with its error (:func:`combs._first_fault`).  A
    ``seeds`` that is negative, a bool or not an integer raises
    ValueError."""
    if isinstance(seeds, bool) or not isinstance(seeds, numbers.Integral) or seeds < 0:
        raise ValueError(f"seeds must be a non-negative integer, got {seeds!r}")
    result = SuiteResult(name=name)
    for start in range(0, seeds, PASS_SEEDS):
        chunk = range(start, min(seeds, start + PASS_SEEDS))
        for ok, detail in combs._first_fault(lambda at: list(decide(at, pol)), chunk, "seed"):
            result.record(ok, detail)
    return result


def _channels(draws) -> list:
    """The channels of draws (d0, d1, Kraus count, Gaussian), one stacked
    build per dimensions and count."""
    out = [None] * len(draws)
    for (d0, d1, _), at in _positions(draw[:3] for draw in draws).items():
        for i, choi in zip(at, channels._channel_chois(np.array([draws[i][3] for i in at]), d1)):
            out[i] = channels.Channel(d1=d1, d0=d0, choi=choi)
    return out


def run_equivalence(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Choi's criterion and the master-criterion form must agree on random
    channels across small dimension pairs."""
    return _run_passes("equivalence", _equivalence_pass, seeds, pol)


def _equivalence_pass(seeds, pol: TolerancePolicy):
    drawn = []
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        for d0, d1 in EQUIVALENCE_DIMS:
            count = int(rng.integers(-(-d0 // d1), d0 * d1 + 1))
            drawn.append((d0, d1, count, channels._stinespring_gaussian(d0, d1, count, rng), seed))
    chans = _channels(drawn)
    certs = gqi_mod.decide_all(chans, pol)
    choi = channels._kraus_criterion(chans, [cert.validation for cert in certs], pol)
    for (d0, d1, count, _, seed), a, cert in zip(drawn, choi, certs):
        b = cert.extremal
        yield a == b, f"seed {seed} dims ({d0},{d1}) kraus {count}: choi={a} rank-form={b}"


def run_xi_invariance(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Extremality verdicts are invariant under xi_{rho,U}; the transform
    round-trips to 1e-10.  A support cutoff that reaches the states drawn,
    which xi_transform needs of full rank, raises :class:`ToleranceError`."""
    floor = smallest_state_eigenvalue(2)
    if pol.supp_tol(2, 1.0) >= floor:
        raise ToleranceError(f"tolerance {pol.eps_rel:g} puts the support cutoff at or above {floor:.4g}, "
                             "the smallest eigenvalue of the states xi-invariance draws")
    return _run_passes("xi-invariance", _xi_invariance_pass, seeds, pol)


def _xi_invariance_pass(seeds, pol: TolerancePolicy):
    drawn = []
    for seed in seeds:
        rng = np.random.default_rng(2000 + seed)
        t = _draw_extremal_qubit_tester(rng) if seed % 2 == 0 else _draw_nonextremal_qubit_tester(rng)
        drawn.append((t, _draw_state(2, rng), _gaussian2(rng)))
    # One xi_transform and one xi_inverse of all the testers' outcomes.
    ts = _build([t for t, _, _ in drawn])
    rho = _states([state for _, state, _ in drawn])
    u = channels._unitaries(np.array([g for *_, g in drawn]))
    ops, owner = testers._outcome_stack(ts)
    moved = testers._xi_outcomes(ops, owner, 2, 2, rho, u, pol)
    back = testers._xi_inverse_outcomes(moved, owner, 2, 2, rho, u, pol)
    bounds = np.cumsum([0] + [t.n_outcomes for t in ts])
    residuals = np.maximum.reduceat(np.abs(back - ops).max(axis=(-2, -1)), bounds[:-1])
    moved = _qubit_testers(moved[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
    certs = gqi_mod.decide_all([x for pair in zip(ts, moved) for x in pair], pol)
    for seed, first, second, residual in zip(seeds, certs[::2], certs[1::2], residuals):
        before, after = first.extremal, second.extremal
        detail = f"seed {seed}: before={before} after={after} roundtrip={residual:.2e}"
        yield before == after and residual <= 1e-10, detail


def run_bounds(seeds: int = 200, pol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Counting bounds hold for every object the criteria report extremal."""
    return _run_passes("bounds", _bounds_pass, seeds, pol)


def _bounds_pass(seeds, pol: TolerancePolicy):
    drawn = []
    for seed in seeds:
        rng = np.random.default_rng(3000 + seed)
        drawn += [
            _draw_extremal_qubit_tester(rng),
            _draw_nonextremal_qubit_tester(rng),
            _draw_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
        ]
        counts = [(1,), (1, 1), (1, 2), (1, 1, 1), (2, 2)][int(rng.integers(0, 5))]
        drawn.append(_draw_instrument(counts, rng))
    # Each seed drew three testers and an instrument.
    built = _build(drawn)
    pools = [t for i, t in enumerate(built) if i % 4 != 3]
    instruments = built[3::4]
    verdicts = combs.validate_all(instruments, pol)
    certs = gqi_mod.decide_all(pools, pol)
    extremal = [(t, cert.validation) for t, cert in zip(pools, certs) if cert.extremal]
    tester_bounds = iter(testers._bounds([t for t, _ in extremal], [v for _, v in extremal], pol))
    kraus = channels._kraus_criterion(instruments, verdicts, pol)
    found = iter(certs)
    for seed, ins, verdict, ins_extremal in zip(seeds, instruments, verdicts, kraus):
        for cert in itertools.islice(found, 3):
            if cert.extremal:
                bounds = next(tester_bounds)
                yield bounds.ok, f"seed {seed}: tester bound violated {bounds}"
        if ins_extremal:
            bound = channels.instrument_rank_bound(ins, pol, verdict)
            yield bound.ok, f"seed {seed}: instrument bound violated {bound}"


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
