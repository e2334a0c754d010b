"""Drawing a population in two steps, against one object at a time.

Each generator consumes its rng in the former order and keeps the raw
Gaussians and discrete choices; the objects are built from stacked calls,
and a public generator is that build on its own draw alone.  The reference
is the former per-object generators of ``tests/oracles.py``: every object
must equal its oracle to the bit, the sign of every zero included.
"""

import math
import re

import numpy as np
import pytest

import oracles
from exqip import channels, gqi, suites, testers
from exqip.errors import DimensionMismatchError, NotHermitianError, ValidationError
from exqip.linalg import DEFAULT_TOL, TolerancePolicy
from populations import same_bits

SEEDS = range(200)


def assert_same_object(got, want):
    assert type(got) is type(want) and got.signature == want.signature
    assert len(got.outcomes) == len(want.outcomes)
    for x, y in zip(got.outcomes, want.outcomes):
        assert same_bits(x, y)


def recorded_population(record, name, seeds):
    """The objects the suite decides, in the order of ``oracles.suite_population``."""
    calls = record(gqi, "validate_all", "decide_all")
    assert suites.run_suite(name, seeds=seeds).ok
    passes = [list(call.args[0]) for call in calls]
    if name != "bounds":
        return [x for objects in passes for x in objects]
    # A bounds pass validates its instruments, one per seed, then decides its testers, three per seed.
    out = []
    for instruments, pools in zip(passes[::2], passes[1::2], strict=True):
        for seed, ins in enumerate(instruments):
            out += pools[3 * seed : 3 * seed + 3] + [ins]
    return out


@pytest.mark.parametrize("name", ["equivalence", "xi-invariance", "bounds"])
def test_suite_population_is_the_oracles(record, name):
    """Seeds 0-199, two passes of PASS_SEEDS, each object to the bit."""
    got = recorded_population(record, name, len(SEEDS))
    want = oracles.suite_population(name, len(SEEDS))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_object(g, w)


GENERATORS = [
    "random_extremal_qubit_tester",
    "random_nonextremal_qubit_tester",
    "random_two_outcome_qubit_tester",
    "random_nonextremal_gqi",
]


@pytest.mark.parametrize("name", GENERATORS)
def test_public_generators_are_the_oracles(name):
    for seed in SEEDS:
        got = getattr(suites, name)(np.random.default_rng(seed))
        assert_same_object(got, getattr(oracles, name)(np.random.default_rng(seed)))


@pytest.mark.parametrize("nonextremal", [False, True])
def test_rank22_tester_is_the_oracle(nonextremal):
    for seed in SEEDS:
        got = suites.random_rank22_qubit_tester(np.random.default_rng(seed), nonextremal)
        assert_same_object(got, oracles.random_rank22_qubit_tester(np.random.default_rng(seed), nonextremal))


def test_every_style_is_drawn():
    """Seeds 0-199 reach every branch of every tester generator and every
    Kraus-count tuple of random_nonextremal_gqi, each the generator's first
    draw but the extremal tester's style, its fourth."""

    def first(n):
        return {int(np.random.default_rng(seed).integers(0, n)) for seed in SEEDS}

    def extremal_style(seed):
        rng = np.random.default_rng(seed)
        rng.uniform(0.15, math.pi / 4)
        rng.standard_normal((4, 2, 2))
        return int(rng.integers(0, 3))

    assert first(6) == set(range(6)) and first(4) == set(range(4)) and first(2) == {0, 1}
    assert {extremal_style(seed) for seed in SEEDS} == {0, 1, 2}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_unitaries_and_states_are_the_oracles(d):
    for seed in range(50):
        assert same_bits(channels.random_unitary(d, np.random.default_rng(seed)),
                         oracles.random_unitary(d, np.random.default_rng(seed)))
        assert same_bits(suites.random_full_rank_state(d, np.random.default_rng(seed)),
                         oracles.random_full_rank_state(d, np.random.default_rng(seed)))


DIMS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("d0,d1", DIMS)
def test_channels_are_the_oracles(d0, d1):
    for seed in range(30):
        for count in range(0, d0 * d1 + 3):
            got = channels.random_channel(d0, d1, count, np.random.default_rng(seed))
            assert_same_object(got, oracles.random_channel(d0, d1, count, np.random.default_rng(seed)))


@pytest.mark.parametrize("d0,d1", DIMS)
@pytest.mark.parametrize("counts", [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 2), (4, 4, 1)])
def test_instruments_are_the_oracles(d0, d1, counts):
    """Counts above the channel rank d1 d0, such as (4, 4, 1) at (2, 2), pad
    the partition with zero Kraus operators."""
    for seed in range(20):
        got = channels.random_instrument(d0, d1, counts, np.random.default_rng(seed))
        assert_same_object(got, oracles.random_instrument(d0, d1, counts, np.random.default_rng(seed)))


def test_rank_collapse_pads_with_zero_operators():
    ins = channels.random_instrument(2, 1, (1, 2, 2), np.random.default_rng(4))
    assert [int(oracles.support_rank(np.linalg.eigvalsh(n))) for n in ins.operators] == [1, 1, 0]
    assert same_bits(ins.operators[2], np.zeros((2, 2), dtype=complex))


def test_schmidt_tester_is_the_oracle():
    rng = np.random.default_rng(8)
    u2, u1 = oracles.random_unitary(2, rng), oracles.random_unitary(2, rng)
    for angle in (0.0, 1e-6, 0.3, math.pi / 4):
        for pair in ((None, None), (u2, None), (None, u1), (u2, u1), (u2.real, u1)):
            assert_same_object(testers.schmidt_tester(angle, *pair), oracles.schmidt_tester(angle, *pair))


def test_split_and_xi_are_the_oracles():
    pol = TolerancePolicy(1e-9)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t = oracles.random_extremal_qubit_tester(rng)
        effects = testers.projective_split_effects(t.outcomes[-1])
        for got, want in zip(effects, oracles.projective_split_effects(t.outcomes[-1]), strict=True):
            assert same_bits(got, want)
        assert_same_object(testers.split_outcome(t, len(t.outcomes) - 1, effects),
                           oracles.split_outcome(t, len(t.outcomes) - 1, effects))
        rho, u = oracles.random_full_rank_state(2, rng), oracles.random_unitary(2, rng)
        moved = testers.xi_transform(t, rho, u, pol)
        assert_same_object(moved, oracles.xi_transform(t, rho, u, pol))
        assert_same_object(testers.xi_inverse(moved, rho, u, pol), oracles.xi_inverse(moved, rho, u, pol))


def split_faults():
    """A Schmidt tester and sub-effect families for the split of its outcome
    1, each with a fault: a sum off the projector, a non-Hermitian effect, a
    negative one, one off the support, a negative effect before a
    non-Hermitian one, a support fault before a negative effect, a wrong
    shape."""
    t = oracles.schmidt_tester(0.4)
    e0, e1, e2 = oracles.projective_split_effects(t.outcomes[1])
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-3
    outside = 2e-3 * t.outcomes[0]
    return t, [
        [e0, e1],
        [e0 + skew, e1 - skew, e2],
        [e0 - 0.5 * e2, e1 + 1.5 * e2],
        [e0 + outside, e1 + e2],
        [e0 - 0.5 * e2, e1 + skew, 1.5 * e2 - skew],
        [e0 + outside, e1, e2 - outside],
        [e0, e1, e2, np.zeros((3, 3))],
    ]


def test_split_outcome_faults_are_the_oracles():
    """Every check of split_outcome raises the oracle's error, in its order."""
    t, families = split_faults()
    for sub in families:
        with pytest.raises(Exception) as want:
            oracles.split_outcome(t, 1, sub)
        with pytest.raises(type(want.value)) as got:
            testers.split_outcome(t, 1, sub)
        assert str(got.value) == str(want.value)
    messages = [str(pytest.raises(Exception, oracles.split_outcome, t, 1, sub).value) for sub in families]
    assert len(set(messages)) == 5
    for index in (-1, 2):
        with pytest.raises(DimensionMismatchError, match="out of range"):
            testers.split_outcome(t, index, families[0])


def test_xi_faults_are_the_oracles():
    t = oracles.schmidt_tester(0.4)
    eye = np.eye(2, dtype=complex)
    cases = [
        (np.eye(3) / 3, eye),
        (eye / 2, np.eye(3)),
        (np.diag([1.0, 0.0]).astype(complex), eye),
        (np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex), eye),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), eye),
    ]
    for rho, u in cases:
        for fn in ("xi_transform", "xi_inverse"):
            with pytest.raises(Exception) as want:
                getattr(oracles, fn)(t, rho, u)
            with pytest.raises(type(want.value)) as got:
                getattr(testers, fn)(t, rho, u)
            assert str(got.value) == str(want.value)


def test_a_pass_raises_the_fault_of_the_first_draw(monkeypatch):
    """A fault in a pass's build is the one the first faulty seed meets
    alone, as when each seed's objects were built one at a time, led by
    that seed: at eps_rel 1e-17 the states of xi-invariance are not
    Hermitian within tolerance."""
    pol = TolerancePolicy(1e-17)
    with pytest.raises(NotHermitianError) as got:
        suites.run_xi_invariance(seeds=6, pol=pol)
    for seed in range(6):
        rng = np.random.default_rng(2000 + seed)
        t = (oracles.random_extremal_qubit_tester if seed % 2 == 0 else oracles.random_nonextremal_qubit_tester)(rng)
        rho = oracles.random_full_rank_state(2, rng)
        try:
            oracles.xi_transform(t, rho, oracles.random_unitary(2, rng), pol)
        except NotHermitianError as want:
            assert str(got.value) == f"seed {seed}: {want}"
            break
    else:
        raise AssertionError("no seed at fault")


def test_a_build_raises_for_the_first_draw_alone(monkeypatch):
    """When a pass raises, each of its seeds is drawn, built and decided
    alone, in order, and the first that raises raises its own error, not
    the pass's, led by its seed: its number in the suite, not its place in
    the pass (here seed 5, the second of the second pass of 4)."""
    monkeypatch.setattr(suites, "PASS_SEEDS", 4)
    passes = []

    def decide(seeds, pol):
        passes.append(list(seeds))
        if any(s in (5, 6) for s in seeds):
            raise ValidationError(f"draw {min(s for s in seeds if s in (5, 6))}")
        yield from ((True, "") for _ in seeds)

    with pytest.raises(ValidationError, match="^seed 5: draw 5$"):
        suites._run_passes("toy", decide, 8, DEFAULT_TOL)
    assert passes == [[0, 1, 2, 3], [4, 5, 6, 7], [4], [5]]
    assert suites._run_passes("toy", decide, 5, DEFAULT_TOL).total == 5


@pytest.mark.parametrize("name", ["equivalence", "xi-invariance", "bounds"])
@pytest.mark.parametrize("seeds", [-1, True, 2.5, "2"])
def test_seeded_suites_refuse_a_bad_seed_count(name, seeds):
    """A seed count that is negative, a bool or not an integer is refused
    before any seed is drawn, as ``gqi.decompose`` refuses such a depth."""
    with pytest.raises(ValueError, match=rf"^seeds must be a non-negative integer, got {re.escape(repr(seeds))}$"):
        suites.run_suite(name, seeds=seeds)


def test_seed_count_may_be_a_numpy_integer():
    assert suites.run_suite("equivalence", seeds=np.int64(2)).total == suites.run_suite("equivalence", seeds=2).total
    assert suites.run_suite("bounds", seeds=np.int64(0)).total == 0
