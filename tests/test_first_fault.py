"""The one rule that names the fault of a population.

``combs._first_fault`` runs a population as one.  When that raises, it runs
each member alone, in order, and the first member that raises is named, its
label leading its own error; when none raises alone, the error of the whole
is raised.  ``validate_all`` and ``decide_all`` take the rule over their
objects, ``channels.classify_combinations`` over its instruments and the
seeded suites over their seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exqip import channels, combs, gqi, suites
from exqip.combs import CombSignature
from exqip.errors import ExqipError, ValidationError
from exqip.gqi import Gqi, Povm
from exqip.linalg import DEFAULT_TOL, TolerancePolicy

from populations import assert_same_certificate, assert_same_verdict, drawn_object


def test_first_member_that_raises_alone():
    """Members are rerun in their order, not by value, and the rerun stops
    at the first that raises."""
    runs = []

    def run(members):
        runs.append(list(members))
        faulty = [m for m in members if m in (3, 5)]
        if faulty:
            raise ValidationError(f"draw {min(faulty)}")
        return list(members)

    with pytest.raises(ValidationError, match="^member 5: draw 5$"):
        combs._first_fault(run, [1, 5, 3])
    assert runs == [[1, 5, 3], [1], [5]]
    with pytest.raises(ValidationError, match="^seed 3: draw 3$"):
        combs._first_fault(run, range(2, 6), "seed")
    assert combs._first_fault(run, [1, 2]) == [1, 2]


def test_a_fault_of_the_whole_alone_is_raised_as_it_is():
    def run(members):
        if len(members) > 1:
            raise ValidationError("only together")
        return list(members)

    with pytest.raises(ValidationError, match="^only together$"):
        combs._first_fault(run, [0, 1])


# ---------------------------------------------------------------------------
# validate_all and decide_all against the calls of one object
# ---------------------------------------------------------------------------

# Above every rank stage of the valid members drawn below (at most 4 344
# bytes) and below that of big() (15 104 bytes).
BUDGET = 12_000
LOOSE = TolerancePolicy(eps_rel=0.03)


def skewed(rng):
    skew = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    return Povm(2, (skew, np.eye(2) - skew))


def big(rng):
    """An instrument on (3, 3) with support ranks (3, 3): no full-support
    outcome, so it reaches the rank stage, whose estimate is above BUDGET."""
    return channels.random_instrument(3, 3, (3, 3), rng)


FAULTS = {
    "non-Hermitian": skewed,
    "invalid": lambda rng: Povm(2, (np.diag([1.1, 0.0]), np.diag([-0.1, 1.0]))),
    "wrong shape": lambda rng: Gqi(CombSignature((2, 1)), (np.eye(2), np.eye(3))),
    # Every eigenvalue, 0.05, is at or below the support cutoff 2 eps_rel at LOOSE.
    "empty at LOOSE": lambda rng: Povm(2, (np.eye(2) / 20,) * 20),
    "above BUDGET": big,
}


def outcome(call, *args):
    """(result, None) of ``call(*args)``, or (None, error) when it raises."""
    try:
        return call(*args), None
    except ExqipError as err:
        return None, err


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.lists(st.tuples(st.integers(0, 9), st.sampled_from(sorted(FAULTS))), max_size=3),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_a_population_raises_its_first_member_that_raises_alone(seed, size, faults, loose, budget):
    """Valid POVMs and instruments, with faults put at random indices:
    validate_all and decide_all raise the error of the lowest member whose
    own is_valid_gqi or is_extremal raises, ``member i: `` leading it, and
    with no such member give that call's results to the bit."""
    rng = np.random.default_rng(seed)
    population = [
        drawn_object(int(rng.integers(2**32)), kind, 2, int(rng.integers(1, 5)), 0)
        for kind in rng.choice(["povm", "instrument"], size)
    ]
    for at, fault in faults:
        population[at % size] = FAULTS[fault](rng)
    pol = LOOSE if loose else DEFAULT_TOL
    with pytest.MonkeyPatch.context() as patch:
        if budget:
            patch.setattr(combs, "RANK_STAGE_BUDGET", BUDGET)
        cases = [
            (lambda: gqi.validate_all(population, pol), gqi.is_valid_gqi, assert_same_verdict),
            (lambda: gqi.decide_all(population, pol), gqi.is_extremal, assert_same_certificate),
        ]
        for stacked, single, same in cases:
            singles = [outcome(single, g, pol) for g in population]
            first = next((i for i, (_, err) in enumerate(singles) if err is not None), None)
            if first is None:
                for got, (want, _) in zip(stacked(), singles, strict=True):
                    same(got, want)
            else:
                err = singles[first][1]
                with pytest.raises(type(err)) as got:
                    stacked()
                assert str(got.value) == f"member {first}: {err}"


# ---------------------------------------------------------------------------
# The seeded suites name the seed
# ---------------------------------------------------------------------------


def raised(run, seeds, pol):
    try:
        run(seeds=seeds, pol=pol)
    except ExqipError as err:
        return err
    return None


@pytest.mark.parametrize("eps", [1.5e-16, 1.8e-16])
def test_bounds_names_the_first_seed_at_fault(eps):
    """At these tolerances the bounds suite meets rounding faults (an
    invalid member, a non-Hermitian one) in several seeds.  The error names
    the seed of the smallest prefix of seeds that raises, with that
    prefix's error, however many seeds run.  Which seeds fault depends on
    the BLAS rounding, so none is written here; where none faults, the
    suite runs."""
    pol = TolerancePolicy(eps_rel=eps)
    whole = raised(suites.run_bounds, 100, pol)
    if whole is None:
        return
    first = next(k for k in range(100) if raised(suites.run_bounds, k + 1, pol) is not None)
    prefix = raised(suites.run_bounds, first + 1, pol)
    assert (type(whole), str(whole)) == (type(prefix), str(prefix))
    assert str(whole).startswith(f"seed {first}: ")
    assert str(raised(suites.run_bounds, 200, pol)) == str(whole)
