"""The appendix table in three stacked passes.

``channels.classify_combinations`` takes the objects of the rows in the
order of the per-row chain: it validates the instruments and runs the
Kraus-product criterion on their verdicts, does the same for their induced
channels, and decides their induced POVMs in one decision pass.  The
per-row call chain it replaced is the oracle
(``oracles.classify_combination``).  ``classify_combination`` is the passes
on one instrument and raises that chain's errors; on a fault the passes rerun
their instruments alone (``combs._first_fault``) and lead the error with the
index of the first instrument at fault.
"""

import numpy as np
import pytest

from exqip import channels, combs, suites
from exqip.channels import APPENDIX_TABLE
from exqip.gqi import Channel, Instrument, Povm

import oracles

ROWS = sorted(APPENDIX_TABLE)


def fixtures(rows):
    return [channels.combination_fixture(k) for k in rows]


def raised(f, *args):
    """The type and message of the error ``f(*args)`` raises."""
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


def faulty_instruments():
    """Instruments that the per-row chain refuses, each for a reason of its own."""
    # Hermitian within 1e-10, but the sum of three is not: the instrument's
    # gate must speak before its channel's validation.
    skew = np.eye(4, dtype=complex) / 6
    skew[0, 1] += 0.9e-10
    return {
        "invalid, its channel not Hermitian": Instrument(2, 2, (skew, skew, skew, np.diag([-0.1, 0, 0, 0.5]))),
        "non-Hermitian": Instrument(2, 2, (np.triu(np.ones((4, 4))) / 2,)),
        # Its channel, diag(1, 0, 0, 1), is valid and its POVM is not: the
        # instrument's own gate must speak first.
        "negative outcome": Instrument(2, 2, (np.diag([1.5, 0, 0, 1]), np.diag([-0.5, 0, 0, 0]))),
        "not trace preserving": Instrument(2, 2, (np.eye(4) / 4,)),
        "non-finite": Instrument(2, 2, (np.full((4, 4), np.nan),)),
        "entry above the bound": Instrument(2, 2, (np.diag([1e308, 0, 0, 0.5]),)),
        "no outcome": Instrument(2, 2, ()),
    }


def test_matches_the_per_row_chain():
    """Row by row on the seven fixtures: in table order, shuffled, with
    repeats, alone and none."""
    rng = np.random.default_rng(24)
    orders = [ROWS, [int(k) for k in rng.permutation(ROWS)], [int(k) for k in rng.choice(ROWS, 12)], [2], []]
    for rows in orders:
        instruments = fixtures(rows)
        got = channels.classify_combinations(instruments)
        assert got == [oracles.classify_combination(ins) for ins in instruments]
        assert [t.as_signs() for t in got] == [APPENDIX_TABLE[k] for k in rows]
        assert [channels.classify_combination(ins) for ins in instruments] == got


def test_one_validation_stack_per_group(record):
    """The suite validates each of its 21 objects (seven instruments, their
    channels and their POVMs) once, in three passes, the instruments', the
    channels' and the POVMs', each with one stack per (signature, outcome
    count): seven stacks.  The one-outcome instrument of row 1 and the
    channels share a key, on (2, 2), but not a pass."""
    calls = record(combs, "_validate_stack")
    result = suites.run_appendix_c()
    assert result.ok and result.total == 7
    stacks = [list(call.args[0]) for call in calls]
    members = [g for stack in stacks for g in stack]
    assert len(members) == len({id(g) for g in members}) == 21
    kinds = [{type(g) for g in stack} for stack in stacks]
    assert all(len(kind) == 1 for kind in kinds)
    assert [kind.pop() for kind in kinds] == [Instrument] * 3 + [Channel] * 2 + [Povm] * 2
    keys = [{(g.signature, g.n_outcomes) for g in stack} for stack in stacks]
    assert all(len(key) == 1 for key in keys)
    keys = [key.pop() for key in keys]
    assert len(keys) == 7 and len(set(keys)) == 6 and keys[0] == keys[3]


def test_appendix_suite_is_one_pass(record):
    """``run_appendix_c`` classifies the seven fixtures in one call and
    makes no per-object classify call."""
    calls = record(channels, "classify_combinations", "classify_combination")
    assert suites.run_suite("appendix-c").ok
    assert [(c.name, len(c.args[0])) for c in calls] == [("classify_combinations", 7)]


@pytest.mark.parametrize("name", sorted(faulty_instruments()))
def test_single_keeps_the_chains_error(name):
    """``classify_combination`` raises the error and message of the per-row
    chain, with no member index."""
    ins = faulty_instruments()[name]
    want = raised(oracles.classify_combination, ins)
    assert raised(channels.classify_combination, ins) == want
    assert not want[1].startswith("member")


@pytest.mark.parametrize("name", sorted(faulty_instruments()))
def test_member_index_leads_the_error(name):
    """In a population the instrument's index leads the chain's message."""
    ins = faulty_instruments()[name]
    kind, message = raised(oracles.classify_combination, ins)
    good = fixtures([3, 8])
    assert raised(channels.classify_combinations, good + [ins] + good) == (kind, f"member 2: {message}")


def test_first_instrument_at_fault_raises():
    """An invalid instrument before a non-Hermitian one raises first,
    although the stacked validation failed on the latter."""
    bad = faulty_instruments()
    kind, message = raised(oracles.classify_combination, bad["negative outcome"])
    population = fixtures([1]) + [bad["negative outcome"], bad["non-Hermitian"]]
    assert raised(channels.classify_combinations, population) == (kind, f"member 1: {message}")
