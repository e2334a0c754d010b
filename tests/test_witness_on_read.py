"""Witnesses computed on first read.

``gqi.is_extremal`` and ``gqi.decide_all`` decide every field of a
certificate at once but its witness, ``perturbation``.  A stack keeps what
its witnesses need; the first read of any dependent member's witness builds
the directions of every dependent member of the stack and runs one
``max_perturbation_step`` for them, or one ``identity_exchange_step`` at the
identity exchange.  A caller that reads only ``.extremal`` runs neither.
Reading a witness raises exactly when the member's own eager call raised,
with that call's message, and a build that raises is not kept.  That each
witness read late equals the former eager chain to the bit is in
``test_population.py``.

Also here: certificates and witnesses compare their arrays entry by entry.
"""

import numpy as np
import pytest

from exqip import channels, cli, combs, fileio, gqi, linalg, suites
from exqip.errors import ValidationError
from exqip.gqi import Perturbation

import oracles
from populations import TREE_NAMES, bench_tree, fixture_path, golden, golden_objects, mixed_population

STEPS = ("max_perturbation_step", "identity_exchange_step")


def count(calls) -> dict:
    """The number of calls of each epsilon* step in ``calls``."""
    return {name: sum(c.name == name for c in calls) for name in STEPS}


def identity_exchange(g, cert) -> bool:
    """Whether ``cert`` of ``g`` took the identity exchange: two outcomes of full support."""
    return not cert.extremal and cert.support_ranks.count(g.signature.total_dim) > 1


def test_reading_extremal_builds_no_witness(record):
    calls = record(gqi, *STEPS)
    population = mixed_population()
    certs = gqi.decide_all(population)
    assert {c.extremal for c in certs} == {True, False}
    assert any(identity_exchange(g, c) for g, c in zip(population, certs))
    assert [gqi.is_extremal(g).extremal for g in population] == [c.extremal for c in certs]
    assert calls == []


def test_first_read_runs_one_call_per_stack(record):
    """Reading one dependent member of each stack runs one step per stack;
    reading the rest runs none."""
    population = mixed_population()
    certs = gqi.decide_all(population)
    calls = record(gqi, *STEPS)
    stacks = {}
    for g, cert in zip(population, certs):
        if not cert.extremal:
            stacks.setdefault((g.signature, cert.support_ranks), []).append(cert)
    assert sum(len(members) > 1 for members in stacks.values()) >= 3
    for members in stacks.values():
        assert members[-1].perturbation is not None
    exchanges = sum(ranks.count(sig.total_dim) > 1 for sig, ranks in stacks)
    want = {"max_perturbation_step": len(stacks) - exchanges, "identity_exchange_step": exchanges}
    assert count(calls) == want and exchanges > 0
    for cert in certs:
        assert (cert.perturbation is None) == cert.extremal
    assert count(calls) == want


def test_decompose_runs_one_step_per_stack_per_depth(record, tmp_path, capsys):
    """``exqip decompose`` reads every witness of a depth at once: each
    stack of dependent nodes, at each depth, runs one step."""
    calls = record(gqi, *STEPS)
    decided = record(gqi, "decide_all")
    path, depth = bench_tree(1, TREE_NAMES[-1], tmp_path)
    assert cli.main(["decompose", path, "--steps", str(depth), "--out", str(tmp_path / "tree")]) == 0
    capsys.readouterr()
    stacks = [
        len({(g.signature, c.support_ranks) for g, c in zip(call.args[0], call.result) if not c.extremal})
        for call in decided
    ]
    # The root is decided by is_extremal, a stack of one.
    assert len(stacks) == depth - 1 and len(calls) == 1 + sum(stacks) > len(stacks)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suites_build_no_witness(record, capsys, name):
    calls = record(gqi, *STEPS)
    assert cli.main(["suite", name, "--seeds", "10"]) == 0
    capsys.readouterr()
    assert calls == []


def test_theorem1_builds_no_witness(record):
    calls = record(gqi, *STEPS)
    chans = oracles.suite_population("equivalence", 10)
    got = [channels.channel_extremal_theorem1(c) for c in chans]
    assert got == [channels.choi_condition(c) for c in chans] and set(got) == {True, False}
    assert calls == []


def test_witness_error_is_the_members_own(monkeypatch):
    """A step that raises for one member of a stack: ``decide_all`` and
    every other field still succeed, the other members get their own
    witnesses, and reading that member's witness raises, every time, the
    error of its own eager call."""
    population = mixed_population()
    certs = gqi.decide_all(population)
    stacks = {}
    for g, cert in zip(population, certs):
        if not cert.extremal and not identity_exchange(g, cert):
            stacks.setdefault((g.signature, cert.support_ranks), []).append(g)
    members = max(stacks.values(), key=len)
    assert len(members) >= 3
    # The largest eigenvalue of the member's first outcome marks it.
    target = gqi.is_valid_gqi(members[1]).spectra.values[0, 0]
    step = gqi.max_perturbation_step

    def faulty(directions, spectra, pol=gqi.DEFAULT_TOL):
        top = np.asarray(spectra.values)[..., 0, 0]
        if (top == target).any():
            raise ValidationError("perturbation directions out of floating-point range (norm inf)")
        return step(directions, spectra, pol)

    monkeypatch.setattr(gqi, "max_perturbation_step", faulty)
    with pytest.raises(ValidationError) as own:
        gqi.is_extremal(members[1]).perturbation
    certs = gqi.decide_all(members)
    assert [c.extremal for c in certs] == [False] * len(members)
    for _ in range(2):
        with pytest.raises(ValidationError) as read:
            certs[1].perturbation
        assert str(read.value) == str(own.value)
    with pytest.raises(ValidationError) as split:
        gqi.decompose_step(members[1], certificate=certs[1])
    assert str(split.value) == str(own.value)
    monkeypatch.setattr(gqi, "max_perturbation_step", step)
    for i in (0, 2):
        assert certs[i].perturbation == gqi.is_extremal(members[i]).perturbation


def test_a_build_that_raises_stays_pending(monkeypatch, record):
    """A witness build that raises keeps no result: the first read of a
    dependent member raises, and the next read builds the stack's witnesses
    again, its own to the bit, after which reading the other members runs
    no further step."""
    population = mixed_population()
    stacks = {}
    for g, cert in zip(population, gqi.decide_all(population)):
        if not cert.extremal and g.signature.total_dim not in cert.support_ranks:
            stacks.setdefault((g.signature, cert.support_ranks), []).append(g)
    members = max(stacks.values(), key=len)
    assert len(members) >= 3
    own = [gqi.is_extremal(g).perturbation for g in members]
    certs = gqi.decide_all(members)
    unvectorize = linalg.unvectorize_hermitian

    def once(*args, **kwargs):
        monkeypatch.setattr(linalg, "unvectorize_hermitian", unvectorize)
        raise RuntimeError("a build that raises")

    monkeypatch.setattr(linalg, "unvectorize_hermitian", once)
    with pytest.raises(RuntimeError, match="^a build that raises$"):
        certs[1].perturbation
    assert linalg.unvectorize_hermitian is unvectorize
    calls = record(gqi, *STEPS)
    assert certs[1].perturbation == own[1]
    assert count(calls)["max_perturbation_step"] == 1
    for cert, pert in zip(certs, own, strict=True):
        assert cert.perturbation == pert
    assert count(calls) == {"max_perturbation_step": 1, "identity_exchange_step": 0}


def test_support_rule_runs_once_per_validation_stack(record):
    """The epsilon* step reads the support ranks of the verdicts: over
    ``decide_all`` and the read of every witness, the support rule runs
    once per validation stack and never again."""
    population = mixed_population()
    calls = record(gqi, *STEPS)
    support, stacks = record(linalg.TolerancePolicy, "support"), record(combs, "_validate_stack")
    for cert in gqi.decide_all(population):
        assert (cert.perturbation is None) == cert.extremal
    assert count(calls)["max_perturbation_step"] > 0
    assert len(support) == len(stacks) > 0


def test_witness_step_is_the_step_on_bare_spectra():
    """A witness's epsilon* is, to the bit, that of the public
    ``max_perturbation_step`` on its directions and the spectra of its
    verdict, which counts the support ranks itself."""
    population = mixed_population()
    certs = gqi.decide_all(population)
    checked = 0
    for g, cert in zip(population, certs, strict=True):
        if cert.extremal or identity_exchange(g, cert):
            continue
        pert = cert.perturbation
        assert gqi.max_perturbation_step(pert.directions, cert.validation.spectra) == pert.epsilon_star
        checked += 1
    assert checked > 0


def not_extremal_golden():
    out = [(g, gqi.is_extremal(g)) for g in golden_objects()]
    return [(g, cert) for g, cert in out if not cert.extremal]


def test_certificates_of_one_object_are_equal():
    for g in golden_objects():
        a, b = gqi.is_extremal(g), gqi.is_extremal(g)
        assert a == b and not a != b
    assert len(not_extremal_golden()) == 7


def test_witnesses_compare_entry_by_entry():
    _, cert = not_extremal_golden()[0]
    p = cert.perturbation
    moved = [d.copy() for d in p.directions]
    moved[0][0, 0] += 1e-12
    assert p == Perturbation(tuple(d.copy() for d in p.directions), p.delta.copy(), p.epsilon_star)
    assert p != Perturbation(tuple(moved), p.delta, p.epsilon_star)
    assert p != Perturbation(p.directions, p.delta, np.nextafter(p.epsilon_star, 1.0))
    assert p != Perturbation(p.directions[:-1], p.delta, p.epsilon_star)
    assert p != Perturbation(p.directions, p.delta + 1e-12, p.epsilon_star)
    assert p != "not a witness"
    assert cert != gqi.ExtremalityCertificate(
        cert.extremal, cert.family_size, cert.rank, cert.support_ranks, cert.normalization_basis_size, None
    )


def test_loaded_certificate_equals_the_computed_one(tmp_path):
    for i, (_, cert) in enumerate(not_extremal_golden()):
        path = str(tmp_path / f"cert-{i}.json")
        fileio.save_certificate(path, "gqi", cert, gqi.DEFAULT_TOL)
        loaded = fileio.load_certificate(path)
        assert loaded.validation is None and loaded == cert
    # The golden fixtures themselves, as the CLI writes their certificates.
    path = str(tmp_path / "gqi-cert.json")
    assert cli.main(["extremal", fixture_path("gqi"), "--certificate", path]) == 0
    assert fileio.load_certificate(path) == gqi.is_extremal(golden("gqi"))
