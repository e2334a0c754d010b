"""Tests of the benchmark's own input construction, output checker and span
aggregation.  numpy only; exqip is not imported.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from checker import CheckError  # noqa: E402

LADDER_DIMS = sorted(set(inputs.LADDER.values()), key=math.prod)


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("dims", LADDER_DIMS, ids=str)
def test_ladder_objects_valid(dims):
    for name, outs, _, _ in inputs.ladder_objects(dims, seed=3):
        checker.check_valid(outs, dims, name)


@pytest.mark.parametrize("dims", LADDER_DIMS, ids=str)
def test_minimal_comb_extremal_and_midpoint_not(dims):
    a = inputs.minimal_comb(dims, rng(1))
    b = inputs.minimal_comb(dims, rng(2))
    assert checker.kraus_product_extremal([checker.comb_channel_kraus(a, dims)])
    mid = 0.5 * a + 0.5 * b
    assert not checker.kraus_product_extremal([checker.comb_channel_kraus(mid, dims)])


def test_full_rank_comb_is_full_rank():
    dims = (2, 3, 3, 2)
    c = inputs.full_rank_comb(dims, rng(4))
    assert checker.support_rank(c) == math.prod(dims)


def test_broken_objects_rejected():
    dims = (2, 2, 2, 2)
    comb = inputs.minimal_comb(dims, rng(5))
    checker.check_valid((comb,), dims)
    cascade_broken = comb.copy()
    cascade_broken[0, 0] += 0.01
    with pytest.raises(CheckError, match="cascade"):
        checker.check_valid((cascade_broken,), dims)
    # Same normalization, one negative eigenvalue.
    v = np.linalg.eigh(comb)[1][:, 0]
    negative = comb - 0.1 * np.outer(v, v.conj())
    with pytest.raises(CheckError, match="eigenvalue"):
        checker.check_valid((negative, 0.1 * np.outer(v, v.conj())), dims)
    with pytest.raises(CheckError, match="Hermitian"):
        checker.check_valid((comb + 1e-3j * np.eye(16)[::-1],), dims)


@pytest.mark.parametrize("dims,count", [((2, 2), 12), ((2, 2, 2, 2), 204), ((2, 3, 3, 2), 1004), ((1, 2, 2, 1), 3)])
def test_variable_count(dims, count):
    assert checker.variable_count(dims) == count


def _certificate(dims, outs, verdict, **extra):
    ranks = [checker.support_rank(t) for t in outs]
    v = checker.variable_count(dims)
    cert = {
        "verdict": verdict,
        "family_size": sum(r * r for r in ranks) + v,
        "support_ranks": ranks,
        "normalization_basis_size": v,
    }
    cert.update(extra)
    return cert


def test_counting_rule_rejects_extremal_claim():
    dims = (2, 2)
    objs = {name: outs for name, outs, _, _ in inputs.ladder_objects(dims, seed=0)}
    outs = objs["full-rank-gqi-0"]
    with pytest.raises(CheckError, match="D\\^2"):
        checker.check_certificate(outs, dims, _certificate(dims, outs, "extremal"), None)
    bad = _certificate(dims, outs, "not_extremal")
    bad["family_size"] += 1
    with pytest.raises(CheckError, match="family size"):
        checker.check_certificate(outs, dims, bad, None)


def test_expected_verdict_enforced():
    dims = (2, 2)
    comb = inputs.minimal_comb(dims, rng(6))
    checker.check_certificate((comb,), dims, _certificate(dims, (comb,), "extremal"), "extremal")
    with pytest.raises(CheckError):
        checker.check_certificate((comb,), dims, _certificate(dims, (comb,), "not_extremal"), "extremal")


def test_witness_soundness():
    dims = (2, 2, 2, 2)
    a = inputs.minimal_comb(dims, rng(7))
    b = inputs.minimal_comb(dims, rng(8))
    mid = 0.5 * a + 0.5 * b
    direction = 0.5 * (a - b)
    checker.check_witness((mid,), dims, (direction,), 1.0)
    with pytest.raises(CheckError):
        checker.check_witness((mid,), dims, (direction,), 3.0)  # leaves the cone
    with pytest.raises(CheckError, match="coincide"):
        checker.check_witness((mid,), dims, (0.0 * direction,), 1.0)
    with pytest.raises(CheckError, match="cascade"):
        checker.check_witness((mid,), dims, (np.eye(16) * 1e-3,), 1.0)  # breaks normalization


def test_appendix_table_from_own_criteria():
    for k, expected in inputs.APPENDIX_TABLE.items():
        ops, (d_out, d_in) = inputs.combination_choi(k)
        checker.check_valid(ops, (d_in, d_out), f"row {k}")
        assert checker.appendix_signs(ops, d_out, d_in) == expected, k


def _tree(root, leaves, weights, status=None):
    entries = [
        {"file": f"leaf_{i:03d}.json", "weight": w, "depth": 1, "status": status}
        for i, w in enumerate(weights)
    ]
    return {"leaves": entries}, [("instrument", [2, 2], outs) for outs in leaves]


def test_tree_check():
    dims = (2, 2)
    a = inputs.random_instrument(2, (1, 1), rng(9))
    b = inputs.random_instrument(2, (1, 1), rng(10))
    root = tuple(0.5 * x + 0.5 * y for x, y in zip(a, b))
    summary, leaves = _tree(root, [a, b], [0.5, 0.5])
    assert checker.check_tree(root, dims, "instrument", summary, leaves) == 3
    summary, leaves = _tree(root, [a, b], [0.5, 0.5], status="extremal")
    checker.check_tree(root, dims, "instrument", summary, leaves)  # both leaves are extremal
    summary, leaves = _tree(root, [a, b], [0.6, 0.5])
    with pytest.raises(CheckError, match="weights"):
        checker.check_tree(root, dims, "instrument", summary, leaves)
    summary, leaves = _tree(root, [a, a], [0.5, 0.5])
    with pytest.raises(CheckError, match="reconstruction"):
        checker.check_tree(root, dims, "instrument", summary, leaves)
    summary, leaves = _tree(root, [root, root], [0.5, 0.5], status="extremal")
    with pytest.raises(CheckError, match="Kraus-product"):
        checker.check_tree(root, dims, "instrument", summary, leaves)


def test_suite_check():
    ok = {"suite": "equivalence", "total": 40, "failures": 0, "ok": True, "details": []}
    assert checker.check_suite("equivalence", 10, ok) == 40
    with pytest.raises(CheckError, match="total"):
        checker.check_suite("equivalence", 11, ok)
    failing = dict(ok, failures=1, ok=False, details=["seed 3"])
    with pytest.raises(CheckError, match="failures"):
        checker.check_suite("equivalence", 10, failing)
    bounds = {"suite": "bounds", "total": 57, "failures": 0, "ok": True, "details": []}
    assert checker.check_suite("bounds", 40, bounds) == 57


def test_operator_file_round_trip(tmp_path):
    outs = inputs.random_instrument(3, (1, 1), rng(11))
    path = tmp_path / "obj.json"
    inputs.write_operator_file(path, "instrument", [3, 3], outs, {"note": 1})
    kind, sig, back, meta = inputs.read_operator_file(path)
    assert (kind, sig, meta) == ("instrument", [3, 3], {"note": 1})
    for x, y in zip(outs, back):
        assert np.array_equal(x, y)


def test_seed_determines_inputs():
    a = inputs.tree_inputs(5)
    b = inputs.tree_inputs(5)
    c = inputs.tree_inputs(6)
    assert all(np.array_equal(x, y) for ta, tb in zip(a, b) for x, y in zip(ta[3], tb[3]))
    assert not np.array_equal(a[-1][3][0], c[-1][3][0])


def test_aggregate_self_time():
    spans = [
        ["a", 0.0, 10.0, -1, "op", 0],
        ["b", 1.0, 4.0, 0, "op", 5],
        ["c", 2.0, 3.0, 1, "op", 0],
        ["b", 5.0, 6.0, 0, "op", 7],
    ]
    agg = tracer.aggregate([spans])
    assert agg["a"]["self"] == pytest.approx(6.0)
    assert agg["b"]["self"] == pytest.approx(3.0)
    assert agg["b"]["calls"] == 2 and agg["b"]["extra"] == 12 and agg["b"]["extra_max"] == 7
    assert agg["c"]["self"] == pytest.approx(1.0)
