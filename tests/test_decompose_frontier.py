"""`exqip decompose` one depth at a time, against the former recursion.

``cli.cmd_decompose`` decides each depth's undecided nodes with one
``gqi.decide_all`` and writes the leaves in depth-first order.
``oracles.recursive_decompose`` is the former command, which descended the
tree depth first with one ``gqi.is_extremal`` per node.  Both run through
``cli.main``; their leaf files, summaries, output and exit codes must match
byte for byte.

Also here: the CLI parser, built once per process and reused.
"""

import glob
import json
import os
import re

import numpy as np
import pytest

import oracles
from exqip import channels, cli, fileio, gqi
from exqip.gqi import Povm

from test_epsilon_star import BENCH

GOLDEN = sorted(
    p for p in glob.glob(os.path.join(os.path.dirname(__file__), "golden_cli", "*.json"))
    if not p.endswith("expected.json")
)


def run(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def tree_files(out_dir) -> dict:
    if not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def both(path, steps, tmp_path, monkeypatch, capsys, tol=None):
    """The (exit code, stdout, stderr, files) of decomposing ``path`` with
    the frontier loop and with the former recursion."""
    head = [] if tol is None else ["--tol", str(tol)]
    results = []
    for side in ("frontier", "recursion"):
        if side == "recursion":
            monkeypatch.setattr(cli, "cmd_decompose", oracles.recursive_decompose)
        out_dir = str(tmp_path / side)
        result = run(head + ["decompose", str(path), "--steps", str(steps), "--out", out_dir], capsys)
        results.append((*result, tree_files(out_dir)))
    monkeypatch.undo()
    return results


def bench_tree(seed, name, tmp_path):
    """The path and depth of the benchmark's ``trees`` input ``name``."""
    for tree, kind, signature, ops, depth in BENCH.tree_inputs(seed):
        if tree == name:
            path = str(tmp_path / f"{name}.json")
            BENCH.write_operator_file(path, kind, signature, ops)
            return path, depth
    raise KeyError(name)


TREE_NAMES = [name for name, *_ in BENCH.tree_inputs(1)]


class TestAgainstTheRecursion:
    @pytest.mark.parametrize("path", GOLDEN, ids=os.path.basename)
    def test_golden_fixtures(self, path, tmp_path, monkeypatch, capsys):
        frontier, recursion = both(path, 4, tmp_path, monkeypatch, capsys)
        assert frontier == recursion

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", TREE_NAMES)
    def test_bench_trees(self, name, seed, tmp_path, monkeypatch, capsys):
        path, depth = bench_tree(seed, name, tmp_path)
        frontier, recursion = both(path, depth, tmp_path, monkeypatch, capsys)
        assert frontier[0] == 0 and len(frontier[3]) > 2
        assert frontier == recursion

    def test_invalid_node_keeps_its_error(self, tmp_path, monkeypatch, capsys):
        """At --tol 0.06 the identity channel is not extremal, and a node
        below it fails validation.  The error is is_extremal's own, without
        decide_all's member index, and exits 1 with no leaf written."""
        path = tmp_path / "identity.json"
        fileio.save_object(path, channels.combination_fixture(1))
        frontier, recursion = both(path, 3, tmp_path, monkeypatch, capsys, tol=0.06)
        assert frontier == recursion
        code, out, err, files = frontier
        assert (code, out, files) == (1, "", {})
        found = re.fullmatch(r"error: invalid GQI: outcome min eigenvalues \((.*),\), cascade residuals \((.*),\)\n", err)
        assert found is not None, err
        assert float(found[1]) == 0.0
        assert float(found[2]) == pytest.approx(1.06, abs=1e-12)


class TestDecisions:
    def test_one_decide_all_per_depth(self, tmp_path, monkeypatch, capsys):
        """The root is decided by is_extremal; every depth below --steps
        that holds a node by one decide_all of all its nodes."""
        path, steps = bench_tree(1, "combination-8", tmp_path)
        single, population = [], []
        is_extremal, decide_all = gqi.is_extremal, gqi.decide_all

        def one(g, *args, **kwargs):
            single.append(g)
            return is_extremal(g, *args, **kwargs)

        def many(objects, *args, **kwargs):
            objects = list(objects)
            population.append(len(objects))
            return decide_all(objects, *args, **kwargs)

        monkeypatch.setattr(gqi, "is_extremal", one)
        monkeypatch.setattr(gqi, "decide_all", many)
        code, _, _ = run(["decompose", path, "--steps", str(steps), "--out", str(tmp_path / "t")], capsys)
        assert code == 0
        with open(tmp_path / "t" / "summary.json", encoding="utf-8") as fh:
            leaves = json.load(fh)["leaves"]
        deepest = max(e["depth"] for e in leaves)
        # Each node at depth d carries weight 2^-d, so depth d holds
        # 2^d times the weight of the leaves at depth d or below.
        nodes = [round(2**d * sum(e["weight"] for e in leaves if e["depth"] >= d)) for d in range(1, steps)]
        assert len(single) == 1
        assert len(population) == min(steps - 1, deepest) == 7
        assert population == nodes[: len(population)]

    def test_small_budget_decides_in_passes(self, tmp_path, monkeypatch, capsys):
        """A frontier whose stacked outcomes exceed RANK_STAGE_BUDGET is
        validated in several stacks, and the tree does not change."""
        path, steps = bench_tree(1, "midpoint-instrument-d2", tmp_path)
        node_bytes = sum(t.nbytes for t in fileio.load_object(path).outcomes)
        validate_stack = gqi._validate_stack
        passes = {"whole": [], "cut": []}
        results = {}
        for side in ("whole", "cut"):
            if side == "cut":
                # 16 nodes a stack; the rank stages of this tree need 7 896 bytes.
                monkeypatch.setattr(gqi, "RANK_STAGE_BUDGET", 16 * node_bytes)

            def counted(gs, *args, side=side):
                passes[side].append(len(gs))
                return validate_stack(gs, *args)

            monkeypatch.setattr(gqi, "_validate_stack", counted)
            out_dir = str(tmp_path / side)
            results[side] = (*run(["decompose", path, "--steps", str(steps), "--out", out_dir], capsys), tree_files(out_dir))
        assert max(passes["whole"]) > 16 and max(passes["cut"]) == 16
        assert len(passes["cut"]) > len(passes["whole"]) and sum(passes["cut"]) == sum(passes["whole"])
        assert results["cut"] == results["whole"]


def test_parser_is_built_once(tmp_path, capsys):
    """main reuses one parser; every call's output is that of the same call
    made first in the process."""
    # A POVM with eigenvalues -1e-9: not PSD at the default tolerance,
    # valid at 1e-6.
    path = str(tmp_path / "povm.json")
    fileio.save_object(path, Povm(2, (np.diag([1 + 1e-9, -1e-9]), np.diag([-1e-9, 1 + 1e-9]))))
    calls = [["validate", path], ["extremal", path], ["--tol", "1e-6", "validate", path]]
    firsts = []
    for argv in calls:
        cli.build_parser.cache_clear()
        firsts.append(run(argv, capsys))
    cli.build_parser.cache_clear()
    assert [run(argv, capsys) for argv in calls] == firsts
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in firsts] == [1, 1, 0]
