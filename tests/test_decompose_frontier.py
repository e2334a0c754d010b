"""The decomposition tree one depth at a time, against the former recursion.

``gqi.decompose`` decides each depth's undecided nodes with one
``gqi.decide_all`` and returns the leaves in depth-first order;
``commands.cmd_decompose`` writes them.  ``oracles.recursive_decompose`` is the
former command, which descended the tree depth first with one
``gqi.is_extremal`` per node.  Through ``cli.main`` their leaf files,
summaries, output and exit codes must match byte for byte, and in-process
``gqi.decompose`` must return what the recursion writes.

Also here: the CLI parser, built once per process and reused.
"""

import json
import os
import re

import numpy as np
import pytest

import oracles
from exqip import channels, cli, combs, commands, fileio, gqi
from exqip.errors import ExqipError, ExtremalInputError, SizeLimitError
from exqip.gqi import Povm
from exqip.linalg import TolerancePolicy
from populations import (
    GOLDEN_NAMES,
    GOLDEN_TREES,
    TREE_NAMES,
    assert_golden_tree,
    bench_tree,
    fixture_path,
    golden,
    golden_tree_argv,
    run_cli,
    tree_files,
)

GOLDEN = [fixture_path(name) for name in GOLDEN_NAMES]
# The golden fixture whose root is extremal.
EXTREMAL_ROOT = "pure-normalization-tester"


def both(path, steps, tmp_path, monkeypatch, tol=None):
    """The (exit code, stdout, stderr, files) of decomposing ``path`` with
    the frontier loop and with the former recursion."""
    head = [] if tol is None else ["--tol", str(tol)]
    results = []
    for side in ("frontier", "recursion"):
        if side == "recursion":
            monkeypatch.setattr(commands, "cmd_decompose", oracles.recursive_decompose)
        out_dir = str(tmp_path / side)
        result = run_cli(head + ["decompose", str(path), "--steps", str(steps), "--out", out_dir])
        results.append((*result, tree_files(out_dir)))
    monkeypatch.undo()
    return results


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_trees_match_the_golden_trees(name, tmp_path):
    out_dir = tmp_path / "tree"
    assert_golden_tree(name, *run_cli(golden_tree_argv(name, out_dir)), out_dir)


class TestAgainstTheRecursion:
    @pytest.mark.parametrize("path", GOLDEN, ids=os.path.basename)
    def test_golden_fixtures(self, path, tmp_path, monkeypatch):
        frontier, recursion = both(path, 4, tmp_path, monkeypatch)
        assert frontier == recursion

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", TREE_NAMES)
    def test_bench_trees(self, name, seed, tmp_path, monkeypatch):
        path, depth = bench_tree(seed, name, tmp_path)
        frontier, recursion = both(path, depth, tmp_path, monkeypatch)
        assert frontier[0] == 0 and len(frontier[3]) > 2
        assert frontier == recursion

    def test_invalid_node_keeps_its_error(self, tmp_path, monkeypatch):
        """At --tol 0.06 the identity channel is not extremal, and a node
        below it fails validation.  The error is is_extremal's own, without
        decide_all's member index, and exits 1 with no leaf written."""
        path = tmp_path / "identity.json"
        fileio.save_object(path, channels.combination_fixture(1))
        frontier, recursion = both(path, 3, tmp_path, monkeypatch, tol=0.06)
        assert frontier == recursion
        code, out, err, files = frontier
        assert (code, out, files) == (1, "", {})
        found = re.fullmatch(r"error: invalid GQI: outcome min eigenvalues \((.*),\), cascade residuals \((.*),\)\n", err)
        assert found is not None, err
        assert float(found[1]) == 0.0
        assert float(found[2]) == pytest.approx(1.06, abs=1e-12)


def paths_of(depths) -> list:
    """The tree paths of leaves in depth-first order, from their depths: in
    a tree where every split has two children, each leaf's path is the one
    after its predecessor's, extended by plus sides to its depth."""
    paths = []
    for depth in depths:
        path = ()
        if paths:
            path = paths[-1]
            while path[-1] == 1:
                path = path[:-1]
            path = path[:-1] + (1,)
        paths.append(path + (0,) * (depth - len(path)))
    return paths


def test_paths_of():
    assert paths_of([0]) == [()]
    assert paths_of([1, 2, 2]) == [(0,), (1, 0), (1, 1)]
    assert paths_of([3, 3, 2, 1]) == [(0, 0, 0), (0, 0, 1), (0, 1), (1,)]


def recursion(path, steps, tmp_path, monkeypatch) -> tuple:
    """The summary and the leaves, read back, that
    ``oracles.recursive_decompose`` writes for ``path``."""
    monkeypatch.setattr(commands, "cmd_decompose", oracles.recursive_decompose)
    out_dir = tmp_path / "recursion"
    code, out, err = run_cli(["decompose", str(path), "--steps", str(steps), "--out", str(out_dir)])
    monkeypatch.undo()
    assert (code, err) == (0, "")
    summary = json.loads(out)
    return summary, [fileio.load_object(out_dir / e["file"]) for e in summary["leaves"]]


class TestLibraryTree:
    """``gqi.decompose`` in-process: the leaves and residual the recursion
    writes, every outcome the same to the bit after its file is read back."""

    def assert_is_the_recursions(self, path, steps, tmp_path, monkeypatch):
        summary, written = recursion(path, steps, tmp_path, monkeypatch)
        root = fileio.load_object(path)
        leaves, residual = gqi.decompose(root, steps)
        entries = summary["leaves"]
        assert [p for p, *_ in leaves] == paths_of([e["depth"] for e in entries])
        assert [(w, status) for _, _, w, status in leaves] == [(e["weight"], e["status"]) for e in entries]
        assert residual == summary["reconstruction_residual"]
        for (_, node, _, _), want in zip(leaves, written):
            assert type(node) is type(root) is type(want) and node.signature == want.signature
            assert [t.tobytes() for t in node.outcomes] == [t.tobytes() for t in want.outcomes]

    @pytest.mark.parametrize("path", [p for p in GOLDEN if p != fixture_path(EXTREMAL_ROOT)], ids=os.path.basename)
    def test_golden_fixtures(self, path, tmp_path, monkeypatch):
        self.assert_is_the_recursions(path, 4, tmp_path, monkeypatch)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", TREE_NAMES)
    def test_bench_trees(self, name, seed, tmp_path, monkeypatch):
        path, depth = bench_tree(seed, name, tmp_path)
        self.assert_is_the_recursions(path, depth, tmp_path, monkeypatch)

    def test_extremal_root_raises(self):
        root = golden(EXTREMAL_ROOT)
        with pytest.raises(ExtremalInputError):
            gqi.decompose(root, 4)

    def test_zero_steps_leave_the_root(self):
        root = fileio.load_object(GOLDEN[0])
        assert gqi.decompose(root, 0) == ([((), root, 1.0, None)], 0.0)

    def test_depth_past_the_tree_returns_at_once(self):
        """The tree of appendix row 6 ends at depth 2, so a depth of 2^62
        stops there, with the leaves and residual of a depth of 10."""
        root = channels.combination_fixture(6)
        leaves, residual = gqi.decompose(root, 2**62)
        want, want_residual = gqi.decompose(root, 10)
        assert max(len(path) for path, *_ in leaves) == 2 and residual == want_residual
        assert [(p, w, s) for p, _, w, s in leaves] == [(p, w, s) for p, _, w, s in want]
        for (_, node, _, _), (_, other, _, _) in zip(leaves, want, strict=True):
            assert [t.tobytes() for t in node.outcomes] == [t.tobytes() for t in other.outcomes]

    def test_invalid_node_raises_its_own_error(self, tmp_path):
        """The node error of the identity channel at --tol 0.06 is
        is_extremal's own, with no member index: the one the CLI prints."""
        identity = channels.combination_fixture(1)
        with pytest.raises(ExqipError) as info:
            gqi.decompose(identity, 3, TolerancePolicy(eps_rel=0.06))
        assert str(info.value).startswith("invalid GQI: ")
        path = tmp_path / "identity.json"
        fileio.save_object(path, identity)
        code, _, err = run_cli(["--tol", "0.06", "decompose", str(path), "--steps", "3", "--out", str(tmp_path / "t")])
        assert (code, err) == (1, f"error: {info.value}\n")


class TestDecisions:
    def test_one_decide_all_per_depth(self, tmp_path, record):
        """The root is decided by is_extremal; every depth below --steps
        that holds a node by one decide_all of all its nodes."""
        path, steps = bench_tree(1, "combination-8", tmp_path)
        single, many = record(gqi, "is_extremal"), record(gqi, "decide_all")
        code, _, _ = run_cli(["decompose", path, "--steps", str(steps), "--out", str(tmp_path / "t")])
        assert code == 0
        with open(tmp_path / "t" / "summary.json", encoding="utf-8") as fh:
            leaves = json.load(fh)["leaves"]
        deepest = max(e["depth"] for e in leaves)
        # Each node at depth d carries weight 2^-d, so depth d holds
        # 2^d times the weight of the leaves at depth d or below.
        nodes = [round(2**d * sum(e["weight"] for e in leaves if e["depth"] >= d)) for d in range(1, steps)]
        population = [len(call.result) for call in many]
        assert len(single) == 1
        assert len(population) == min(steps - 1, deepest) == 7
        assert population == nodes[: len(population)]

    def test_small_budget_decides_in_passes(self, tmp_path, monkeypatch, record):
        """A depth whose stacked rank stages exceed RANK_STAGE_BUDGET is
        decided in several stacks, and the tree does not change.  The budget
        is the tree's largest rank stage, which also holds its nodes; a
        budget that cut the validation stacks would refuse the tree (see
        test_tree_above_the_budget_is_refused)."""
        path, steps = bench_tree(1, "midpoint-tester", tmp_path)
        calls = record(gqi, "_decide_stack")
        passes, results = {}, {}
        for side in ("whole", "cut"):
            if side == "cut":
                # A call's arguments are the stack, its verdicts and the policy.
                plans = [gqi._plan(c.args[0][0].signature, c.args[1][0].support_ranks, c.args[2]) for c in calls]
                monkeypatch.setattr(combs, "RANK_STAGE_BUDGET", max(p.stage_bytes or 0 for p in plans))
            calls.clear()
            out_dir = str(tmp_path / side)
            results[side] = (*run_cli(["decompose", path, "--steps", str(steps), "--out", out_dir]), tree_files(out_dir))
            passes[side] = [len(c.args[0]) for c in calls]
        assert max(passes["whole"]) > 1
        assert len(passes["cut"]) > len(passes["whole"]) and sum(passes["cut"]) == sum(passes["whole"])
        assert results["cut"] == results["whole"]

    def test_tree_above_the_budget_is_refused(self, tmp_path, monkeypatch, record):
        """Before a depth is decided, the nodes the tree then holds (the
        leaves so far, the frontier and its children) are estimated at twice
        their outcome bytes each; above RANK_STAGE_BUDGET the library call
        raises SizeLimitError, and `exqip decompose` exits 2 and writes no
        leaf.  At the estimate itself the tree is built."""
        path, steps = bench_tree(1, "midpoint-instrument-d2", tmp_path)
        root = fileio.load_object(path)
        decided = record(gqi, "decide_all")
        leaves, _ = gqi.decompose(root, steps)
        # The last depth decided holds the most: its leaves above it, its
        # frontier and the frontier's children.
        depth, node_bytes = len(decided), 2 * sum(t.nbytes for t in root.outcomes)
        held = (sum(len(p) < depth for p, *_ in leaves) + 3 * len(decided[-1].args[0])) * node_bytes
        monkeypatch.setattr(combs, "RANK_STAGE_BUDGET", held)
        assert [p for p, *_ in gqi.decompose(root, steps)[0]] == [p for p, *_ in leaves]
        monkeypatch.setattr(combs, "RANK_STAGE_BUDGET", held - 1)
        message = (
            f"the decomposition tree at depth {depth} holds about {held:,} bytes, "
            f"above the budget of {held - 1:,} bytes"
        )
        with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
            gqi.decompose(root, steps)
        out_dir = tmp_path / "tree"
        assert run_cli(["decompose", path, "--steps", str(steps), "--out", out_dir]) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()


def test_parser_is_built_once(tmp_path):
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
        firsts.append(run_cli(argv))
    cli.build_parser.cache_clear()
    assert [run_cli(argv) for argv in calls] == firsts
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in firsts] == [1, 1, 0]
