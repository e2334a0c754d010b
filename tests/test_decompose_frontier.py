"""The decomposition tree one depth at a time, against the former recursion.

``gqi.decompose`` decides each depth's undecided nodes with one
``gqi.decide_all`` and returns the leaves in depth-first order;
``cli.cmd_decompose`` writes them.  ``oracles.recursive_decompose`` is the
former command, which descended the tree depth first with one
``gqi.is_extremal`` per node.  Through ``cli.main`` their leaf files,
summaries, output and exit codes must match byte for byte, and in-process
``gqi.decompose`` must return what the recursion writes.

Also here: the CLI parser, built once per process and reused.
"""

import glob
import hashlib
import json
import os
import re

import numpy as np
import pytest

import oracles
from exqip import channels, cli, fileio, gqi
from exqip.errors import ExqipError, ExtremalInputError
from exqip.gqi import Povm
from exqip.linalg import TolerancePolicy

from test_epsilon_star import BENCH

GOLDEN = sorted(
    p for p in glob.glob(os.path.join(os.path.dirname(__file__), "golden_cli", "*.json"))
    if not p.endswith("expected.json")
)
# The golden fixture whose root is extremal.
EXTREMAL_ROOT = "pure-normalization-tester.json"


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


with open(os.path.join(os.path.dirname(__file__), "golden_decompose.json"), encoding="utf-8") as _fh:
    # `exqip decompose FIXTURE --steps 4` on the not-extremal golden fixtures:
    # the summary and the SHA-256 of each leaf file.  The mixed tester on a
    # rank-deficient rho is left out: its null space has dimension 4, so the
    # LAPACK build picks its witness (tests/test_kinds.py).
    GOLDEN_TREES = json.load(_fh)


def golden_tree_argv(name, out_dir) -> list:
    path = os.path.join(os.path.dirname(__file__), "golden_cli", f"{name}.json")
    return ["decompose", path, "--steps", "4", "--out", str(out_dir)]


def assert_golden_tree(name, code, out, err, out_dir):
    """The tree of ``golden_tree_argv(name, out_dir)``, its summary, stdout
    and every leaf, is the recorded one to the byte."""
    assert (code, err) == (0, "")
    want = GOLDEN_TREES[name]
    assert json.loads(out) == want["summary"]
    files = tree_files(out_dir)
    assert files.pop("summary.json").decode() == out
    assert {leaf: hashlib.sha256(data).hexdigest() for leaf, data in files.items()} == want["leaf_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_trees_match_the_golden_trees(name, tmp_path, capsys):
    out_dir = tmp_path / "tree"
    assert_golden_tree(name, *run(golden_tree_argv(name, out_dir), capsys), out_dir)


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


def recursion(path, steps, tmp_path, monkeypatch, capsys) -> tuple:
    """The summary and the leaves, read back, that
    ``oracles.recursive_decompose`` writes for ``path``."""
    monkeypatch.setattr(cli, "cmd_decompose", oracles.recursive_decompose)
    out_dir = tmp_path / "recursion"
    code, out, err = run(["decompose", str(path), "--steps", str(steps), "--out", str(out_dir)], capsys)
    monkeypatch.undo()
    assert (code, err) == (0, "")
    summary = json.loads(out)
    return summary, [fileio.load_object(out_dir / e["file"]) for e in summary["leaves"]]


class TestLibraryTree:
    """``gqi.decompose`` in-process: the leaves and residual the recursion
    writes, every outcome the same to the bit after its file is read back."""

    def assert_is_the_recursions(self, path, steps, tmp_path, monkeypatch, capsys):
        summary, written = recursion(path, steps, tmp_path, monkeypatch, capsys)
        root = fileio.load_object(path)
        leaves, residual = gqi.decompose(root, steps)
        entries = summary["leaves"]
        assert [p for p, *_ in leaves] == paths_of([e["depth"] for e in entries])
        assert [(w, status) for _, _, w, status in leaves] == [(e["weight"], e["status"]) for e in entries]
        assert residual == summary["reconstruction_residual"]
        for (_, node, _, _), want in zip(leaves, written):
            assert type(node) is type(root) is type(want) and node.signature == want.signature
            assert [t.tobytes() for t in node.outcomes] == [t.tobytes() for t in want.outcomes]

    @pytest.mark.parametrize("path", [p for p in GOLDEN if not p.endswith(EXTREMAL_ROOT)], ids=os.path.basename)
    def test_golden_fixtures(self, path, tmp_path, monkeypatch, capsys):
        self.assert_is_the_recursions(path, 4, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", TREE_NAMES)
    def test_bench_trees(self, name, seed, tmp_path, monkeypatch, capsys):
        path, depth = bench_tree(seed, name, tmp_path)
        self.assert_is_the_recursions(path, depth, tmp_path, monkeypatch, capsys)

    def test_extremal_root_raises(self):
        root = fileio.load_object(os.path.join(os.path.dirname(__file__), "golden_cli", EXTREMAL_ROOT))
        with pytest.raises(ExtremalInputError):
            gqi.decompose(root, 4)

    def test_zero_steps_leave_the_root(self):
        root = fileio.load_object(GOLDEN[0])
        assert gqi.decompose(root, 0) == ([((), root, 1.0, None)], 0.0)

    def test_invalid_node_raises_its_own_error(self, tmp_path, capsys):
        """The node error of the identity channel at --tol 0.06 is
        is_extremal's own, with no member index: the one the CLI prints."""
        identity = channels.combination_fixture(1)
        with pytest.raises(ExqipError) as info:
            gqi.decompose(identity, 3, TolerancePolicy(eps_rel=0.06))
        assert str(info.value).startswith("invalid GQI: ")
        path = tmp_path / "identity.json"
        fileio.save_object(path, identity)
        code, _, err = run(["--tol", "0.06", "decompose", str(path), "--steps", "3", "--out", str(tmp_path / "t")], capsys)
        assert (code, err) == (1, f"error: {info.value}\n")


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
