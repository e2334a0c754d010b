"""The ``exqip`` console script, each command in a fresh process.

``populations.run_exqip`` runs the console script on PATH when there is one, as
after ``pip install .``, and ``python -m exqip.cli`` otherwise, on the exqip
these tests import.  Against the golden fixtures it prints what
``cli.main`` prints in-process (``tests/test_kinds.py``,
``tests/test_decompose_frontier.py``).  Each certificate's witness, and each
default suite report, is checked by the benchmark's independent checker
(``perfbench/checker.py``), which imports no exqip.
"""

import json

import pytest

from populations import (
    BENCH,
    EXPECTED,
    GOLDEN_TREES,
    assert_golden_tree,
    assert_matches_golden,
    fixture_path,
    golden_tree_argv,
    perfbench_module,
    run_exqip,
)

CHECKER = perfbench_module("checker")

# The totals of `exqip suite NAME` at the default 200 seeds: four channels
# and one tester per seed, the seven appendix rows, and for bounds the
# objects found extremal, the population acceptance gate 06 checks.
SUITE_TOTALS = {"equivalence": 800, "xi-invariance": 200, "bounds": 435, "appendix-c": 7}


def test_seven_golden_fixtures_are_not_extremal():
    """So seven witnesses reach the checker below."""
    assert sum(e["extremal"]["stdout"]["verdict"] == "not_extremal" for e in EXPECTED.values()) == 7


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_fixtures(name, tmp_path):
    """`validate` and `extremal --certificate` print the recorded JSON; the
    certificate holds the printed verdict and epsilon*, and a not-extremal
    witness T +/- epsilon* D passes the checker."""
    path = fixture_path(name)
    done = run_exqip("validate", path)
    assert done.stderr == ""
    assert_matches_golden(name, "validate", done.returncode, done.stdout)
    saved = tmp_path / "certificate.json"
    done = run_exqip("extremal", path, "--certificate", str(saved))
    assert done.stderr == ""
    assert_matches_golden(name, "extremal", done.returncode, done.stdout)
    report, cert = json.loads(done.stdout), json.loads(saved.read_text(encoding="utf-8"))
    assert cert["verdict"] == report["verdict"]
    if cert["verdict"] == "not_extremal":
        kind, signature, outcomes, _ = BENCH.read_operator_file(path)
        pert = cert["perturbation"]
        assert pert["epsilon_star"] == report["epsilon_star"]
        directions = [BENCH.json_to_matrix(d) for d in pert["directions"]]
        CHECKER.check_witness(outcomes, CHECKER.comb_dims(kind, signature), directions, pert["epsilon_star"], name)


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_golden_trees(name, tmp_path):
    out_dir = tmp_path / "tree"
    done = run_exqip(*golden_tree_argv(name, out_dir))
    assert_golden_tree(name, done.returncode, done.stdout, done.stderr, out_dir)


@pytest.mark.parametrize("name", sorted(SUITE_TOTALS))
def test_default_suites(name):
    done = run_exqip("suite", name)
    assert (done.returncode, done.stderr) == (0, "")
    assert CHECKER.check_suite(name, 200, json.loads(done.stdout)) == SUITE_TOTALS[name]


def test_exit_code_and_error_line(tmp_path):
    """The process exits with the code of ``cli.main`` and prints its one
    error line: 1 for an extremal input to `decompose`, which makes no
    --out directory, and 2 for an EXQIP_TOL outside (0, 1)."""
    out_dir = tmp_path / "tree"
    done = run_exqip("decompose", fixture_path("pure-normalization-tester"), "--out", str(out_dir))
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "input is extremal; nothing to decompose\n")
    assert not out_dir.exists()
    done = run_exqip("validate", fixture_path("channel"), EXQIP_TOL="nan")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: tolerance must lie in (0, 1), got nan\n")
