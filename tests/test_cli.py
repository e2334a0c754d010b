"""Tests for the file formats and the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import exqip
from exqip import channels, cli, fileio, gqi, linalg, suites, testers
from exqip.channels import Channel, Instrument
from exqip.combs import CombSignature, DeterministicComb, central_comb
from exqip.errors import FileFormatError
from exqip.gqi import Gqi
from exqip.testers import Povm, Tester


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli")


def bell_tester():
    return testers.schmidt_tester(math.pi / 4)


SAMPLE_OBJECTS = [
    central_comb(CombSignature((2, 2, 2, 2))),
    Gqi(
        signature=CombSignature((2, 2)),
        outcomes=(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex) / 4.0),
    ),
    bell_tester(),
    Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0),
    Instrument(
        d1=2,
        d0=2,
        operators=(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex) / 4.0),
    ),
    Povm(d=2, effects=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))),
]


# Every golden fixture, and a product tester written here.
CERTIFICATE_INPUTS = sorted(n[: -len(".json")] for n in os.listdir(GOLDEN) if n != "expected.json") + ["product-tester"]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


# Edits that make the certificate of a non-extremal verdict malformed.
MALFORMED_CERTIFICATES = {
    "list": lambda p: [p],
    "no-verdict": lambda p: _without(p, "verdict"),
    "bad-verdict": lambda p: {**p, "verdict": "maybe"},
    "no-perturbation": lambda p: {**p, "perturbation": None},
    "no-directions": lambda p: {**p, "perturbation": _without(p["perturbation"], "directions")},
    "bad-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": "x"}},
    "bad-family-size": lambda p: {**p, "family_size": "x"},
    "fractional-family-size": lambda p: {**p, "family_size": 12.7},
    "bad-support-ranks": lambda p: {**p, "support_ranks": 3},
    "boolean-support-rank": lambda p: {**p, "support_ranks": [True, 4]},
}


class TestFileio:
    @pytest.mark.parametrize("obj", SAMPLE_OBJECTS, ids=lambda o: fileio.kind_of(o).name)
    def test_round_trip_byte_identical(self, obj, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, obj, metadata={"note": "sample"})
        first = path.read_bytes()
        loaded = fileio.load_object(path)
        assert fileio.kind_of(loaded) is fileio.kind_of(obj)
        fileio.save_object(path, loaded, metadata={"note": "sample"})
        assert path.read_bytes() == first

    @pytest.mark.parametrize("obj", SAMPLE_OBJECTS, ids=lambda o: fileio.kind_of(o).name)
    def test_round_trip_exact_values(self, obj, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, obj)
        loaded = fileio.load_object(path)
        a = fileio.object_to_payload(obj)
        b = fileio.object_to_payload(loaded)
        assert a == b

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, bell_tester())
        path.write_text(path.read_text()[: 100])
        with pytest.raises(FileFormatError):
            fileio.load_object(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(FileFormatError):
            fileio.load_object(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, bell_tester())
        payload = json.loads(path.read_text())
        payload["outcomes"][0][0][0] = [None, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            fileio.load_object(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, bell_tester())
        payload = json.loads(path.read_text())
        payload["signature"] = [3, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            fileio.load_object(path)

    def test_non_finite_entry_writes_no_file(self, tmp_path):
        """JSON has no NaN: writing one raises before the file is opened."""
        path = tmp_path / "obj.json"
        nan = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            fileio.save_object(path, Gqi(CombSignature((2, 2)), (nan,)))
        assert not path.exists()

    @pytest.mark.parametrize("edit", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES.keys())
    def test_malformed_certificate_rejected(self, edit, tmp_path, capsys):
        path = tmp_path / "cert.json"
        assert cli.main(["extremal", os.path.join(GOLDEN, "gqi.json"), "--certificate", str(path)]) == 0
        capsys.readouterr()
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(FileFormatError):
            fileio.load_certificate(path)

    @pytest.mark.parametrize("name", CERTIFICATE_INPUTS)
    def test_certificate_round_trip(self, name, tmp_path, capsys):
        """``exqip extremal --certificate`` writes the verdict's certificate,
        and it reads back bit for bit; on gqi.json and povm.json that is the
        identity exchange D_b = I, D_a = -I and its closed-form epsilon*."""
        if name == "product-tester":
            path = tmp_path / "tester.json"
            fileio.save_object(path, testers.schmidt_tester(0.0))
        else:
            path = os.path.join(GOLDEN, f"{name}.json")
        cert_path = tmp_path / "cert.json"
        assert cli.main(["extremal", str(path), "--certificate", str(cert_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(cert_path.read_text())["tool_version"] == exqip.__version__ == "0.1.0"
        obj = fileio.load_object(path)
        cert = gqi.is_extremal(Gqi(obj.signature, obj.outcomes))
        loaded = fileio.load_certificate(cert_path)
        fields = ("extremal", "family_size", "rank", "support_ranks", "normalization_basis_size")
        assert [getattr(loaded, f) for f in fields] == [getattr(cert, f) for f in fields]
        if cert.perturbation is None:
            assert loaded.perturbation is None and printed["epsilon_star"] is None
            return
        assert loaded.perturbation.epsilon_star == cert.perturbation.epsilon_star == printed["epsilon_star"]
        assert np.array_equal(loaded.perturbation.delta, cert.perturbation.delta)
        assert len(loaded.perturbation.directions) == len(cert.perturbation.directions)
        for a, b in zip(loaded.perturbation.directions, cert.perturbation.directions):
            assert np.array_equal(a, b)
        if name in ("gqi", "povm"):
            eye = np.eye(obj.signature.total_dim)
            assert [d.tolist() for d in loaded.perturbation.directions] == [(-eye).tolist(), eye.tolist()]
            assert not loaded.perturbation.delta.any()


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_generate_validate_extremal_flow(self, tmp_path, capsys):
        path = str(tmp_path / "bell.json")
        assert self.run("generate", "two-outcome-qubit-tester", "--out", path,
                        "--schmidt-angle", str(math.pi / 4)) == 0
        assert self.run("validate", path) == 0
        cert_path = str(tmp_path / "cert.json")
        assert self.run("extremal", path, "--certificate", cert_path) == 0
        out = capsys.readouterr().out
        assert '"verdict": "extremal"' in out
        assert fileio.load_certificate(cert_path).extremal

    def test_validate_decides_once(self, tmp_path, monkeypatch, capsys):
        """One GQI verdict per report: the outcomes decomposed once as a
        stack, rho extracted once, by the one cascade pass of the comb
        check; the product-form residual is the cascade's first residual."""
        from test_testers import count_calls

        path = tmp_path / "tester.json"
        fileio.save_object(path, testers.schmidt_tester(0.3))
        calls = count_calls(monkeypatch)
        assert self.run("validate", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls["cascade"] == 1
        assert calls["partial_trace"] == 0
        assert calls["check_hermitian_stack"] == 1
        assert calls["eigh"] == [(2, 4, 4)]
        assert calls["eigvalsh"] == [(2, 2)]
        assert report["product_form_residual"] == report["cascade_residuals"][0]

    def test_validate_invalid_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        fileio.save_object(path, Povm(d=2, effects=(np.eye(2), np.eye(2))))
        assert self.run("validate", str(path)) == 1

    def test_missing_file_exits_2(self):
        assert self.run("validate", "/nonexistent/file.json") == 2

    def test_truncated_file_exits_2(self, tmp_path):
        path = tmp_path / "trunc.json"
        fileio.save_object(path, bell_tester())
        path.write_text(path.read_text()[:80])
        assert self.run("validate", str(path)) == 2

    def test_bad_usage_exits_2(self):
        assert self.run("no-such-command") == 2
        assert self.run("generate", "no-such-kind", "--out", "x.json") == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["split-tester"],
            ["split-tester", "--base", "{base}", "--outcome", "5"],
            ["split-tester", "--base", "{base}", "--outcome", "-1"],
            ["random-comb", "--signature", "2,2,2"],
            ["combination", "--k", "9"],
            ["random-comb", "--spread", "2"],
            ["two-outcome-qubit-tester", "--schmidt-angle", "nan"],
            ["two-outcome-qubit-tester", "--schmidt-angle", "inf"],
        ],
    )
    def test_bad_generate_options_exit_2(self, args, tmp_path, capsys):
        base = tmp_path / "base.json"
        fileio.save_object(base, bell_tester())
        args = [a.format(base=base) for a in args]
        assert self.run("generate", *args, "--out", str(tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()
        if "--schmidt-angle" in args:
            assert "--schmidt-angle" in err

    def test_decompose_tree(self, tmp_path, capsys):
        src = str(tmp_path / "prod.json")
        out_dir = str(tmp_path / "tree")
        assert self.run("generate", "two-outcome-qubit-tester", "--out", src,
                        "--schmidt-angle", "0") == 0
        capsys.readouterr()
        assert self.run("decompose", src, "--steps", "2", "--out", out_dir) == 0
        text = (tmp_path / "tree" / "summary.json").read_text()
        assert capsys.readouterr().out == text
        summary = json.loads(text)
        assert summary["total_weight"] == pytest.approx(1.0, abs=1e-12)
        assert summary["reconstruction_residual"] <= 1e-8
        for leaf in summary["leaves"]:
            obj = fileio.load_object(os.path.join(out_dir, leaf["file"]))
            assert testers.is_valid_tester(obj)

    def test_decompose_decides_root_once(self, tmp_path, monkeypatch):
        decided = []
        real = gqi.is_extremal

        def counting(g, *args, **kwargs):
            decided.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(gqi, "is_extremal", counting)
        src = tmp_path / "depolarizing.json"
        fileio.save_object(src, Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0))
        assert self.run("decompose", str(src), "--steps", "1", "--out", str(tmp_path / "t")) == 0
        assert len(decided) == 1  # the root; its two children are depth-limit leaves

    def test_decompose_extremal_exits_1(self, tmp_path):
        src = tmp_path / "bell.json"
        fileio.save_object(src, bell_tester())
        assert self.run("decompose", str(src), "--out", str(tmp_path / "t")) == 1

    def test_generate_combination_and_classify(self, tmp_path, capsys):
        path = str(tmp_path / "fix.json")
        assert self.run("generate", "combination", "--k", "3", "--out", path) == 0
        assert self.run("extremal", path) == 0
        assert '"verdict": "extremal"' in capsys.readouterr().out

    def test_generate_combination_open_problem(self, tmp_path, capsys):
        path = str(tmp_path / "fix.json")
        assert self.run("generate", "combination", "--k", "5", "--out", path) == 1
        assert "open problem" in capsys.readouterr().err

    def test_generate_random_comb(self, tmp_path):
        path = str(tmp_path / "comb.json")
        assert self.run("generate", "random-comb", "--signature", "2,3,3,2",
                        "--spread", "0.4", "--seed", "7", "--out", path) == 0
        assert self.run("validate", path) == 0

    def test_generate_split_tester(self, tmp_path):
        base = str(tmp_path / "bell.json")
        out = str(tmp_path / "split.json")
        fileio.save_object(base, bell_tester())
        assert self.run("generate", "split-tester", "--base", base,
                        "--outcome", "1", "--out", out) == 0
        split = fileio.load_object(out)
        assert split.n_outcomes == 4
        assert self.run("extremal", out) == 0

    def test_suite_command(self, capsys):
        assert self.run("suite", "appendix-c") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["total"] == 7
        assert self.run("suite", "appendix-c", "--seeds", "0") == 0
        assert json.loads(capsys.readouterr().out)["total"] == 7
        assert self.run("suite", "equivalence", "--seeds", "3") == 0

    @pytest.mark.parametrize("seeds", ["-1", "-3"])
    def test_negative_seeds_exit_2(self, seeds, capsys):
        assert self.run("suite", "equivalence", "--seeds", seeds) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --seeds must be a non-negative integer, got {seeds}\n"

    def test_negative_steps_exit_2(self, tmp_path, capsys):
        src = str(tmp_path / "depolarizing.json")
        fileio.save_object(src, Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0))
        out_dir = tmp_path / "tree"
        assert self.run("decompose", src, "--steps", "-2", "--out", str(out_dir)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --steps must be a non-negative integer, got -2\n"
        assert not out_dir.exists()

    def test_zero_steps_leave_the_root_as_the_one_leaf(self, tmp_path, capsys):
        src = str(tmp_path / "depolarizing.json")
        fileio.save_object(src, Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0))
        assert self.run("decompose", src, "--steps", "0", "--out", str(tmp_path / "tree")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 0
        assert [(leaf["weight"], leaf["depth"], leaf["status"]) for leaf in summary["leaves"]] == [(1.0, 0, None)]
        assert summary["reconstruction_residual"] == 0.0

    def test_zero_step_ends_the_branch(self, tmp_path, capsys):
        # -1.5e-10 passes validation (supp_tol(2, 1) = 2e-10) but lies below
        # the working margin -1e-10, so the witness has epsilon* = 0 and both
        # sides of the split would be the node itself.
        src = str(tmp_path / "margin-povm.json")
        fileio.save_object(src, Povm(d=2, effects=(np.diag([0.5, -1.5e-10]), np.diag([0.5, 1.0 + 1.5e-10]))))
        cert = gqi.is_extremal(fileio.load_object(src))
        assert not cert.extremal and cert.perturbation.epsilon_star == 0.0
        assert self.run("decompose", src, "--steps", "3", "--out", str(tmp_path / "tree")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [(leaf["weight"], leaf["depth"], leaf["status"]) for leaf in summary["leaves"]] == [(1.0, 0, None)]
        assert summary["reconstruction_residual"] == 0.0

    def test_tol_flag(self, tmp_path):
        path = str(tmp_path / "bell.json")
        fileio.save_object(path, bell_tester())
        assert self.run("--tol", "1e-8", "validate", path) == 0
        assert self.run("--tol", "2", "validate", path) == 2

    @pytest.mark.parametrize("command", ["validate", "extremal", "decompose"])
    def test_tol_that_empties_every_support_exits_2(self, command, tmp_path, capsys):
        """At total_dim * eps_rel >= 1 the support cutoff supp_tol(D, lambda)
        lies above every eigenvalue, so every support would be empty and
        the channel would read extremal with support rank 0."""
        path = os.path.join(GOLDEN, "channel.json")
        extra = ["--out", str(tmp_path / "tree")] if command == "decompose" else []
        assert self.run("--tol", "0.5", command, path, *extra) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: tolerance 0.5 leaves every support empty at dimension 4")
        # D * eps_rel = 1 is refused too; just below it the command runs.
        assert self.run("--tol", "0.25", command, path, *extra) == 2
        assert self.run("--tol", "0.2", "validate", path) == 0

    @pytest.mark.parametrize(
        "name,dim", [("equivalence", 9), ("xi-invariance", 4), ("bounds", 4), ("appendix-c", 8)]
    )
    def test_suite_tol_that_empties_every_support_exits_2(self, name, dim, capsys):
        """A suite is guarded at the largest dimension D it draws."""
        assert suites.LARGEST_DIM[name] == dim
        assert self.run("--tol", "0.5", "suite", name, "--seeds", "1") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: tolerance 0.5 leaves every support empty at dimension {dim}\n"
        assert self.run("--tol", repr(1.0 / dim), "suite", name, "--seeds", "1") == 2
        capsys.readouterr()
        # Just below D eps_rel = 1 this guard lets the suite run; only
        # xi-invariance refuses such a tolerance, by its own guard below.
        code = self.run("--tol", repr(0.9 / dim), "suite", name, "--seeds", "1")
        assert "leaves every support empty" not in capsys.readouterr().err
        assert code != 2 or name == "xi-invariance"

    def test_xi_suite_tol_that_reaches_the_drawn_states_exits_2(self, capsys):
        """xi-invariance transforms by qubit states whose eigenvalues lie
        above floor / (1 + 2 floor); a support cutoff supp_tol(2, 1) at or
        above that refuses them, which is a usage error.  Below it, verdict
        flips stay suite failures."""
        floor = suites.smallest_state_eigenvalue(2)
        assert floor == 0.05 / 1.1
        rng = np.random.default_rng(0)
        assert min(np.linalg.eigvalsh(suites.random_full_rank_state(2, rng))[0] for _ in range(200)) > floor
        for tol in ("0.225", repr(floor / 2)):
            assert self.run("--tol", tol, "suite", "xi-invariance", "--seeds", "1") == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"error: tolerance {float(tol):g} puts the support cutoff at or above 0.04545")
        assert self.run("--tol", "0.015", "suite", "xi-invariance", "--seeds", "35") == 1
        assert json.loads(capsys.readouterr().out)["failures"] == 1
        assert self.run("--tol", "0.005", "suite", "xi-invariance", "--seeds", "35") == 0
        assert self.run("suite", "xi-invariance", "--seeds", "35") == 0

    def test_tol_env(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bell.json")
        fileio.save_object(path, bell_tester())
        monkeypatch.setenv("EXQIP_TOL", "1e-9")
        assert self.run("validate", path) == 0


def test_suite_dimensions_are_the_largest_drawn():
    """``suites.LARGEST_DIM`` against the objects the suites draw: every
    appendix fixture, and the first seeds of the tester and instrument
    populations."""
    fixtures = [channels.combination_fixture(k) for k in channels.APPENDIX_TABLE]
    assert suites.LARGEST_DIM["appendix-c"] == max(f.signature.total_dim for f in fixtures)
    assert suites.LARGEST_DIM["equivalence"] == max(d0 * d1 for d0, d1 in suites.EQUIVALENCE_DIMS)
    rng = np.random.default_rng(0)
    drawn = [
        suites.random_extremal_qubit_tester(rng),
        suites.random_nonextremal_qubit_tester(rng),
        suites.random_rank22_qubit_tester(rng),
        channels.random_instrument(2, 2, (2, 2), rng),
    ]
    assert {x.signature.total_dim for x in drawn} == {suites.LARGEST_DIM["xi-invariance"]}
    assert suites.LARGEST_DIM["bounds"] == suites.LARGEST_DIM["xi-invariance"]


def test_generate_refuses_a_comb_above_the_budget(tmp_path):
    """`generate random-comb --signature 200,200` (D = 40 000) exits 2 with
    the estimate before anything is allocated.  It runs under a 1 GiB
    address-space limit, so that without the guard it fails at once rather
    than allocating."""
    src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import exqip.cli\n"
        "sys.exit(exqip.cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "comb.json"
    run = subprocess.run(
        [sys.executable, "-c", code, "generate", "random-comb", "--signature", "200,200", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2, run.stderr
    need = cli.GENERATE_BYTES_PER_ENTRY * 40000 ** 2
    assert run.stderr == (
        f"error: a random comb at signature (200, 200) needs about {need:,} bytes, "
        f"above the budget of {gqi.RANK_STAGE_BUDGET:,} bytes\n"
    )
    assert not out.exists()


def test_runtime_imports_no_scipy():
    """The runtime dependency is numpy alone: a fresh `exqip extremal` on a
    tester imports no scipy module."""
    src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import exqip.cli\n"
        "assert exqip.cli.main(['extremal', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, os.path.join(GOLDEN, "tester.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout.splitlines()[-1] == "[]"
