"""Tests for the file formats and the command-line interface."""

import json
import math
import os

import numpy as np
import pytest

import exqip
from exqip import cli, fileio, gqi, linalg, testers
from exqip.channels import Channel, Instrument
from exqip.combs import CombSignature, DeterministicComb, central_comb
from exqip.errors import FileFormatError
from exqip.gqi import Gqi
from exqip.testers import Povm, Tester


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

    def test_certificate_round_trip(self, tmp_path):
        cert = testers.is_extremal_tester(testers.schmidt_tester(0.0))
        path = tmp_path / "cert.json"
        fileio.save_certificate(path, "tester", cert, linalg.DEFAULT_TOL)
        assert json.loads(path.read_text())["tool_version"] == exqip.__version__ == "0.1.0"
        loaded = fileio.load_certificate(path)
        assert loaded.extremal == cert.extremal
        assert loaded.rank == cert.rank
        assert loaded.support_ranks == cert.support_ranks
        assert loaded.perturbation.epsilon_star == cert.perturbation.epsilon_star
        for a, b in zip(loaded.perturbation.directions, cert.perturbation.directions):
            assert linalg.max_abs(a - b) == 0.0


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
        stack, rho extracted once; the product-form residual is the
        cascade's first residual."""
        from test_testers import count_calls

        path = tmp_path / "tester.json"
        fileio.save_object(path, testers.schmidt_tester(0.3))
        calls = count_calls(monkeypatch)
        assert self.run("validate", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls["tester_normalization"] == 1
        assert calls["eigh"] == [(2, 4, 4)]
        assert sorted(calls["eigvalsh"]) == [(2, 2), (4, 4)]
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

    def test_decompose_tree(self, tmp_path, capsys):
        src = str(tmp_path / "prod.json")
        out_dir = str(tmp_path / "tree")
        assert self.run("generate", "two-outcome-qubit-tester", "--out", src,
                        "--schmidt-angle", "0") == 0
        assert self.run("decompose", src, "--steps", "2", "--out", out_dir) == 0
        summary = json.loads((tmp_path / "tree" / "summary.json").read_text())
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

    def test_tol_flag(self, tmp_path):
        path = str(tmp_path / "bell.json")
        fileio.save_object(path, bell_tester())
        assert self.run("--tol", "1e-8", "validate", path) == 0
        assert self.run("--tol", "2", "validate", path) == 2

    def test_tol_env(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bell.json")
        fileio.save_object(path, bell_tester())
        monkeypatch.setenv("EXQIP_TOL", "1e-9")
        assert self.run("validate", path) == 0
