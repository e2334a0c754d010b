"""Tests for the file formats and the command-line interface."""

import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import exqip
from exqip import channels, cli, combs, commands, fileio, gqi, linalg, suites, testers
from exqip.channels import Channel, Instrument
from exqip.combs import CombSignature, DeterministicComb, central_comb
from exqip.errors import FileFormatError, ToleranceError
from exqip.gqi import Gqi
from exqip.linalg import TolerancePolicy
from exqip.testers import Povm, Tester
from populations import GOLDEN_NAMES, fixture_path, golden_payload, package_env, run_cli, shapes, validation_calls


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
CERTIFICATE_INPUTS = sorted(GOLDEN_NAMES) + ["product-tester"]


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
    "string-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": "0.5"}},
    "boolean-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": True}},
    "nan-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": math.nan}},
    "infinite-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": math.inf}},
    "negative-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": -1.0}},
    "huge-integer-epsilon": lambda p: {**p, "perturbation": {**p["perturbation"], "epsilon_star": 10 ** 400}},
    "unknown-version": lambda p: {**p, "version": 99},
    "boolean-version": lambda p: {**p, "version": True},
    "huge-delta": lambda p: {**p, "perturbation": {**p["perturbation"], "delta": [[[1e101, 0.0]] * 4] * 4}},
}

# Matrix entries that are not [re, im] with two numbers, neither of them a
# boolean; a number too large for a float is no entry either.
MALFORMED_ENTRIES = {
    "three-numbers": [1.0, 0.0, 7.0],
    "booleans": [True, False],
    "one-number": [1.0],
    "bare-number": 1.0,
    "string-part": [1.0, "0.0"],
    "huge-integer": [10 ** 400, 0.0],
}


def assert_same_payload(a, b):
    """``a`` and ``b`` hold the same fields: every matrix equal entry for
    entry with the same dtype, everything else equal by ``==``."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_same_payload(a[key], b[key])
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_payload(x, y)
    else:
        assert not isinstance(b, np.ndarray) and a == b


class TestFileio:
    @pytest.mark.parametrize("obj", SAMPLE_OBJECTS, ids=lambda o: fileio.kind_of(o).kind)
    def test_round_trip_byte_identical(self, obj, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, obj, metadata={"note": "sample"})
        first = path.read_bytes()
        loaded = fileio.load_object(path)
        assert fileio.kind_of(loaded) is fileio.kind_of(obj)
        fileio.save_object(path, loaded, metadata={"note": "sample"})
        assert path.read_bytes() == first

    @pytest.mark.parametrize("obj", SAMPLE_OBJECTS, ids=lambda o: fileio.kind_of(o).kind)
    def test_round_trip_exact_values(self, obj, tmp_path):
        path = tmp_path / "obj.json"
        fileio.save_object(path, obj)
        loaded = fileio.load_object(path)
        assert_same_payload(fileio.object_to_payload(obj), fileio.object_to_payload(loaded))

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
        payload["outcomes"][0][0][0] = [math.nan, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="non-finite"):
            fileio.load_object(path)

    @pytest.mark.parametrize("entry", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES.keys())
    def test_malformed_entry_rejected(self, entry, tmp_path, capsys):
        """An entry is exactly two numbers, neither of them a boolean;
        anything else is a file-format error, exit 2 from the CLI."""
        path = tmp_path / "obj.json"
        fileio.save_object(path, bell_tester())
        payload = json.loads(path.read_text())
        payload["outcomes"][1][2][3] = entry
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="malformed matrix entry"):
            fileio.load_object(path)
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed matrix entry") and "Traceback" not in err

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
        assert cli.main(["extremal", fixture_path("gqi"), "--certificate", str(path)]) == 0
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
            path = fixture_path(name)
        cert_path = tmp_path / "cert.json"
        assert cli.main(["extremal", str(path), "--certificate", str(cert_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(cert_path.read_text())["tool_version"] == exqip.__version__ == "0.1.0"
        obj = fileio.load_object(path)
        cert = gqi.is_extremal(Gqi(obj.signature, obj.outcomes))
        loaded = fileio.load_certificate(cert_path)
        fields = ("extremal", "family_size", "rank", "support_ranks", "normalization_basis_size")
        assert [getattr(loaded, f) for f in fields] == [getattr(cert, f) for f in fields]
        # A file holds no validation spectra.
        assert loaded.validation is None and cert.validation is not None
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


def as_lists(value):
    """``value`` with every matrix as the rows of ``[re, im]`` pairs that a
    file holds: the payload whose ``json.dumps`` is the oracle of
    :func:`fileio.dumps_canonical`."""
    if isinstance(value, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in value]
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value


# Signed zeros, subnormals, the ends of the exponent range and floats with
# integer values, whose repr switches to exponent form at 1e16.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1e-300,
               -1e-300, 1.7976931348623157e308, 1.0, -3.0, 1e15, 1e16, 2.0 ** 53, 0.1, 1e-5]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = [math.nan, math.inf, -math.inf]
# Non-ASCII, control characters, escapes and a lone surrogate.
EDGE_TEXT = ["", "\x00\x1f\x7f", "caf\u00e9 \u91cf\u5b50 \U0001d4b3", '"\\/\b\f\n\r\t', "\ud800"]
TEXT = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=8))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FINITE, TEXT)


@st.composite
def matrices(draw, min_size=0):
    """A complex matrix of ``min_size`` to 5 rows and columns, each part of
    each entry drawn on its own, so that -0.0 survives."""
    shape = (draw(st.integers(min_size, 5)), draw(st.integers(min_size, 5)))
    parts = draw(st.lists(FINITE, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]))
    m = np.empty(shape, dtype=complex)
    m.real = np.reshape(parts[::2], shape)
    m.imag = np.reshape(parts[1::2], shape)
    return m


PAYLOADS = st.dictionaries(
    TEXT,
    st.recursive(
        st.one_of(SCALARS, matrices()),
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)),
        max_leaves=12,
    ),
    max_size=6,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_matches_json_dumps(self, payload):
        """The canonical text is that of ``json.dumps`` on the payload with
        its matrices as lists."""
        want = json.dumps(as_lists(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert fileio.dumps_canonical(payload) == want

    @settings(max_examples=100, deadline=None)
    @given(PAYLOADS, TEXT, matrices(min_size=1), st.sampled_from(NON_FINITE), st.integers(0, 10 ** 6),
           st.sampled_from(["matrix", "scalar", "nested"]))
    def test_non_finite_raises(self, payload, key, m, bad, choice, where):
        """A NaN or infinity in a matrix entry or a scalar raises, as
        ``json.dumps`` does."""
        m.view(float).reshape(-1)[choice % (2 * m.size)] = bad
        payload[key] = {"matrix": m, "scalar": bad, "nested": [None, {"x": [m.real.tolist(), bad]}]}[where]
        with pytest.raises(ValueError):
            json.dumps(as_lists(payload), allow_nan=False)
        with pytest.raises(ValueError):
            fileio.dumps_canonical(payload)

    @settings(max_examples=40, deadline=None)
    @given(matrices(min_size=1), st.sampled_from(NON_FINITE), st.integers(0, 10 ** 6),
           st.sampled_from(["outcome", "metadata", "direction", "delta", "epsilon"]))
    def test_non_finite_writes_no_file(self, m, bad, choice, where):
        """A NaN or infinity in an outcome, the metadata, a direction, the
        shift or epsilon* raises before the file is opened."""
        n = max(m.shape)
        good = np.zeros((n, n), dtype=complex)
        good[: m.shape[0], : m.shape[1]] = m
        spoilt = good.copy()
        spoilt.view(float).reshape(-1)[choice % (2 * spoilt.size)] = bad
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            with pytest.raises(ValueError):
                if where == "outcome":
                    fileio.save_object(path, Gqi(CombSignature((n, 1)), (spoilt,)))
                elif where == "metadata":
                    fileio.save_object(path, Gqi(CombSignature((n, 1)), (good,)), metadata={"x": [1, {"y": bad}]})
                else:
                    pert = gqi.Perturbation(
                        directions=(spoilt if where == "direction" else good,),
                        delta=spoilt if where == "delta" else good,
                        epsilon_star=bad if where == "epsilon" else 0.5,
                    )
                    cert = gqi.ExtremalityCertificate(False, 2, 1, (1,), 1, pert)
                    fileio.save_certificate(path, "gqi", cert, linalg.DEFAULT_TOL)
            assert os.listdir(tmp) == []


# Parts at and past the bound fileio.MAX_ENTRY, up to the largest float,
# and the NaN and Infinity literals that Python's json reads.
NEAR_OVERFLOW = [fileio.MAX_ENTRY, float(np.nextafter(fileio.MAX_ENTRY, math.inf)), 1e150, 1e300, 1e307, 1e308,
                 sys.float_info.max]
ENTRY_PARTS = st.one_of(st.sampled_from(NEAR_OVERFLOW + [-x for x in NEAR_OVERFLOW] + NON_FINITE), FINITE)
VERSIONS = st.one_of(st.integers(-2, 100), st.sampled_from([1.0, True, "1", None]))


class TestReader:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(GOLDEN_NAMES)), st.one_of(
        st.tuples(st.just("version"), VERSIONS),
        st.tuples(st.just("entry"), st.integers(0, 10 ** 6), st.integers(0, 1), ENTRY_PARTS),
    ))
    @example("povm", ("version", 99))
    @example("povm", ("entry", 0, 0, 1e308))
    def test_mutated_golden_files(self, name, mutation):
        """A golden file with its version or one part of one entry changed:
        an unknown version, a non-finite part or an entry of modulus above
        ``fileio.MAX_ENTRY`` exits 2 under `validate`, `extremal` and
        `decompose`, with one error line, no output, no warning and no
        --out directory; anything else exits 0 or 1 under the first two."""
        payload = golden_payload(name)
        if mutation[0] == "version":
            payload["version"] = mutation[1]
            refused = type(mutation[1]) is not int or mutation[1] != 1
        else:
            _, where, part, value = mutation
            entries = [pair for m in payload["outcomes"] for row in m for pair in row]
            entry = entries[where % len(entries)]
            entry[part] = value
            # The bound is on the modulus of the entry; a NaN part fails it.
            refused = not math.hypot(*entry) <= fileio.MAX_ENTRY
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            out_dir = os.path.join(tmp, "tree")
            commands = [["validate"], ["extremal"]] + ([["decompose", "--out", out_dir]] if refused else [])
            for command, *extra in commands:
                code, out, err = run_cli([command, path, *extra])
                if refused:
                    assert (code, out) == (2, ""), (command, err)
                    assert err.startswith("error: ") and err.count("\n") == 1, err
                else:
                    assert code in (0, 1), (command, err)
            assert not os.path.exists(out_dir)


def midpoint_tree(kind, seed_a, seed_b, steps=3):
    """The input and the ``(leaf, weight)`` pairs, read back from their
    files, of `exqip decompose --steps STEPS` on the midpoint of two random
    objects of ``kind``: instruments on C^d (``instrument-d2``,
    ``instrument-d3``) or Schmidt qubit testers (``tester``).  The weights
    sum to 1, the weighted leaves reconstruct the input to 1e-12 and stdout
    is summary.json."""
    def draw(seed):
        rng = np.random.default_rng(seed)
        if kind == "tester":
            u2, u1 = channels.random_unitary(2, rng), channels.random_unitary(2, rng)
            return testers.schmidt_tester(rng.uniform(0.0, math.pi / 4), u2, u1)
        d = int(kind[-1])
        return channels.random_instrument(d, d, (1, d), rng)

    a, b = draw(seed_a), draw(seed_b)
    mid = fileio.kind_of(a).from_view(a.signature, tuple(0.5 * x + 0.5 * y for x, y in zip(a.outcomes, b.outcomes)))
    with tempfile.TemporaryDirectory() as tmp:
        src, out_dir = os.path.join(tmp, "mid.json"), os.path.join(tmp, "tree")
        fileio.save_object(src, mid)
        root = fileio.load_object(src)
        code, stdout, _ = run_cli(["decompose", src, "--steps", steps, "--out", out_dir])
        assert code == 0
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            text = fh.read()
        assert stdout == text
        leaves = [(fileio.load_object(os.path.join(out_dir, e["file"])), e["weight"]) for e in json.loads(text)["leaves"]]
    assert abs(math.fsum(w for _, w in leaves) - 1.0) <= 1e-12
    for i, t in enumerate(root.outcomes):
        assert linalg.max_abs(sum(w * leaf.outcomes[i] for leaf, w in leaves) - t) <= 1e-12
    return root, leaves


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

    def test_validate_decides_once(self, tmp_path, record, capsys):
        """One GQI verdict per report: the outcomes decomposed once as a
        stack, rho extracted once, by the one cascade pass of the comb
        check, and not decomposed; the product-form residual is the
        cascade's first residual."""
        path = tmp_path / "tester.json"
        fileio.save_object(path, testers.schmidt_tester(0.3))
        calls = validation_calls(record)
        assert self.run("validate", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        names = [c.name for c in calls]
        assert names.count("_cascade") == 1
        assert names.count("partial_trace") == 0
        assert names.count("check_hermitian_stack") == 1
        assert shapes(calls, "eigh") == [(2, 4, 4)]
        assert shapes(calls, "eigvalsh") == []
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

    def test_bad_usage_exits_2(self, monkeypatch, capsys):
        assert self.run("no-such-command") == 2
        assert self.run("generate", "no-such-kind", "--out", "x.json") == 2
        assert self.run("suite", "nosuch") == 2
        capsys.readouterr()
        for value in ("abc", ""):
            monkeypatch.setenv("EXQIP_TOL", value)
            assert self.run("validate", fixture_path("gqi")) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: EXQIP_TOL must be a number, got {value!r}\n"
        # A number outside (0, 1) is refused as --tol is.
        monkeypatch.setenv("EXQIP_TOL", "nan")
        assert self.run("validate", fixture_path("gqi")) == 2
        assert capsys.readouterr() == ("", "error: tolerance must lie in (0, 1), got nan\n")

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

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["instrument-d2", "instrument-d3", "tester"]), st.integers(0, 2**31 - 1),
           st.integers(0, 2**31 - 1))
    def test_decompose_midpoint(self, kind, seed_a, seed_b):
        """On the midpoint of two random instruments or two random Schmidt
        testers, every leaf read back from its file is of the input's kind
        and valid as that kind."""
        assume(seed_a != seed_b)
        root, leaves = midpoint_tree(kind, seed_a, seed_b)
        for leaf, _ in leaves:
            assert fileio.kind_of(leaf) is fileio.kind_of(root)
            assert testers.is_valid_tester(leaf) if kind == "tester" else channels.is_valid_instrument(leaf)

    def test_decompose_tester_leaves_are_testers(self, tmp_path):
        """Every leaf of a tester tree is a valid tester, and `exqip validate`
        accepts its file.  Three levels down the midpoint of the Schmidt
        testers of seeds 0 and 1, two leaves have rho with an eigenvalue near
        -2 supp_tol(4, 1) / 2 = -4e-10: within the band of the sum, though
        below -supp_tol(2, 1) = -2e-10."""
        _, leaves = midpoint_tree("tester", 0, 1)
        for i, (leaf, _) in enumerate(leaves):
            assert testers.is_valid_tester(leaf)
            path = str(tmp_path / f"leaf_{i}.json")
            fileio.save_object(path, leaf)
            assert self.run("validate", path) == 0

    @pytest.mark.parametrize(
        "case", ["certificate-to-directory", "certificate-in-missing-directory", "out-is-a-file", "validate-directory"]
    )
    def test_bad_path_exits_2(self, case, tmp_path, capsys):
        """An operating-system error on a path the user gave is a usage
        error: exit 2 and an ``error:`` line, not a traceback, and nothing
        on stdout: ``extremal`` writes its certificate before its report."""
        src = fixture_path("gqi")
        existing = tmp_path / "existing"
        existing.write_text("kept\n")
        argv = {
            "certificate-to-directory": ["extremal", src, "--certificate", str(tmp_path)],
            "certificate-in-missing-directory": ["extremal", src, "--certificate", str(tmp_path / "no" / "c.json")],
            "out-is-a-file": ["decompose", src, "--out", str(existing)],
            "validate-directory": ["validate", str(tmp_path)],
        }[case]
        assert self.run(*argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert existing.read_text() == "kept\n"

    def test_decompose_refuses_a_non_empty_out(self, tmp_path, capsys):
        """A second tree into the directory of the first exits 2 before the
        input is loaded, and leaves the first tree as it was; an existing
        empty directory is accepted."""
        src = str(tmp_path / "prod.json")
        fileio.save_object(src, testers.schmidt_tester(0.0))
        out_dir = tmp_path / "tree"
        assert self.run("decompose", src, "--steps", "2", "--out", str(out_dir)) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert self.run("decompose", str(tmp_path / "missing.json"), "--steps", "1", "--out", str(out_dir)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --out {out_dir} is not empty\n"
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first
        empty = tmp_path / "empty"
        empty.mkdir()
        assert self.run("decompose", src, "--steps", "1", "--out", str(empty)) == 0
        assert (empty / "summary.json").exists()

    def test_decompose_decides_root_once(self, tmp_path, record):
        decided = record(gqi, "is_extremal")
        src = tmp_path / "depolarizing.json"
        fileio.save_object(src, Channel(d1=2, d0=2, choi=np.eye(4, dtype=complex) / 2.0))
        assert self.run("decompose", str(src), "--steps", "1", "--out", str(tmp_path / "t")) == 0
        assert len(decided) == 1  # the root; its two children are depth-limit leaves

    def test_decompose_extremal_exits_1(self, tmp_path, capsys):
        """An extremal input is not decomposed: one line on stderr, nothing
        on stdout and no --out directory."""
        src = tmp_path / "bell.json"
        fileio.save_object(src, bell_tester())
        assert self.run("decompose", str(src), "--out", str(tmp_path / "t")) == 1
        assert capsys.readouterr() == ("", "input is extremal; nothing to decompose\n")
        assert not (tmp_path / "t").exists()

    def test_generate_combination_and_classify(self, tmp_path, capsys):
        path = str(tmp_path / "fix.json")
        assert self.run("generate", "combination", "--k", "3", "--out", path) == 0
        assert self.run("extremal", path) == 0
        assert '"verdict": "extremal"' in capsys.readouterr().out

    def test_generate_combination_empty_row(self, tmp_path, capsys):
        path = str(tmp_path / "fix.json")
        assert self.run("generate", "combination", "--k", "5", "--out", path) == 1
        assert "row 5 of the appendix table is empty" in capsys.readouterr().err

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

    def test_split_tester_sub_povm_of_another_dimension_exits_2(self, tmp_path, capsys):
        """A --sub-povm on d = 3 for a qubit tester, D = 4, is refused with
        both dimensions and no file written."""
        base, sub, out = (str(tmp_path / name) for name in ("bell.json", "p3.json", "split.json"))
        fileio.save_object(base, bell_tester())
        fileio.save_object(sub, Povm(3, (np.eye(3),)))
        assert self.run("generate", "split-tester", "--base", base, "--outcome", "1",
                        "--sub-povm", sub, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --sub-povm is on d = 3, but the tester's outcomes are on d_1 d_2 = 4\n"
        )
        assert not os.path.exists(out)

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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "x.json"
        assert self.run("generate", "random-comb", "--seed", "-1", "--out", str(out_file)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out_file.exists()

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
        the channel would read extremal with support rank 0.  The core
        refuses it, for validate too."""
        path = fixture_path("channel")
        extra = ["--out", str(tmp_path / "tree")] if command == "decompose" else []
        assert self.run("--tol", "0.5", command, path, *extra) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: tolerance 0.5 leaves every support empty at dimension 4\n"
        # D * eps_rel = 1 is refused too; just below it the command runs.
        assert self.run("--tol", "0.25", command, path, *extra) == 2
        assert self.run("--tol", "0.2", "validate", path) == 0
        assert not (tmp_path / "tree").exists()

    @pytest.mark.parametrize("command", ["validate", "extremal"])
    def test_small_effects_empty_every_support_below_one_over_d(self, command, tmp_path, capsys):
        """Twenty effects I/20 on a qubit: D eps_rel = 0.2 < 1 at --tol 0.1,
        but every eigenvalue, 0.05, lies below the support cutoff 0.2.  A
        guard on D alone let `extremal` print "extremal" with every support
        rank 0; the core reads the eigenvalues and refuses it."""
        path = str(tmp_path / "povm20.json")
        fileio.save_object(path, Povm(d=2, effects=(np.eye(2) / 20,) * 20))
        assert self.run("--tol", "0.1", command, path) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: tolerance 0.1 leaves every support empty at dimension 2\n"
        # Just below the eigenvalue 0.05 = 2 eps_rel the supports are full;
        # the 80 rows then need 80 eps_rel < 1 for a rank test.
        assert self.run("--tol", "0.024", "validate", path) == 0
        assert self.run("--tol", "0.01", command, path) == 0

    def test_tol_that_empties_every_rank_exits_2(self, tmp_path, capsys):
        """At max(m + |V|, D^2) eps_rel >= 1 the rank cutoff lies at or above
        every singular value, so the identity channel would read
        not_extremal with a witness whose leaves fail validation.  validate
        runs no rank test."""
        path = str(tmp_path / "id.json")
        assert self.run("generate", "combination", "--k", "1", "--out", path) == 0
        capsys.readouterr()
        tree = str(tmp_path / "tree")
        for command, extra in (("extremal", []), ("decompose", ["--steps", "1", "--out", tree])):
            assert self.run("--tol", "0.1", command, path, *extra) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == (
                "error: tolerance 0.1 puts the rank cutoff at or above every singular value at dimension 4\n"
            )
            # D^2 eps_rel = 1 is refused too.
            assert self.run("--tol", "0.0625", command, path, *extra) == 2
            assert "puts the rank cutoff" in capsys.readouterr().err
        assert not os.path.exists(tree)
        # Just below D^2 eps_rel = 1 the command runs.
        assert self.run("--tol", "0.06", "extremal", path) == 0
        assert self.run("--tol", "0.1", "validate", path) == 0

    @pytest.mark.parametrize(
        "name,dim", [("equivalence", 4), ("xi-invariance", 4), ("bounds", 4), ("appendix-c", 4)]
    )
    def test_suite_tol_that_empties_every_support_exits_2(self, name, dim, capsys):
        """Each suite's first member is on D = 4, and at --tol 0.5 every
        support of it is empty: the core refuses it by its index, which a
        seeded suite leads with the seed.  xi-invariance refuses its drawn
        states before any member, so its first member is put to the core
        directly."""
        assert self.run("--tol", "0.5", "suite", name, "--seeds", "1") == 2
        out = capsys.readouterr()
        assert out.out == ""
        if name == "xi-invariance":
            assert out.err.startswith("error: tolerance 0.5 puts the support cutoff at or above 0.04545")
            first = suites.random_extremal_qubit_tester(np.random.default_rng(2000))
            with pytest.raises(ToleranceError) as caught:
                gqi.decide_all([first], TolerancePolicy(eps_rel=0.5))
            assert str(caught.value) == f"member 0: tolerance 0.5 leaves every support empty at dimension {dim}"
        else:
            seed = "" if name == "appendix-c" else "seed 0: "
            assert out.err == f"error: {seed}member 0: tolerance 0.5 leaves every support empty at dimension {dim}\n"

    def test_suite_tol_is_refused_by_the_member_it_empties(self, capsys):
        """A suite is refused by the first seed whose population the core
        refuses, named with the member of that seed's population, at that
        member's dimension, and runs where no member is refused."""
        assert self.run("--tol", "0.05", "suite", "equivalence", "--seeds", "2") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: seed 0: member 1: tolerance 0.05 puts the rank cutoff at or above every singular value "
            "at dimension 6\n"
        )
        # Seed 2 at (3,3) with 8 Kraus operators, member 3 of its population,
        # has support rank 6: m + |V| = 108 > D^2 = 81, and 108 * 0.012 >= 1.
        assert self.run("--tol", "0.012", "suite", "equivalence", "--seeds", "3") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: seed 2: member 3: tolerance 0.012 puts the rank cutoff at or above every singular value "
            "at dimension 9\n"
        )
        # Only the D = 2 POVMs of the appendix table reach a rank test; the
        # D = 8 objects of row 2 are decided by the Kraus-product criterion.
        # At 0.05 no member is refused, and the loose cutoff flips a row.
        assert self.run("--tol", "0.05", "suite", "appendix-c") == 1
        assert json.loads(capsys.readouterr().out)["failures"] == 1

    def test_xi_suite_tol_that_reaches_the_drawn_states_exits_2(self, capsys):
        """xi-invariance transforms by qubit states whose eigenvalues lie
        above floor / (1 + 2 floor); a support cutoff supp_tol(2, 1) at or
        above that refuses them, which is a usage error.  Below it, verdict
        flips stay suite failures."""
        floor = suites.smallest_state_eigenvalue(2)
        assert floor == 0.05 / 1.1
        rng = np.random.default_rng(0)
        assert min(np.linalg.eigvalsh(suites.random_full_rank_state(2, rng))[0] for _ in range(200)) > floor
        # At 0.5 every support of the first member is empty too, but the
        # suite refuses the states first.
        for tol in ("0.5", "0.225", repr(floor / 2)):
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


def test_generate_refuses_a_comb_above_the_budget(tmp_path):
    """`generate random-comb --signature 200,200` (D = 40 000) exits 2 with
    the estimate before anything is allocated.  It runs under a 1 GiB
    address-space limit, so that without the guard it fails at once rather
    than allocating."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import exqip.cli\n"
        "sys.exit(exqip.cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "comb.json"
    run = subprocess.run(
        [sys.executable, "-c", code, "generate", "random-comb", "--signature", "200,200", "--out", str(out)],
        capture_output=True, text=True, env=package_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"), timeout=120,
    )
    assert run.returncode == 2, run.stderr
    need = commands.GENERATE_BYTES_PER_ENTRY * 40000 ** 2
    assert run.stderr == (
        f"error: a random comb at signature (200, 200) needs about {need:,} bytes, "
        f"above the budget of {combs.RANK_STAGE_BUDGET:,} bytes\n"
    )
    assert not out.exists()


def _fresh_modules(code, *args) -> set:
    """The exqip, scipy and dataclasses modules loaded after ``code`` runs in
    a fresh ``python -c`` process with arguments ``args``.  The process must
    exit 0."""
    report = (
        "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] in ('exqip', 'scipy', 'dataclasses')]))"
    )
    run = subprocess.run([sys.executable, "-c", f"{code}\n{report}", *args], capture_output=True, text=True,
                         env=package_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


# `python -m exqip.cli ARGS`, which must exit 0.
RUN_CLI = (
    "import runpy\n"
    "try:\n"
    "    runpy.run_module('exqip.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
)


# What each command loads in a fresh process, for a file of any kind; the
# command's own module, `exqip.cli`, runs as __main__.  `validate` loads no
# extremality code, `extremal` adds `gqi`, and the other commands add
# `commands`, the module of their handlers, and what their handler imports.
_VALIDATE = {"exqip", "exqip.errors", "exqip.linalg", "exqip.combs", "exqip.fileio"}
_HANDLERS = _VALIDATE | {"exqip.gqi", "exqip.commands"}
_CRITERIA = _HANDLERS | {"exqip.channels", "exqip.testers"}
COMMAND_MODULES = {
    "validate": _VALIDATE,
    "extremal": _VALIDATE | {"exqip.gqi"},
    "decompose": _HANDLERS,
    "generate": _CRITERIA,
    "suite": _CRITERIA | {"exqip.suites"},
}
# One golden fixture of each kind, named after it.
GOLDEN_KINDS = ("channel", "comb", "gqi", "instrument", "povm", "tester")


def test_runtime_imports_no_scipy(tmp_path):
    """A command loads only the modules it runs, and the runtime dependency
    is numpy alone.  `import exqip` loads no submodule; `exqip suite` and
    `exqip generate` load the criteria they run, and no scipy module.  No
    command loads ``dataclasses``, whose generated methods would cost a
    fresh process more than its verdict."""
    assert _fresh_modules("import exqip") == {"exqip"}
    assert _fresh_modules(RUN_CLI, "suite", "appendix-c") == COMMAND_MODULES["suite"]
    comb = str(tmp_path / "comb.json")
    argv = ("generate", "random-comb", "--signature", "2,2", "--out", comb)
    assert _fresh_modules(RUN_CLI, *argv) == COMMAND_MODULES["generate"]


@pytest.mark.parametrize("kind", GOLDEN_KINDS)
def test_file_commands_load_their_modules(kind, tmp_path):
    """A fresh `exqip validate` on a file of any kind loads no ``gqi``, a
    fresh `exqip extremal --certificate` no handler module, and a fresh
    `exqip decompose` neither the suites nor the channel and tester
    criteria."""
    path = fixture_path(kind)
    assert _fresh_modules(RUN_CLI, "validate", path) == COMMAND_MODULES["validate"]
    cert = str(tmp_path / "cert.json")
    assert _fresh_modules(RUN_CLI, "extremal", path, "--certificate", cert) == COMMAND_MODULES["extremal"]
    assert fileio.load_certificate(cert).family_size > 0
    argv = ("decompose", path, "--steps", "1", "--out", str(tmp_path / "tree"))
    assert _fresh_modules(RUN_CLI, *argv) == COMMAND_MODULES["decompose"]


def test_no_submodule_shadows_a_public_name():
    """Importing a submodule binds it as an attribute of the package, which
    would hide the public name of the same name that loads on first use
    (a module called ``decompose`` would replace ``exqip.decompose``).  So
    no submodule is named after a public name, and the package lists every
    submodule."""
    names = {info.name for info in pkgutil.iter_modules(exqip.__path__)}
    assert names == set(exqip._SUBMODULES)
    assert not names & set(exqip.__all__)


def test_suite_names_are_the_suites(capsys):
    """The parser's suite names, kept in the CLI so that it need not import
    the suites, are those of ``suites.SUITES``, and `exqip suite --help`
    lists them."""
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))
    assert cli.main(["suite", "--help"]) == 0
    usage = capsys.readouterr().out
    assert all(name in usage for name in suites.SUITES)
