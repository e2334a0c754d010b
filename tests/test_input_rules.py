"""One home per input rule.

The entry rule (every entry finite and of modulus at most
``linalg.MAX_ENTRY``) is applied by ``linalg.check_hermitian_stack``, which
every operator passes before any eigensolver, so objects built in memory
are refused as files are.  The Kraus constructors apply the same rule to
their Kraus operators, and the xi maps to their U, which must also be
unitary, before any product is formed.  The header rule (a JSON object of
version 1 and the right format) is one check of ``fileio``, for payloads
and files alike.  pytest turns warnings into errors, so none of these
refusals may overflow on the way.

Also here: the arguments of the library's builders.  A comb signature
takes integer dimensions only, bools excepted, ``gqi.mix`` a convex weight
only, and ``gqi.decompose_step`` only a certificate whose directions fit
the outcomes, as ``gqi.decompose`` takes only a non-negative integer depth.
"""

import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest

from exqip import channels, cli, combs, fileio, gqi, linalg, testers
from exqip.errors import DimensionMismatchError, FileFormatError, NotHermitianError, ValidationError
from exqip.gqi import Gqi, Povm

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli")

BOUND = r"^matrix entry of modulus above 1e\+100$"
NOT_UNITARY = r"^xi transform requires a unitary U: "
I2 = np.eye(2, dtype=complex)
# A real entry near the largest float, and one whose parts are both at the
# bound, so that only its modulus is above it.
HUGE = {"1e308": 1e308, "1e100+1e100j": 1e100 + 1e100j}


def huge_povm(entry):
    return Povm(2, (np.diag([entry, 0.5]), I2 / 2))


@pytest.mark.parametrize("entry", HUGE.values(), ids=HUGE.keys())
class TestInMemory:
    def test_verdicts_refuse(self, entry):
        g = huge_povm(entry)
        for decide in (gqi.is_valid_gqi, gqi.is_extremal):
            with pytest.raises(NotHermitianError, match=BOUND):
                decide(g)

    def test_populations_name_the_member(self, entry):
        population = [Povm(2, (I2 / 2, I2 / 2)), huge_povm(entry)]
        for decide in (gqi.validate_all, gqi.decide_all):
            with pytest.raises(NotHermitianError, match=r"^member 1: matrix entry of modulus above 1e\+100$"):
                decide(population)

    def test_comb_and_choi_refuse(self, entry):
        op = np.diag([entry, 0.5, 0.5, 0.5])
        with pytest.raises(NotHermitianError, match=BOUND):
            combs.is_deterministic_comb(op, combs.CombSignature((2, 2)))
        with pytest.raises(NotHermitianError, match=BOUND):
            channels.choi_to_kraus(op, 2, 2)

    def test_kraus_constructors_refuse(self, entry):
        k = np.diag([entry, 1.0])
        with pytest.raises(ValidationError, match=BOUND):
            channels.channel_from_kraus([k])
        with pytest.raises(ValidationError, match=BOUND):
            channels.instrument_from_kraus([[I2 / 2], [I2 / 2, k]])

    def test_xi_maps_refuse(self, entry):
        u = np.diag([entry, 1.0])
        t = testers.schmidt_tester(0.3)
        for xi in (testers.xi_transform, testers.xi_inverse):
            with pytest.raises(ValidationError, match=NOT_UNITARY + BOUND[1:]):
                xi(t, I2 / 2, u)


def test_kraus_operator_of_1e200():
    with pytest.raises(ValidationError, match=BOUND):
        channels.channel_from_kraus([np.diag([1e200, 1.0])])
    with pytest.raises(ValidationError, match=r"^matrix contains non-finite entries$"):
        channels.instrument_from_kraus([[np.diag([math.nan, 1.0])]])


def unitary_fault(deviation: str) -> str:
    return "^" + re.escape(f"xi transform requires a unitary U: |U^dagger U - I|_max = {deviation} above 2e-10") + "$"


@pytest.mark.parametrize("xi", [testers.xi_transform, testers.xi_inverse])
def test_xi_maps_need_a_unitary(xi):
    """|U^dagger U - I|_max must be at most d_1 (eps_rel + 4 eps_machine),
    2e-10 on a qubit."""
    t, rho = testers.schmidt_tester(0.3), np.diag([0.6, 0.4])
    with pytest.raises(ValidationError, match=unitary_fault("3.000e+00")):
        xi(t, rho, np.diag([2.0, 1.0]))
    with pytest.raises(ValidationError, match=NOT_UNITARY + BOUND[1:]):
        xi(t, rho, np.diag([1e200, 1.0]))
    # (1 + delta)^2 - 1 is about 2 delta.
    xi(t, rho, np.diag([1.0 + 4e-11, 1.0]))
    with pytest.raises(ValidationError, match=unitary_fault("4.000e-10")):
        xi(t, rho, np.diag([1.0 + 2e-10, 1.0]))


def test_stacked_xi_maps_check_every_u():
    """The stacked maps of the xi-invariance suite check every U of the
    stack before any product; a QR unitary passes."""
    t = testers.schmidt_tester(0.3)
    ops, owner = testers._outcome_stack([t, t])
    rho = np.array([I2 / 2, I2 / 2])
    unitary = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))[0]
    for stacked in (testers._xi_outcomes, testers._xi_inverse_outcomes):
        stacked(ops, owner, 2, 2, rho, np.array([unitary, unitary]), linalg.DEFAULT_TOL)
        for bad in (np.diag([1e200, 1.0]), np.diag([2.0, 1.0])):
            with pytest.raises(ValidationError, match=NOT_UNITARY):
                stacked(ops, owner, 2, 2, rho, np.array([unitary, bad]), linalg.DEFAULT_TOL)


def test_the_bound_itself_is_kept():
    """An entry of modulus MAX_ENTRY passes the rule (the object is merely
    invalid); one ulp above it does not."""
    at = linalg.MAX_ENTRY
    assert not gqi.is_valid_gqi(huge_povm(at)).ok
    with pytest.raises(ValidationError):
        gqi.is_extremal(huge_povm(at))
    with pytest.raises(NotHermitianError, match=BOUND):
        gqi.is_valid_gqi(huge_povm(np.nextafter(at, math.inf)))


def test_fileio_bound_is_linalgs():
    assert fileio.MAX_ENTRY is linalg.MAX_ENTRY


def golden_povm():
    with open(os.path.join(GOLDEN, "povm.json"), encoding="utf-8") as fh:
        return json.load(fh)


MISSING = object()


@pytest.mark.parametrize("version", [99, True, "1", 1.0, MISSING], ids=["99", "true", "string", "float", "missing"])
def test_payload_header(version):
    payload = golden_povm()
    if version is MISSING:
        del payload["version"]
    else:
        payload["version"] = version
    with pytest.raises(FileFormatError, match="^unsupported format version"):
        fileio.payload_to_object(payload)


def test_payload_of_another_format():
    fileio.payload_to_object(golden_povm())
    with pytest.raises(FileFormatError, match="^top-level JSON value must be an object$"):
        fileio.payload_to_object([golden_povm()])
    with pytest.raises(FileFormatError, match=r"^not an operator file \(format='exqip-certificate'\)$"):
        fileio.payload_to_object({**golden_povm(), "format": "exqip-certificate"})


@pytest.mark.parametrize("command", ["validate", "extremal"])
def test_file_entry_of_modulus_above_the_bound(command, tmp_path):
    """[1e100, 1e100] keeps each part at the bound, and its modulus is above it."""
    payload = golden_povm()
    payload["outcomes"][0][0][0] = [1e100, 1e100]
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: matrix entry of modulus above 1e+100\n")


def golden(name):
    return fileio.load_object(os.path.join(GOLDEN, f"{name}.json"))


# A bool is an int to ``operator.index``, but not a dimension.
@pytest.mark.parametrize(
    "dims", [(2.5, 2), (2.0, 2), (np.float64(1.5), 2), ("2", 2), (True, 2), (2, False), (np.int64(2), True)], ids=repr
)
def test_signature_takes_integer_dimensions_only(dims):
    with pytest.raises(DimensionMismatchError, match=r"^dimensions must be integers, got "):
        combs.CombSignature(dims)


def test_signature_takes_python_and_numpy_integers():
    sig = combs.CombSignature((np.int64(2), np.int32(3), 1, np.uint8(2)))
    assert sig == combs.CombSignature((2, 3, 1, 2))
    assert all(type(d) is int for d in sig.dims)


@pytest.mark.parametrize("weight", [2.0, -0.5, math.nan, math.inf, -math.inf], ids=repr)
def test_mix_takes_a_convex_weight_only(weight):
    a = golden("gqi")
    b = Gqi(a.signature, a.outcomes[::-1])
    with pytest.raises(ValidationError, match=r"^mixing weight must lie in \[0, 1\], got "):
        gqi.mix(a, b, weight)
    for weight, end in ((1.0, a), (0.0, b)):
        assert all(np.array_equal(x, y) for x, y in zip(gqi.mix(a, b, weight).outcomes, end.outcomes, strict=True))


@pytest.mark.parametrize("target, source", [("gqi", "channel"), ("povm", "gqi")], ids=["count", "shape"])
def test_decompose_step_takes_a_certificate_that_fits(target, source):
    """A certificate of another GQI, whose directions differ from the
    outcomes in number or in shape, is refused before any child is built."""
    cert = gqi.is_extremal(golden(source))
    with pytest.raises(DimensionMismatchError, match=r"^certificate directions of shapes \[.*\] do not fit outcomes"):
        gqi.decompose_step(golden(target), certificate=cert)


def test_decompose_takes_no_negative_depth():
    g = golden("gqi")
    with pytest.raises(ValueError, match=r"^steps must be a non-negative integer, got -1$"):
        gqi.decompose(g, -1)
    leaves, residual = gqi.decompose(g, 0)
    assert [path for path, *_ in leaves] == [()] and residual == 0.0


def test_decompose_takes_an_integer_depth_only():
    """A bool, a float or a string is refused as a negative depth is, and a
    numpy integer is a depth."""
    g = golden("gqi")
    for steps in (True, False, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match=rf"^steps must be a non-negative integer, got {re.escape(str(steps))}$"):
            gqi.decompose(g, steps)
    leaves, residual = gqi.decompose(g, np.int64(1))
    want = gqi.decompose(g, 1)
    assert [path for path, *_ in leaves] == [path for path, *_ in want[0]] and residual == want[1]
