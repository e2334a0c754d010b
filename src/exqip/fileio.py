"""Text-based operator and certificate files.

Operators are stored as JSON with complex entries encoded as ``[re, im]``
pairs, row-major, with explicit dimensions.  Canonical formatting (sorted
keys, two-space indent, trailing newline) makes write -> read -> write
byte-identical and the fixtures diff-able.

:func:`_check_header` is the one header rule of operator and certificate
files and payloads alike (a JSON object, ``version`` the integer 1, the
right ``format``).  :func:`json_to_matrix` holds every matrix it reads to
the entry rule of :mod:`exqip.linalg`, which objects in memory meet too.

Every object kind, ``comb`` included, is a :class:`~exqip.combs.Gqi`: its
``signature``, a comb signature, and its ``outcomes`` are all that
:mod:`exqip.combs` and :mod:`exqip.gqi` read, and
:func:`exqip.combs.is_valid_gqi` decides its validity.  The kind classes
are the kind table: each carries its row, its name in files, its layout,
its single operator and its residual names (:class:`~exqip.combs.Gqi`), and
:data:`KINDS` maps the names to the classes.  :func:`file_signature` and
:func:`comb_signature` read a class's layout, the class builds an object
with ``from_view``, and :func:`kind_of` matches an object's exact class,
since a tester is also a ``Gqi``.  Reading and writing objects imports
:mod:`exqip.combs` alone, and only :func:`load_certificate` imports
:mod:`exqip.gqi`.  The file signature by kind, and the comb signature it stands for:

* ``comb`` / ``gqi``:   ``[d_0, ..., d_{2N-1}]`` (label order), itself
* ``channel`` / ``instrument``: ``[d_0, d_1]`` (input, output), itself
* ``tester``: ``[d_1, d_2]`` (state space, measured output space), on
  ``(1, d_1, d_2, 1)``
* ``povm``:   ``[d]``, on ``(d, 1)``
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .combs import Channel, CombSignature, DeterministicComb, Gqi, Instrument, Povm, Tester
from .errors import DimensionMismatchError, FileFormatError
# fileio.MAX_ENTRY is the bound of linalg's entry rule.
from .linalg import MAX_ENTRY, TolerancePolicy, _entry_rule

FORMAT_NAME = "exqip-operator-file"
CERTIFICATE_FORMAT_NAME = "exqip-certificate"
FORMAT_VERSION = 1


KINDS = {cls.kind: cls for cls in (DeterministicComb, Gqi, Tester, Channel, Instrument, Povm)}


def file_signature(cls: type, sig: CombSignature) -> list:
    """The file signature of an object of the kind ``cls`` on ``sig``."""
    if cls.layout is None:
        return list(sig.dims)
    return [d for d, slot in zip(sig.dims, cls.layout) if isinstance(slot, str)]


def comb_signature(cls: type, dims: list) -> CombSignature:
    """The comb signature that the file signature ``dims`` of the kind
    ``cls`` stands for; a malformed one raises :class:`FileFormatError`."""
    if cls.layout is not None:
        names = [slot for slot in cls.layout if isinstance(slot, str)]
        if len(dims) != len(names):
            raise FileFormatError(f"{cls.kind} signature must be [{', '.join(names)}]")
        given = iter(dims)
        dims = [next(given) if isinstance(slot, str) else slot for slot in cls.layout]
    try:
        return CombSignature(tuple(dims))
    except DimensionMismatchError as exc:
        raise FileFormatError(f"malformed {cls.kind} signature: {exc}") from exc


# The types of a JSON number.  bool is a subclass of int, and JSON true is
# not a number.
_NUMBER = (int, float)


def _entry(pair) -> complex:
    """The complex number of one ``[re, im]`` entry: a list of exactly two
    numbers."""
    if type(pair) is list and len(pair) == 2:
        real, imag = pair
        if type(real) in _NUMBER and type(imag) in _NUMBER:
            return complex(real, imag)
    raise FileFormatError(f"malformed matrix entry {pair!r}: expected [re, im], two numbers")


def json_to_matrix(rows) -> np.ndarray:
    try:
        out = np.array([[_entry(pair) for pair in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed matrix entry: {exc}") from exc
    if out.ndim != 2:
        raise FileFormatError("matrix must be a list of equal-length rows")
    fault = _entry_rule(out[None])[2]
    if fault:
        raise FileFormatError(fault)
    return out


def kind_of(obj) -> type:
    """The kind class of ``obj``: its exact class, which must be in
    :data:`KINDS`.  A subclass of a kind inherits the kind's name but is not
    that kind, and raises :class:`FileFormatError`."""
    cls = type(obj)
    if KINDS.get(getattr(cls, "kind", None)) is not cls:
        raise FileFormatError(f"unsupported object type {cls.__name__}")
    return cls


def object_to_payload(obj, metadata: dict | None = None) -> dict:
    cls = kind_of(obj)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": cls.kind,
        "signature": file_signature(cls, obj.signature),
        "outcomes": [np.asarray(m, dtype=complex) for m in obj.outcomes],
        "metadata": dict(metadata or {}),
    }


def _check_header(payload, format_name: str, what: str) -> None:
    """The header rule of ``what`` files, operator or certificate:
    ``payload`` is a JSON object, its ``version`` the integer
    ``FORMAT_VERSION`` and its ``format`` ``format_name``; anything else
    raises :class:`FileFormatError`."""
    if not isinstance(payload, dict):
        raise FileFormatError("top-level JSON value must be an object")
    version = payload.get("version")
    # bool is a subclass of int, and JSON true is not a version.
    if type(version) is not int or version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format version {version!r}; expected {FORMAT_VERSION}")
    if payload.get("format") != format_name:
        raise FileFormatError(f"not {what} file (format={payload.get('format')!r})")


def payload_to_object(payload: dict):
    _check_header(payload, FORMAT_NAME, "an operator")
    name = payload.get("kind")
    if not isinstance(name, str) or name not in KINDS:
        raise FileFormatError(f"unknown kind {name!r}; expected one of {tuple(KINDS)}")
    cls = KINDS[name]
    try:
        signature = payload["signature"]
        matrices = [json_to_matrix(m) for m in payload["outcomes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed operator file: {exc}") from exc
    # bool is a subclass of int, and JSON true is not a dimension.
    if not isinstance(signature, list) or any(type(d) is not int for d in signature):
        raise FileFormatError(f"signature must be a list of integers, got {signature!r}")
    if not matrices:
        raise FileFormatError("operator file lists no outcomes")
    sig = comb_signature(cls, signature)
    for m in matrices:
        if m.shape != (sig.total_dim, sig.total_dim):
            raise FileFormatError(
                f"matrix shape {m.shape} inconsistent with signature {signature}"
            )
    if cls.single is not None and len(matrices) != 1:
        raise FileFormatError(f"a {cls.kind} file must contain exactly one {cls.single}")
    return cls.from_view(sig, tuple(matrices))


# ``json``'s own writers: the escaped text of a string, and the text of any
# value without indent, which refuses a NaN or an infinity.
_string_text = json.encoder.encode_basestring_ascii
_compact_text = json.JSONEncoder(allow_nan=False).encode


def _scalar_text(value) -> str:
    """The text of a scalar, by the rules of ``json``'s encoder: a string
    escaped to ASCII, ``null``, ``true``, ``false``, ``int.__repr__`` and
    ``float.__repr__``; a NaN or an infinity raises ValueError.  Anything
    else, such as ``{}`` or ``[]``, goes to ``json`` itself."""
    if isinstance(value, str):
        return _string_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        return float.__repr__(value)
    return _compact_text(value)


def _matrix_text(m: np.ndarray, ind: str) -> str:
    """The text of a complex matrix, rows of ``[re, im]`` pairs, at the
    line prefix ``ind`` (a newline and the indent of its first line).

    One template holds the fixed indent strings, and ``%r`` writes each part
    with ``float.__repr__``, as ``json`` writes a float.
    """
    if m.ndim != 2:
        raise TypeError(f"a matrix must have two dimensions, got shape {m.shape}")
    # The [re, im] pairs of the entries, row-major: the complex array's float view.
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    if not np.isfinite(parts).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if not len(m):
        return "[]"
    i1, i2, i3 = ind + "  ", ind + "    ", ind + "      "
    row = f"[{i2}" + f",{i2}".join([f"[{i3}%r,{i3}%r{i2}]"] * m.shape[1]) + f"{i1}]" if m.shape[1] else "[]"
    template = f"[{i1}" + f",{i1}".join([row] * len(m)) + f"{ind}]"
    return template % tuple(parts.ravel().tolist())


def _pieces(value, ind: str, out: list) -> None:
    """Append the text of ``value`` at the line prefix ``ind``."""
    if isinstance(value, dict) and value:
        inner, sep = ind + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{inner}{_string_text(key)}: ")
            _pieces(value[key], inner, out)
            sep = ","
        out.append(ind + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner, sep = ind + "  ", "["
        for item in value:
            out.append(sep + inner)
            _pieces(item, inner, out)
            sep = ","
        out.append(ind + "]")
    elif isinstance(value, np.ndarray):
        out.append(_matrix_text(value, ind))
    else:
        out.append(_scalar_text(value))


def dumps_canonical(payload: dict) -> str:
    """The canonical text of ``payload``: the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` and a
    newline, where a complex ndarray stands for its rows of ``[re, im]``
    pairs.  Dictionary keys must be strings.  A NaN or infinity raises
    ValueError: JSON has no such number, and :func:`json_to_matrix` refuses
    it on reading."""
    out = []
    _pieces(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(path, payload: dict) -> None:
    """Write ``payload`` canonically; it is serialized before the file is
    opened, so a payload that cannot be written leaves no file behind."""
    text = dumps_canonical(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_object(path, obj, metadata: dict | None = None) -> None:
    _write(path, object_to_payload(obj, metadata))


def _read(path):
    """The JSON value of the file ``path``; invalid JSON raises
    :class:`FileFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc


def load_object(path):
    return payload_to_object(_read(path))


def certificate_to_payload(kind: str, cert, pol: TolerancePolicy) -> dict:
    """The payload of ``cert``, a :class:`~exqip.gqi.ExtremalityCertificate`
    of an object of kind ``kind``, decided at ``pol``."""
    payload = {
        "format": CERTIFICATE_FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "verdict": cert.verdict,
        "family_size": cert.family_size,
        "rank": cert.rank,
        "support_ranks": list(cert.support_ranks),
        "normalization_basis_size": cert.normalization_basis_size,
        "residuals": {},
        "tolerance": {"eps_rel": pol.eps_rel, "comb_factor": pol.comb_factor},
        "tool_version": __version__,
        "perturbation": None,
    }
    if cert.perturbation is not None:
        payload["perturbation"] = {
            "directions": [np.asarray(d, dtype=complex) for d in cert.perturbation.directions],
            "delta": np.asarray(cert.perturbation.delta, dtype=complex),
            "epsilon_star": cert.perturbation.epsilon_star,
        }
    return payload


def save_certificate(path, kind, cert, pol) -> None:
    _write(path, certificate_to_payload(kind, cert, pol))


def _count(value) -> int:
    # bool is a subclass of int, and JSON true is not a count.
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _step(value) -> float:
    # Python's json reads NaN and Infinity, which are no step size.
    if type(value) not in _NUMBER or not math.isfinite(value) or value < 0:
        raise ValueError(f"epsilon_star must be a finite non-negative number, got {value!r}")
    return float(value)


def load_certificate(path):
    """The :class:`~exqip.gqi.ExtremalityCertificate` in ``path``; a
    malformed file raises :class:`FileFormatError`, as
    :func:`payload_to_object` does.  It alone of this module imports
    :mod:`exqip.gqi`, whose records it builds."""
    from .gqi import ExtremalityCertificate, Perturbation

    payload = _read(path)
    _check_header(payload, CERTIFICATE_FORMAT_NAME, "a certificate")
    try:
        verdict = payload["verdict"]
        p = payload.get("perturbation")
        pert = None
        if p is not None:
            pert = Perturbation(
                directions=tuple(json_to_matrix(d) for d in p["directions"]),
                delta=json_to_matrix(p["delta"]),
                epsilon_star=_step(p["epsilon_star"]),
            )
        cert = ExtremalityCertificate(
            extremal=verdict == "extremal",
            family_size=_count(payload["family_size"]),
            rank=_count(payload["rank"]),
            support_ranks=tuple(_count(r) for r in payload["support_ranks"]),
            normalization_basis_size=_count(payload["normalization_basis_size"]),
            perturbation=pert,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed certificate file: {exc}") from exc
    if verdict not in ("extremal", "not_extremal"):
        raise FileFormatError(f"unknown verdict {verdict!r}")
    if cert.extremal != (pert is None):
        raise FileFormatError(f"verdict {verdict!r} contradicts the perturbation given")
    return cert
