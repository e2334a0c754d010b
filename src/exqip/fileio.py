"""Text-based operator and certificate files.

Operators are stored as JSON with complex entries encoded as ``[re, im]``
pairs, row-major, with explicit dimensions.  Canonical formatting (sorted
keys, two-space indent, trailing newline) makes write -> read -> write
byte-identical and the fixtures diff-able.

Signature semantics by kind:

* ``comb`` / ``gqi``:   ``[d_0, ..., d_{2N-1}]`` (label order)
* ``channel`` / ``instrument``: ``[d_0, d_1]`` (input, output)
* ``tester``: ``[d_1, d_2]`` (state space, measured output space)
* ``povm``:   ``[d]``
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .channels import Channel, Instrument
from .combs import CombSignature, DeterministicComb
from .errors import FileFormatError
from .gqi import ExtremalityCertificate, Gqi, Perturbation
from .linalg import TolerancePolicy
from .testers import Povm, Tester

FORMAT_NAME = "exqip-operator-file"
CERTIFICATE_FORMAT_NAME = "exqip-certificate"
FORMAT_VERSION = 1

KINDS = ("comb", "gqi", "tester", "channel", "instrument", "povm")


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def json_to_matrix(rows) -> np.ndarray:
    try:
        out = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise FileFormatError(f"malformed matrix entry: {exc}") from exc
    if out.ndim != 2:
        raise FileFormatError("matrix must be a list of equal-length rows")
    if not np.all(np.isfinite(out)):
        raise FileFormatError("matrix contains non-finite entries")
    return out


def object_kind(obj) -> str:
    if isinstance(obj, DeterministicComb):
        return "comb"
    if isinstance(obj, Gqi):
        return "gqi"
    if isinstance(obj, Tester):
        return "tester"
    if isinstance(obj, Channel):
        return "channel"
    if isinstance(obj, Instrument):
        return "instrument"
    if isinstance(obj, Povm):
        return "povm"
    raise FileFormatError(f"unsupported object type {type(obj).__name__}")


def object_to_payload(obj, metadata: dict | None = None) -> dict:
    kind = object_kind(obj)
    if kind == "comb":
        signature = list(obj.signature.dims)
        outcomes = [obj.operator]
    elif kind == "gqi":
        signature = list(obj.signature.dims)
        outcomes = list(obj.outcomes)
    elif kind == "tester":
        signature = [obj.d1, obj.d2]
        outcomes = list(obj.outcomes)
    elif kind == "channel":
        signature = [obj.d0, obj.d1]
        outcomes = [obj.choi]
    elif kind == "instrument":
        signature = [obj.d0, obj.d1]
        outcomes = list(obj.operators)
    else:
        signature = [obj.d]
        outcomes = list(obj.effects)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "signature": signature,
        "outcomes": [matrix_to_json(m) for m in outcomes],
        "metadata": dict(metadata or {}),
    }


def payload_to_object(payload: dict):
    if not isinstance(payload, dict):
        raise FileFormatError("top-level JSON value must be an object")
    if payload.get("format") != FORMAT_NAME:
        raise FileFormatError(f"not an operator file (format={payload.get('format')!r})")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise FileFormatError(f"unknown kind {kind!r}; expected one of {KINDS}")
    try:
        signature = [int(d) for d in payload["signature"]]
        matrices = [json_to_matrix(m) for m in payload["outcomes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed operator file: {exc}") from exc
    if not matrices:
        raise FileFormatError("operator file lists no outcomes")

    def expect(total: int):
        for m in matrices:
            if m.shape != (total, total):
                raise FileFormatError(
                    f"matrix shape {m.shape} inconsistent with signature {signature}"
                )

    if kind in ("comb", "gqi"):
        sig = CombSignature(tuple(signature))
        expect(sig.total_dim)
        if kind == "comb":
            if len(matrices) != 1:
                raise FileFormatError("a comb file must contain exactly one operator")
            return DeterministicComb(signature=sig, operator=matrices[0])
        return Gqi(signature=sig, outcomes=tuple(matrices))
    if kind == "tester":
        if len(signature) != 2:
            raise FileFormatError("tester signature must be [d1, d2]")
        d1, d2 = signature
        expect(d1 * d2)
        return Tester(d2=d2, d1=d1, outcomes=tuple(matrices))
    if kind == "channel":
        if len(signature) != 2:
            raise FileFormatError("channel signature must be [d0, d1]")
        d0, d1 = signature
        expect(d0 * d1)
        if len(matrices) != 1:
            raise FileFormatError("a channel file must contain exactly one Choi operator")
        return Channel(d1=d1, d0=d0, choi=matrices[0])
    if kind == "instrument":
        if len(signature) != 2:
            raise FileFormatError("instrument signature must be [d0, d1]")
        d0, d1 = signature
        expect(d0 * d1)
        return Instrument(d1=d1, d0=d0, operators=tuple(matrices))
    if len(signature) != 1:
        raise FileFormatError("povm signature must be [d]")
    expect(signature[0])
    return Povm(d=signature[0], effects=tuple(matrices))


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_object(path, obj, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(object_to_payload(obj, metadata)))


def load_object(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    return payload_to_object(payload)


def certificate_to_payload(
    kind: str,
    cert: ExtremalityCertificate,
    pol: TolerancePolicy,
    residuals: dict | None = None,
) -> dict:
    payload = {
        "format": CERTIFICATE_FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "verdict": cert.verdict,
        "family_size": cert.family_size,
        "rank": cert.rank,
        "support_ranks": list(cert.support_ranks),
        "normalization_basis_size": cert.normalization_basis_size,
        "residuals": dict(residuals or {}),
        "tolerance": {"eps_rel": pol.eps_rel, "comb_factor": pol.comb_factor},
        "tool_version": __version__,
        "perturbation": None,
    }
    if cert.perturbation is not None:
        payload["perturbation"] = {
            "directions": [matrix_to_json(d) for d in cert.perturbation.directions],
            "delta": matrix_to_json(cert.perturbation.delta),
            "epsilon_star": cert.perturbation.epsilon_star,
        }
    return payload


def save_certificate(path, kind, cert, pol, residuals=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(certificate_to_payload(kind, cert, pol, residuals)))


def load_certificate(path) -> ExtremalityCertificate:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    if payload.get("format") != CERTIFICATE_FORMAT_NAME:
        raise FileFormatError("not a certificate file")
    pert = None
    if payload.get("perturbation") is not None:
        p = payload["perturbation"]
        pert = Perturbation(
            directions=tuple(json_to_matrix(d) for d in p["directions"]),
            delta=json_to_matrix(p["delta"]),
            epsilon_star=float(p["epsilon_star"]),
        )
    return ExtremalityCertificate(
        extremal=payload["verdict"] == "extremal",
        family_size=int(payload["family_size"]),
        rank=int(payload["rank"]),
        support_ranks=tuple(payload["support_ranks"]),
        normalization_basis_size=int(payload["normalization_basis_size"]),
        perturbation=pert,
    )
