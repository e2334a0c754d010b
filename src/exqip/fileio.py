"""Text-based operator and certificate files.

Operators are stored as JSON with complex entries encoded as ``[re, im]``
pairs, row-major, with explicit dimensions.  Canonical formatting (sorted
keys, two-space indent, trailing newline) makes write -> read -> write
byte-identical and the fixtures diff-able.

Every object kind is a GQI: it exposes ``signature``, the comb signature of
its GQI view ``Gqi(x.signature, x.outcomes)``, and ``outcomes``.  The file
signature by kind, and the comb signature it stands for:

* ``comb`` / ``gqi``:   ``[d_0, ..., d_{2N-1}]`` (label order), itself
* ``channel`` / ``instrument``: ``[d_0, d_1]`` (input, output), itself
* ``tester``: ``[d_1, d_2]`` (state space, measured output space), on
  ``(1, d_1, d_2, 1)``
* ``povm``:   ``[d]``, on ``(d, 1)``
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from . import gqi as gqi_mod
from . import testers
from .channels import Channel, Instrument
from .combs import CombSignature, DeterministicComb
from .errors import DimensionMismatchError, FileFormatError
from .gqi import ExtremalityCertificate, Gqi, Perturbation
from .linalg import TolerancePolicy
from .testers import Povm, Tester

FORMAT_NAME = "exqip-operator-file"
CERTIFICATE_FORMAT_NAME = "exqip-certificate"
FORMAT_VERSION = 1


def _gqi_verdict(obj, pol: TolerancePolicy):
    verdict = gqi_mod.is_valid_gqi(Gqi(obj.signature, obj.outcomes), pol=pol)
    return verdict.ok, verdict


def _tester_verdict(t: Tester, pol: TolerancePolicy):
    return testers.tester_verdict(t, pol=pol)[:2]


@dataclass(frozen=True)
class Kind:
    """One object kind: its name in files, its class and its file signature.

    ``layout`` is the comb signature of the kind's GQI view with the names of
    the file's dimensions in their places, or ``None`` when the file holds
    the comb signature itself.  ``build`` makes an object from a comb
    signature and outcomes; ``single`` names the one operator a file of the
    kind must hold, if it holds one.  ``verdict`` returns ``(ok, GqiVerdict)``
    for an object, and ``residual_names`` are the kind's own names for the
    leading cascade residuals.
    """

    name: str
    cls: type
    layout: tuple | None
    build: Callable
    single: str | None = None
    verdict: Callable = _gqi_verdict
    residual_names: tuple = ()

    def file_signature(self, sig: CombSignature) -> list:
        if self.layout is None:
            return list(sig.dims)
        return [d for d, slot in zip(sig.dims, self.layout) if isinstance(slot, str)]

    def comb_signature(self, dims: list) -> CombSignature:
        if self.layout is not None:
            names = [slot for slot in self.layout if isinstance(slot, str)]
            if len(dims) != len(names):
                raise FileFormatError(f"{self.name} signature must be [{', '.join(names)}]")
            given = iter(dims)
            dims = [next(given) if isinstance(slot, str) else slot for slot in self.layout]
        try:
            return CombSignature(tuple(dims))
        except DimensionMismatchError as exc:
            raise FileFormatError(f"malformed {self.name} signature: {exc}") from exc


KINDS = {
    k.name: k
    for k in (
        Kind("comb", DeterministicComb, None, lambda s, o: DeterministicComb(s, o[0]), "operator"),
        Kind("gqi", Gqi, None, Gqi),
        Kind("tester", Tester, (1, "d1", "d2", 1), lambda s, o: Tester(d2=s.dims[2], d1=s.dims[1], outcomes=o),
             verdict=_tester_verdict, residual_names=("product_form_residual",)),
        Kind("channel", Channel, ("d0", "d1"), lambda s, o: Channel(d1=s.dims[1], d0=s.dims[0], choi=o[0]),
             "Choi operator"),
        Kind("instrument", Instrument, ("d0", "d1"),
             lambda s, o: Instrument(d1=s.dims[1], d0=s.dims[0], operators=o)),
        Kind("povm", Povm, ("d", 1), lambda s, o: Povm(d=s.dims[0], effects=o)),
    )
}


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


def kind_of(obj) -> Kind:
    for kind in KINDS.values():
        if isinstance(obj, kind.cls):
            return kind
    raise FileFormatError(f"unsupported object type {type(obj).__name__}")


def object_to_payload(obj, metadata: dict | None = None) -> dict:
    kind = kind_of(obj)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind.name,
        "signature": kind.file_signature(obj.signature),
        "outcomes": [matrix_to_json(m) for m in obj.outcomes],
        "metadata": dict(metadata or {}),
    }


def payload_to_object(payload: dict):
    if not isinstance(payload, dict):
        raise FileFormatError("top-level JSON value must be an object")
    if payload.get("format") != FORMAT_NAME:
        raise FileFormatError(f"not an operator file (format={payload.get('format')!r})")
    name = payload.get("kind")
    if not isinstance(name, str) or name not in KINDS:
        raise FileFormatError(f"unknown kind {name!r}; expected one of {tuple(KINDS)}")
    kind = KINDS[name]
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
    sig = kind.comb_signature(signature)
    for m in matrices:
        if m.shape != (sig.total_dim, sig.total_dim):
            raise FileFormatError(
                f"matrix shape {m.shape} inconsistent with signature {signature}"
            )
    if kind.single is not None and len(matrices) != 1:
        raise FileFormatError(f"a {kind.name} file must contain exactly one {kind.single}")
    return kind.build(sig, tuple(matrices))


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


def certificate_to_payload(kind: str, cert: ExtremalityCertificate, pol: TolerancePolicy) -> dict:
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
            "directions": [matrix_to_json(d) for d in cert.perturbation.directions],
            "delta": matrix_to_json(cert.perturbation.delta),
            "epsilon_star": cert.perturbation.epsilon_star,
        }
    return payload


def save_certificate(path, kind, cert, pol) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(certificate_to_payload(kind, cert, pol)))


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
