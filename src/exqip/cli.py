"""Command-line interface.

Subcommands::

    exqip validate FILE              check positivity + normalization structure
    exqip extremal FILE              decide extremality, optionally emit a certificate
    exqip decompose FILE --out DIR   binary convex decomposition tree
    exqip generate KIND --out FILE   write example objects
    exqip suite NAME                 run a randomized property suite

Exit codes: 0 success, 1 mathematical failure (invalid object, failing suite,
undecomposable input), 2 usage or file-format error.  The working tolerance is
``--tol`` or the ``EXQIP_TOL`` environment variable (relative epsilon,
default 1e-10).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import channels, combs, fileio, gqi as gqi_mod, linalg, suites, testers
from .combs import CombSignature
from .errors import DimensionMismatchError, ExqipError, FileFormatError, SizeLimitError, ValidationError
from .gqi import Gqi
from .linalg import TolerancePolicy
from .testers import Povm, Tester


# Estimated peak bytes per matrix entry of writing a generated operator,
# mostly the JSON lists and text of the file: measured at 73 MB for D = 256,
# 627 MB for D = 1024 and 2.9 GB for D = 2304 (`generate random-comb`,
# CPython 3.11, numpy 2.4).
GENERATE_BYTES_PER_ENTRY = 600


def _policy(args, dim: int = 1) -> TolerancePolicy:
    """The working policy for objects of total dimension up to ``dim``.  A
    tolerance with dim * eps_rel >= 1 is refused: there the support cutoff
    lies at or above every eigenvalue, so every support would be empty."""
    eps = os.environ.get("EXQIP_TOL") if args.tol is None else args.tol
    pol = linalg.DEFAULT_TOL if eps is None else TolerancePolicy(eps_rel=float(eps))
    if not 0.0 < pol.eps_rel < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {pol.eps_rel}")
    if dim * pol.eps_rel >= 1.0:
        raise ValueError(f"tolerance {pol.eps_rel:g} leaves every support empty at dimension {dim}")
    return pol


def _check_count(value: int, flag: str) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be a non-negative integer, got {value}")


def _load(args):
    """The working policy, the object of ``args.file`` and its kind."""
    obj = fileio.load_object(args.file)
    return _policy(args, obj.signature.total_dim), obj, fileio.kind_of(obj)


def _validate_report(obj, kind: fileio.Kind, pol: TolerancePolicy) -> dict:
    ok, verdict = kind.verdict(obj, pol)
    residuals = [float(r) for r in verdict.comb_verdict.level_residuals]
    return {
        "kind": kind.name,
        "valid": bool(ok),
        "outcomes": len(obj.outcomes),
        "signature": list(obj.signature.dims),
        "min_eigenvalues": [float(x) for x in verdict.outcome_min_eigenvalues],
        "cascade_residuals": residuals,
        **dict(zip(kind.residual_names, residuals)),
    }


def _certificate(obj, kind: fileio.Kind, pol: TolerancePolicy) -> gqi_mod.ExtremalityCertificate:
    """Validate through the kind table, then decide on the GQI view."""
    ok, verdict = kind.verdict(obj, pol)
    if not ok:
        raise ValidationError(f"not a valid {kind.name}; `exqip validate` reports why")
    return gqi_mod.is_extremal(obj, pol=pol, validation=verdict)


def cmd_validate(args) -> int:
    pol, obj, kind = _load(args)
    report = _validate_report(obj, kind, pol)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["valid"] else 1


def cmd_extremal(args) -> int:
    pol, obj, kind = _load(args)
    cert = _certificate(obj, kind, pol)
    print(
        json.dumps(
            {
                "kind": kind.name,
                "verdict": cert.verdict,
                "family_size": cert.family_size,
                "rank": cert.rank,
                "support_ranks": list(cert.support_ranks),
                "epsilon_star": None
                if cert.perturbation is None
                else cert.perturbation.epsilon_star,
            },
            indent=2,
            sort_keys=True,
        )
    )
    if args.certificate:
        fileio.save_certificate(args.certificate, kind.name, cert, pol)
    return 0


def cmd_decompose(args) -> int:
    _check_count(args.steps, "--steps")
    pol, obj, kind = _load(args)
    cert = _certificate(obj, kind, pol)
    if cert.extremal:
        print("input is extremal; nothing to decompose", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)

    leaves = []

    def descend(g: Gqi, weight: float, depth: int, c: gqi_mod.ExtremalityCertificate | None = None) -> None:
        if depth >= args.steps:
            leaves.append((g, weight, depth, None))
            return
        if c is None:
            c = gqi_mod.is_extremal(g, pol=pol)
        if c.extremal:
            leaves.append((g, weight, depth, "extremal"))
            return
        if c.perturbation.epsilon_star == 0.0:
            # No step is feasible: both sides would be the node itself.
            leaves.append((g, weight, depth, None))
            return
        plus, minus = gqi_mod.decompose_step(g, pol=pol, certificate=c)
        descend(plus, weight / 2.0, depth + 1)
        descend(minus, weight / 2.0, depth + 1)

    descend(obj, 1.0, 0, cert)

    recon = [np.zeros_like(t) for t in obj.outcomes]
    for g, w, _, _ in leaves:
        for i, t in enumerate(g.outcomes):
            recon[i] = recon[i] + w * t
    residual = max(linalg.max_abs(a - b) for a, b in zip(recon, obj.outcomes))

    entries = []
    for idx, (g, w, depth, status) in enumerate(leaves):
        name = f"leaf_{idx:03d}.json"
        fileio.save_object(
            os.path.join(args.out, name),
            kind.build(g.signature, g.outcomes),
            metadata={"weight": w, "depth": depth},
        )
        entries.append({"file": name, "weight": w, "depth": depth, "status": status})

    summary = {
        "kind": kind.name,
        "steps": args.steps,
        "leaves": entries,
        "total_weight": sum(e["weight"] for e in entries),
        "reconstruction_residual": float(residual),
    }
    text = fileio.dumps_canonical(summary)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if residual <= 1e-8 else 1


def _parse_signature(text: str) -> CombSignature:
    try:
        return CombSignature(tuple(int(part) for part in text.split(",") if part.strip()))
    except (ValueError, DimensionMismatchError) as exc:
        raise ValueError(f"bad signature {text!r}: {exc}") from exc


def cmd_generate(args) -> int:
    pol = _policy(args)
    if args.kind == "two-outcome-qubit-tester":
        if not math.isfinite(args.schmidt_angle):
            raise ValueError(f"--schmidt-angle must be a finite number, got {args.schmidt_angle}")
        obj = testers.schmidt_tester(args.schmidt_angle)
        meta = {"schmidt_angle": args.schmidt_angle}
    elif args.kind == "split-tester":
        if args.base is None:
            raise ValueError("split-tester needs --base")
        base = fileio.load_object(args.base)
        if not isinstance(base, Tester):
            raise FileFormatError("--base must point to a tester file")
        if not 0 <= args.outcome < base.n_outcomes:
            raise ValueError(f"--outcome {args.outcome} out of range for {base.n_outcomes} outcomes")
        if args.sub_povm:
            sub = fileio.load_object(args.sub_povm)
            if not isinstance(sub, Povm):
                raise FileFormatError("--sub-povm must point to a povm file")
            effects = sub.effects
        else:
            effects = testers.projective_split_effects(base.outcomes[args.outcome], pol)
        obj = testers.split_outcome(base, args.outcome, effects, pol)
        meta = {"base": os.path.basename(args.base), "outcome": args.outcome}
    elif args.kind == "combination":
        if args.k != 5 and args.k not in channels.APPENDIX_TABLE:
            raise ValueError(f"unknown combination {args.k}; valid rows are 1,2,3,4,6,7,8")
        obj = channels.combination_fixture(args.k)
        meta = {"combination": args.k}
    elif args.kind == "random-comb":
        if not 0.0 <= args.spread <= 1.0:
            raise ValueError(f"--spread must lie in [0, 1], got {args.spread}")
        sig = _parse_signature(args.signature)
        need = GENERATE_BYTES_PER_ENTRY * sig.total_dim ** 2
        if need > gqi_mod.RANK_STAGE_BUDGET:
            raise SizeLimitError(
                f"a random comb at signature {sig.dims} needs about {need:,} bytes, "
                f"above the budget of {gqi_mod.RANK_STAGE_BUDGET:,} bytes"
            )
        obj = combs.random_deterministic_comb(sig, seed=args.seed, spread=args.spread)
        meta = {"seed": args.seed, "spread": args.spread}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    fileio.save_object(args.out, obj, metadata=meta)
    print(f"wrote {fileio.kind_of(obj).name} to {args.out}")
    return 0


def cmd_suite(args) -> int:
    _check_count(args.seeds, "--seeds")
    pol = _policy(args, suites.LARGEST_DIM[args.name])
    if args.name == "xi-invariance":
        # xi_transform needs a full-rank state: its eigenvalues must lie
        # above the support cutoff supp_tol(2, 1).
        floor = suites.smallest_state_eigenvalue(2)
        if pol.supp_tol(2, 1.0) >= floor:
            raise ValueError(
                f"tolerance {pol.eps_rel:g} puts the support cutoff at or above {floor:.4g}, "
                "the smallest eigenvalue of the states xi-invariance draws"
            )
    result = suites.run_suite(args.name, seeds=args.seeds, pol=pol)
    print(json.dumps(result.summary(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exqip",
        description="Validate, classify, and decompose quantum protocol operators.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="relative tolerance epsilon (default: EXQIP_TOL or 1e-10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an operator file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extremal", help="decide extremality")
    p.add_argument("file")
    p.add_argument("--certificate", help="write a certificate JSON here")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("decompose", help="binary convex decomposition")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=1, help="maximum tree depth")
    p.add_argument("--out", required=True, help="output directory for leaves")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="write an example object")
    p.add_argument(
        "kind",
        choices=["two-outcome-qubit-tester", "split-tester", "combination", "random-comb"],
    )
    p.add_argument("--out", required=True)
    p.add_argument("--schmidt-angle", type=float, default=0.5)
    p.add_argument("--base", help="tester file to split (split-tester)")
    p.add_argument("--outcome", type=int, default=1, help="outcome index to split")
    p.add_argument("--sub-povm", help="povm file for the split (default: projective)")
    p.add_argument("--k", type=int, default=1, help="extremality-table row (combination)")
    p.add_argument("--signature", default="2,2", help="comma-separated dims (random-comb)")
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("suite", help="run a randomized property suite")
    p.add_argument("name", choices=sorted(suites.SUITES))
    p.add_argument("--seeds", type=int, default=200)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileFormatError, FileNotFoundError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExqipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
