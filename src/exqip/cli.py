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
default 1e-10).  It is only parsed here: the GQI core refuses a vacuous
tolerance with ``ToleranceError``, a ``ValueError`` and so exit 2.

``decompose`` only writes the tree of ``gqi.decompose``: a file per leaf,
in depth-first order, and ``summary.json`` (README, "Deciding a
population").  An invalid object or node is refused by the one gate of
``gqi``, with its message.  The parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import combs, fileio, gqi as gqi_mod
from .combs import CombSignature
from .errors import DimensionMismatchError, ExqipError, ExtremalInputError, FileFormatError, SizeLimitError
from .gqi import Povm, Tester
from .linalg import DEFAULT_TOL, TolerancePolicy


# An upper bound on the peak bytes per matrix entry of generating and
# writing an operator, mostly the text of the file and its pieces: a fresh
# `generate random-comb` peaks at 58 MB for D = 256 and 311 MB for D = 1024
# (CPython 3.11, numpy 2.4).  600 is what the writer that built JSON lists
# took at D = 1024 (627 MB).
GENERATE_BYTES_PER_ENTRY = 600

# The names of ``suites.SUITES``, kept here so that building the parser
# imports no suite code; `exqip validate` and `exqip extremal` load neither
# the suites nor the channel and tester criteria.
SUITE_NAMES = ("appendix-c", "bounds", "equivalence", "xi-invariance")


def _policy(args) -> TolerancePolicy:
    """The working policy, from ``--tol`` or ``EXQIP_TOL``.  The core refuses
    a tolerance outside (0, 1), or one that leaves a verdict vacuous."""
    eps = args.tol
    if eps is None and "EXQIP_TOL" in os.environ:
        text = os.environ["EXQIP_TOL"]
        try:
            eps = float(text)
        except ValueError:
            raise ValueError(f"EXQIP_TOL must be a number, got {text!r}") from None
    return DEFAULT_TOL if eps is None else TolerancePolicy(eps_rel=eps)


def _check_count(value: int, flag: str) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be a non-negative integer, got {value}")


def _load(args):
    """The working policy, the object of ``args.file`` and its kind."""
    obj = fileio.load_object(args.file)
    return _policy(args), obj, fileio.kind_of(obj)


def _validate_report(obj, kind: fileio.Kind, pol: TolerancePolicy) -> dict:
    verdict = gqi_mod.is_valid_gqi(obj, pol=pol)
    residuals = [float(r) for r in verdict.comb_verdict.level_residuals]
    return {
        "kind": kind.name,
        "valid": bool(verdict.ok),
        "outcomes": len(obj.outcomes),
        "signature": list(obj.signature.dims),
        "min_eigenvalues": [float(x) for x in verdict.outcome_min_eigenvalues],
        "cascade_residuals": residuals,
        **dict(zip(kind.residual_names, residuals)),
    }


def cmd_validate(args) -> int:
    pol, obj, kind = _load(args)
    report = _validate_report(obj, kind, pol)
    sys.stdout.write(fileio.dumps_canonical(report))
    return 0 if report["valid"] else 1


def cmd_extremal(args) -> int:
    pol, obj, kind = _load(args)
    cert = gqi_mod.is_extremal(obj, pol=pol)
    report = {
        "kind": kind.name,
        "verdict": cert.verdict,
        "family_size": cert.family_size,
        "rank": cert.rank,
        "support_ranks": list(cert.support_ranks),
        "epsilon_star": None if cert.perturbation is None else cert.perturbation.epsilon_star,
    }
    # Written first, so that a path that cannot be written prints no report.
    if args.certificate:
        fileio.save_certificate(args.certificate, kind.name, cert, pol)
    sys.stdout.write(fileio.dumps_canonical(report))
    return 0


def cmd_decompose(args) -> int:
    _check_count(args.steps, "--steps")
    # Leaves of an earlier tree would stay beside the new ones.
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ValueError(f"--out {args.out} is not empty")
    pol, obj, kind = _load(args)
    try:
        leaves, residual = gqi_mod.decompose(obj, args.steps, pol)
    except ExtremalInputError:
        print("input is extremal; nothing to decompose", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for idx, (path, g, w, status) in enumerate(leaves):
        name, depth = f"leaf_{idx:03d}.json", len(path)
        fileio.save_object(os.path.join(args.out, name), g, metadata={"weight": w, "depth": depth})
        entries.append({"file": name, "weight": w, "depth": depth, "status": status})

    summary = {
        "kind": kind.name,
        "steps": args.steps,
        "leaves": entries,
        "total_weight": sum(e["weight"] for e in entries),
        "reconstruction_residual": residual,
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
    from . import channels, testers

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
            if sub.d != base.d1 * base.d2:
                raise FileFormatError(
                    f"--sub-povm is on d = {sub.d}, but the tester's outcomes are on d_1 d_2 = "
                    f"{base.d1 * base.d2}"
                )
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
        _check_count(args.seed, "--seed")
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
    from . import suites

    _check_count(args.seeds, "--seeds")
    result = suites.run_suite(args.name, seeds=args.seeds, pol=_policy(args))
    sys.stdout.write(fileio.dumps_canonical(result.summary()))
    return 0 if result.ok else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    namespace on every call."""
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

    p = sub.add_parser("extremal", help="decide extremality")
    p.add_argument("file")
    p.add_argument("--certificate", help="write a certificate JSON here")

    p = sub.add_parser("decompose", help="binary convex decomposition")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=1, help="maximum tree depth")
    p.add_argument("--out", required=True, help="output directory for leaves")

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

    p = sub.add_parser("suite", help="run a randomized property suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--seeds", type=int, default=200)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # Looked up by name on each call, so that the cached parser holds no
    # command function and a wrapped or replaced one is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (FileFormatError, OSError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExqipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
