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
default 1e-10).  It is only parsed here, by :func:`main`, which hands it to
the command: the GQI core refuses a vacuous tolerance with
``ToleranceError``, a ``ValueError`` and so exit 2.

This module holds the parser, :func:`main` and the handlers of
``validate`` and ``extremal``, so that a fresh process of either compiles
no other command's code; ``validate`` loads no :mod:`exqip.gqi`, which only
``extremal`` imports.  The handlers of ``decompose``, ``generate`` and
``suite`` live in :mod:`exqip.commands`, which only those commands import.
The parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import combs, fileio
from .errors import ExqipError, FileFormatError, SizeLimitError
from .linalg import DEFAULT_TOL, TolerancePolicy


# The names of ``suites.SUITES``, kept here so that building the parser
# imports no suite code; `exqip validate` and `exqip extremal` load neither
# the suites nor the channel and tester criteria.
SUITE_NAMES = ("appendix-c", "bounds", "equivalence", "xi-invariance")

# The commands whose handlers are in this module; the others' handlers are
# in ``commands``, which only they import.
COLD_COMMANDS = ("validate", "extremal")


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


def _validate_report(obj, pol: TolerancePolicy) -> dict:
    verdict = combs.is_valid_gqi(obj, pol=pol)
    residuals = [float(r) for r in verdict.comb_verdict.level_residuals]
    return {
        "kind": obj.kind,
        "valid": bool(verdict.ok),
        "outcomes": len(obj.outcomes),
        "signature": list(obj.signature.dims),
        "min_eigenvalues": [float(x) for x in verdict.outcome_min_eigenvalues],
        "cascade_residuals": residuals,
        **dict(zip(obj.residual_names, residuals)),
    }


def cmd_validate(args, pol: TolerancePolicy) -> int:
    obj = fileio.load_object(args.file)
    report = _validate_report(obj, pol)
    sys.stdout.write(fileio.dumps_canonical(report))
    return 0 if report["valid"] else 1


def cmd_extremal(args, pol: TolerancePolicy) -> int:
    from . import gqi

    obj = fileio.load_object(args.file)
    cert = gqi.is_extremal(obj, pol=pol)
    report = {
        "kind": obj.kind,
        "verdict": cert.verdict,
        "family_size": cert.family_size,
        "rank": cert.rank,
        "support_ranks": list(cert.support_ranks),
        "epsilon_star": None if cert.perturbation is None else cert.perturbation.epsilon_star,
    }
    # Written first, so that a path that cannot be written prints no report.
    if args.certificate:
        fileio.save_certificate(args.certificate, obj.kind, cert, pol)
    sys.stdout.write(fileio.dumps_canonical(report))
    return 0


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
    name = f"cmd_{args.command}"
    if args.command in COLD_COMMANDS:
        command = globals()[name]
    else:
        from . import commands

        command = getattr(commands, name)
    try:
        return command(args, _policy(args))
    except (FileFormatError, OSError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExqipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
