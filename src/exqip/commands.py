"""The handlers of ``exqip decompose``, ``exqip generate`` and ``exqip suite``.

:func:`exqip.cli.main` imports this module only when one of these commands
runs, so that a fresh ``validate`` or ``extremal`` compiles none of it.
Each handler takes the parsed arguments and the working policy, as the
handlers in :mod:`exqip.cli` do, and returns the exit code.

``decompose`` only writes the tree of ``gqi.decompose``: a file per leaf,
in depth-first order, and ``summary.json`` (README, "Deciding a
population").  An invalid object or node is refused by the one gate of
``combs``, with its message.
"""

from __future__ import annotations

import math
import os
import sys

from . import combs, fileio, gqi
from .combs import CombSignature, Povm, Tester
from .errors import DimensionMismatchError, ExtremalInputError, FileFormatError, SizeLimitError
from .linalg import TolerancePolicy


# An upper bound on the peak bytes per matrix entry of generating and
# writing an operator, mostly the text of the file and its pieces: a fresh
# `generate random-comb` peaks at 58 MB for D = 256 and 311 MB for D = 1024
# (CPython 3.11, numpy 2.4).  600 is what the writer that built JSON lists
# took at D = 1024 (627 MB).
GENERATE_BYTES_PER_ENTRY = 600


def _check_count(value: int, flag: str) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be a non-negative integer, got {value}")


def cmd_decompose(args, pol: TolerancePolicy) -> int:
    _check_count(args.steps, "--steps")
    # Leaves of an earlier tree would stay beside the new ones.
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ValueError(f"--out {args.out} is not empty")
    obj = fileio.load_object(args.file)
    try:
        leaves, residual = gqi.decompose(obj, args.steps, pol)
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
        "kind": obj.kind,
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


def cmd_generate(args, pol: TolerancePolicy) -> int:
    from . import channels, testers

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
        if need > combs.RANK_STAGE_BUDGET:
            raise SizeLimitError(
                f"a random comb at signature {sig.dims} needs about {need:,} bytes, "
                f"above the budget of {combs.RANK_STAGE_BUDGET:,} bytes"
            )
        obj = combs.random_deterministic_comb(sig, seed=args.seed, spread=args.spread)
        meta = {"seed": args.seed, "spread": args.spread}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    fileio.save_object(args.out, obj, metadata=meta)
    print(f"wrote {obj.kind} to {args.out}")
    return 0


def cmd_suite(args, pol: TolerancePolicy) -> int:
    from . import suites

    _check_count(args.seeds, "--seeds")
    result = suites.run_suite(args.name, seeds=args.seeds, pol=pol)
    sys.stdout.write(fileio.dumps_canonical(result.summary()))
    return 0 if result.ok else 1
