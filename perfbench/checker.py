"""Output checker for the benchmark: numpy only, never imports exqip.

Every verdict, certificate, decomposition tree and suite report the program
produces during a run is checked here against independent computations and
against properties the paper guarantees, never against stored output.

Tolerances (absolute, on operators whose largest eigenvalue is at most 1):

* ``PSD_TOL``: an operator counts as positive when its smallest eigenvalue is
  at least ``-PSD_TOL * max(1, lambda_max)``;
* ``CASCADE_TOL``: largest entry of each comb-cascade residual;
* ``RECON_TOL``: largest entry of a tree's reconstruction error, as the
  program itself promises;
* ``SUPPORT_TOL``: eigenvalues above ``SUPPORT_TOL * max(1, lambda_max)``
  count towards a support rank;
* ``RANK_TOL``: singular values above ``RANK_TOL * sigma_max * max(m, n)``
  count towards the rank of a Kraus-product family.
"""

from __future__ import annotations

import math

import numpy as np

PSD_TOL = 1e-8
CASCADE_TOL = 1e-8
RECON_TOL = 1e-8
SUPPORT_TOL = 1e-8
RANK_TOL = 1e-10


class CheckError(AssertionError):
    """The program's output contradicts an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Object views and validity
# ---------------------------------------------------------------------------


def comb_dims(kind: str, signature) -> tuple:
    """Comb signature (d_0, ..., d_{2N-1}) of the GQI view of a file object."""
    sig = [int(d) for d in signature]
    if kind in ("comb", "gqi"):
        return tuple(sig)
    if kind in ("channel", "instrument"):
        return (sig[0], sig[1])
    if kind == "tester":
        return (1, sig[0], sig[1], 1)
    if kind == "povm":
        return (sig[0], 1)
    raise CheckError(f"unknown kind {kind!r}")


def partial_trace(a: np.ndarray, kron_dims, traced) -> np.ndarray:
    n = len(kron_dims)
    t = a.reshape(*kron_dims, *kron_dims)
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + n)
        n -= 1
    keep = math.prod(d for i, d in enumerate(kron_dims) if i not in traced)
    return t.reshape(keep, keep)


def min_eig_ok(a: np.ndarray) -> tuple:
    h = (a + a.conj().T) / 2
    w = np.linalg.eigvalsh(h)
    return bool(w[0] >= -PSD_TOL * max(1.0, float(w[-1]))), float(w[0])


def cascade_residuals(r: np.ndarray, dims) -> list:
    """Residuals of Tr_{2n-1} R^(n) = I_{2n-2} (x) R^(n-1), down to Tr_1 R^(1) = I_0."""
    residuals = []
    current = r
    for level in range(len(dims) // 2, 0, -1):
        sub = tuple(reversed(dims[: 2 * level]))  # Kronecker order
        lhs = partial_trace(current, sub, {0})
        d_even = dims[2 * level - 2]
        lower = partial_trace(current, sub, {0, 1}) / d_even
        rhs = np.kron(np.eye(d_even), lower)
        residuals.append(float(np.abs(lhs - rhs).max()))
        current = lower
    residuals.append(abs(complex(current.reshape(-1)[0]) - 1.0))
    return residuals


def check_valid(outcomes, dims, what: str = "object") -> None:
    """Every outcome PSD, Hermitian, and the sum a deterministic comb."""
    total = math.prod(dims)
    for i, t in enumerate(outcomes):
        require(t.shape == (total, total), f"{what}: outcome {i} has shape {t.shape}")
        require(
            float(np.abs(t - t.conj().T).max()) <= CASCADE_TOL,
            f"{what}: outcome {i} is not Hermitian",
        )
        ok, lam = min_eig_ok(t)
        require(ok, f"{what}: outcome {i} has eigenvalue {lam:.3e}")
    res = cascade_residuals(sum(outcomes), dims)
    require(max(res) <= CASCADE_TOL, f"{what}: cascade residuals {res}")


def support_rank(t: np.ndarray) -> int:
    w = np.linalg.eigvalsh((t + t.conj().T) / 2)
    return int(np.count_nonzero(w > SUPPORT_TOL * max(1.0, float(w[-1]))))


def variable_count(dims) -> int:
    """|V|: sum over teeth of (d_{2n-1}^2 - 1) * (d_0 ... d_{2n-2})^2."""
    return sum(
        (dims[2 * n - 1] ** 2 - 1) * math.prod(dims[: 2 * n - 1]) ** 2
        for n in range(1, len(dims) // 2 + 1)
    )


# ---------------------------------------------------------------------------
# Kraus-product criterion (Choi's theorem and its instrument form)
# ---------------------------------------------------------------------------


def kraus_from_choi(choi: np.ndarray, d_out: int, d_in: int) -> list:
    w, v = np.linalg.eigh((choi + choi.conj().T) / 2)
    cut = SUPPORT_TOL * max(1.0, float(w[-1]))
    return [math.sqrt(w[m]) * v[:, m].reshape(d_out, d_in) for m in range(w.size) if w[m] > cut]


def independent(mats) -> bool:
    x = np.array([np.asarray(m).ravel() for m in mats])
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0] * max(x.shape))) == len(mats)


def kraus_product_extremal(outcome_kraus) -> bool:
    """{K_m^(i)dagger K_n^(i)} pooled over outcomes must be linearly independent."""
    return independent([km.conj().T @ kn for ks in outcome_kraus for km in ks for kn in ks])


def instrument_extremal(ops, d_out: int, d_in: int) -> bool:
    return kraus_product_extremal([kraus_from_choi(n, d_out, d_in) for n in ops])


def povm_extremal(effects) -> bool:
    """Pooled {v_m v_n^dagger} over each effect's support must be independent
    (the Kraus-product criterion with rank-one Kraus rows)."""
    rows = []
    for e in effects:
        w, v = np.linalg.eigh((e + e.conj().T) / 2)
        cut = SUPPORT_TOL * max(1.0, float(w[-1]))
        rows.append([v[:, m].conj()[None, :] for m in range(w.size) if w[m] > cut])
    return kraus_product_extremal(rows)


def comb_channel_kraus(op: np.ndarray, dims) -> list:
    """Kraus operators of a comb read as one channel from its inputs
    (H_0, H_2, ...) to its outputs (H_1, H_3, ...)."""
    n = len(dims) // 2
    kdims = list(reversed(dims))  # position of space s is 2n-1-s
    out_axes = [2 * n - 1 - s for s in range(2 * n - 1, 0, -2)]
    in_axes = [2 * n - 1 - s for s in range(2 * n - 2, -1, -2)]
    d_out = math.prod(dims[1::2])
    d_in = math.prod(dims[0::2])
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    cut = SUPPORT_TOL * max(1.0, float(w[-1]))
    kraus = []
    for m in range(w.size):
        if w[m] > cut:
            vec = math.sqrt(w[m]) * v[:, m].reshape(kdims)
            kraus.append(np.transpose(vec, out_axes + in_axes).reshape(d_out, d_in))
    return kraus


def appendix_signs(ops, d_out: int, d_in: int) -> tuple:
    """(instrument, induced channel, induced POVM) extremality as +/- signs."""
    inst = instrument_extremal(ops, d_out, d_in)
    chan = instrument_extremal([sum(ops)], d_out, d_in)
    effects = [partial_trace(n, (d_out, d_in), {0}).T for n in ops]
    povm = povm_extremal(effects)
    return tuple("+" if f else "-" for f in (inst, chan, povm))


# ---------------------------------------------------------------------------
# Certificates, witnesses, trees and suites
# ---------------------------------------------------------------------------


def check_witness(outcomes, dims, directions, epsilon: float, what: str = "witness") -> None:
    """T +/- eps D are valid and distinct, and their midpoint is T."""
    require(len(directions) == len(outcomes), f"{what}: {len(directions)} directions")
    require(math.isfinite(epsilon) and epsilon > 0, f"{what}: epsilon_star {epsilon}")
    scale = max(float(np.abs(t).max()) for t in outcomes)
    step = max(float(np.abs(epsilon * d).max()) for d in directions)
    require(step > 1e-9 * scale, f"{what}: the two sides coincide (step {step:.3e})")
    plus = [t + epsilon * d for t, d in zip(outcomes, directions)]
    minus = [t - epsilon * d for t, d in zip(outcomes, directions)]
    check_valid(plus, dims, f"{what} T+eps*D")
    check_valid(minus, dims, f"{what} T-eps*D")
    mid = max(float(np.abs((p + m) / 2 - t).max()) for p, m, t in zip(plus, minus, outcomes))
    require(mid <= 1e-12 * max(1.0, scale), f"{what}: midpoint differs from T by {mid:.3e}")


def check_certificate(outcomes, dims, cert: dict, expect: str | None, what: str = "certificate") -> None:
    """Counting rule, support ranks, the expected verdict and witness soundness.

    ``cert`` holds ``verdict``, ``family_size``, ``support_ranks``,
    ``normalization_basis_size`` and, when not extremal, ``directions`` and
    ``epsilon_star``.  ``expect`` is the verdict the construction guarantees,
    or None.  The counting rule assumes the comb normalization family; pass
    ``variables`` in ``cert`` to override |V| (1-testers use r^2 - 1).
    """
    ranks = [support_rank(t) for t in outcomes]
    require(list(cert["support_ranks"]) == ranks, f"{what}: support ranks {cert['support_ranks']} != {ranks}")
    variables = cert.get("variables", variable_count(dims))
    require(
        cert["normalization_basis_size"] == variables,
        f"{what}: normalization basis {cert['normalization_basis_size']} != |V| = {variables}",
    )
    family = sum(r * r for r in ranks) + variables
    require(cert["family_size"] == family, f"{what}: family size {cert['family_size']} != {family}")
    if family > math.prod(dims) ** 2:
        require(cert["verdict"] == "not_extremal", f"{what}: family {family} > D^2 yet extremal")
    if expect is not None:
        require(cert["verdict"] == expect, f"{what}: verdict {cert['verdict']}, expected {expect}")
    if cert["verdict"] == "not_extremal":
        check_witness(outcomes, dims, cert["directions"], float(cert["epsilon_star"]), what)
    else:
        require(cert["verdict"] == "extremal", f"{what}: unknown verdict {cert['verdict']!r}")


def check_tree(root_outcomes, dims, kind: str, summary: dict, leaves, what: str = "tree") -> int:
    """Leaves valid, weights summing to 1, reconstruction of the root to
    RECON_TOL from the read-back leaves.  Instrument leaves marked extremal
    must pass the Kraus-product criterion.  Returns the node count."""
    entries = summary["leaves"]
    require(len(entries) == len(leaves) and entries, f"{what}: {len(leaves)} leaves for {len(entries)} entries")
    total_weight = sum(float(e["weight"]) for e in entries)
    require(abs(total_weight - 1.0) <= 1e-12, f"{what}: weights sum to {total_weight!r}")
    recon = [np.zeros_like(t) for t in root_outcomes]
    for entry, (leaf_kind, leaf_sig, outs) in zip(entries, leaves):
        require(leaf_kind == kind, f"{what}: leaf kind {leaf_kind} != {kind}")
        require(comb_dims(leaf_kind, leaf_sig) == tuple(dims), f"{what}: leaf signature {leaf_sig}")
        require(len(outs) == len(root_outcomes), f"{what}: leaf has {len(outs)} outcomes")
        check_valid(outs, dims, f"{what} {entry['file']}")
        w = float(entry["weight"])
        for i, t in enumerate(outs):
            recon[i] = recon[i] + w * t
        if entry.get("status") == "extremal" and kind == "instrument":
            require(
                instrument_extremal(outs, dims[1], dims[0]),
                f"{what} {entry['file']}: marked extremal but fails the Kraus-product criterion",
            )
    err = max(float(np.abs(a - b).max()) for a, b in zip(recon, root_outcomes))
    require(err <= RECON_TOL, f"{what}: reconstruction error {err:.3e}")
    return 2 * len(entries) - 1


def check_suite(name: str, seeds: int, report: dict) -> int:
    """Zero failures; totals fixed by construction where they are."""
    require(report.get("suite") == name, f"suite {name}: report names {report.get('suite')!r}")
    require(report["failures"] == 0 and report["ok"] is True, f"suite {name}: {report['failures']} failures {report['details']}")
    fixed = {"equivalence": 4 * seeds, "xi-invariance": seeds, "appendix-c": 7}
    if name in fixed:
        require(report["total"] == fixed[name], f"suite {name}: total {report['total']} != {fixed[name]}")
    require(report["total"] >= 1, f"suite {name}: no checks recorded")
    return int(report["total"])
