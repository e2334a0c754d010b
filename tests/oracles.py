"""Helpers that only the tests use.

The program decides extremality without any of these: it never ranks a
whole stack in one call, takes supports from the eigenpairs of validation,
reads a tester's rho from the cascade of its GQI verdict, never builds the
comb variable basis V or the dense normalization family of Theorem 1, and
decomposes a tree one depth at a time and classifies the appendix fixtures
in one stacked pass.  The tests keep them as oracles and to build inputs.
"""

import collections
import math
import os
import sys

import numpy as np

from exqip import channels, cli, combs, fileio, gqi, linalg, testers
from exqip.errors import NotPositiveError
from exqip.linalg import DEFAULT_TOL


Decision = collections.namedtuple("Decision", "rank nullvector")


def rank_decision(x, pol=DEFAULT_TOL, known=0, ambient=None):
    """The pooled rank of the rows of ``x`` with ``known`` orthonormal
    vectors of an ``ambient``-dimensional space (by default the row length,
    with nothing known), from one values-only SVD of every row, at the cutoff
    max(rows + known, ambient) * sigma * eps_rel, sigma = sigma_max floored
    at 1 when ``known > 0``.  A dependent family gets a unit null vector: the
    last left singular vector of the first span + 1 rows,
    span = min(ambient - known, row length), with the full U, padded with
    zeros and oriented so that its largest entry is positive."""
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    ambient = n if ambient is None else ambient
    s = np.linalg.svd(x, compute_uv=False)
    sigma = max(1.0 if known else 0.0, float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > pol.rank_tol(m + known, ambient, sigma)))
    if rank == m:
        return Decision(rank + known, None)
    head = x[: min(ambient - known, n) + 1]
    u = np.linalg.svd(head, full_matrices=head.shape[0] > n)[0]
    c = np.zeros(m)
    c[: len(head)] = u[:, -1]
    return Decision(rank + known, c if c[np.argmax(np.abs(c))] > 0 else -c)


def support_vectors(t, pol=DEFAULT_TOL):
    """Orthonormal eigenvectors (columns, eigenvalues descending) spanning
    Supp(t); ``t`` must be positive semidefinite within tolerance."""
    eig = linalg.hermitian_eig(t, pol)
    if not pol.psd(eig.values):
        raise NotPositiveError(f"negative eigenvalue {eig.values[-1]:.3e}")
    return eig.vectors[:, : eig.support_ranks(pol)]


def tester_normalization(t, pol=DEFAULT_TOL):
    """rho = Tr_2(sum T_i) / d_2 and the product-form residual, from the comb
    check of the sum."""
    comb = combs.is_deterministic_comb(sum(t.outcomes), t.signature, pol=pol)
    return comb.reduced[0], comb.level_residuals[0]


def comb_variable_basis(sig):
    """The HS-orthonormal variable-direction basis V of the deterministic-comb
    family, level by level from the last tooth down: traceless operators on
    each odd (output) space tensored with a Hermitian basis of everything
    below, padded with the identity above."""
    out = []
    for top, odd, even, low in sig.levels:
        eye_top = np.eye(top, dtype=complex) / math.sqrt(top)
        for e in linalg.traceless_hermitian_basis(odd):
            for f in linalg.hermitian_basis(even * low):
                out.append(linalg.kron(eye_top, linalg.kron(e, f)))
    return out


def theorem1_dense(c, pol=DEFAULT_TOL):
    """Theorem 1 on the dense family: the Kraus outer products
    {|K_m>><<K_n|} pooled with {sigma_a (x) I} and {sigma_a (x) sigma_b},
    ranked over the complex field in one SVD."""
    vs = [channels.vec_op(k) for k in channels.channel_kraus(c, pol)]
    family = [np.outer(vm, vn.conj()) for vm in vs for vn in vs]
    eye0 = np.eye(c.d0, dtype=complex)
    for sa in linalg.traceless_hermitian_basis(c.d1):
        family.append(linalg.kron(sa, eye0))
        family.extend(linalg.kron(sa, sb) for sb in linalg.traceless_hermitian_basis(c.d0))
    return linalg.complex_family_rank(family, pol) == len(family)


def classify_combination(ins, pol=DEFAULT_TOL):
    """The appendix row of ``ins`` as it was classified before the stacked
    pass: the Kraus-product criterion on the instrument, Choi's criterion on
    its induced channel and the rank test on its induced POVM, each
    validating its own object, in that order."""
    return channels.CombinationTriple(
        instrument=channels.instrument_extremal(ins, pol),
        channel=channels.choi_condition(channels.induced_channel(ins), pol),
        povm=testers.povm_is_extremal(channels.induced_povm(ins), pol),
    )


def environment_povm(ins, pol=DEFAULT_TOL):
    """The environment POVM F of an instrument whose induced channel C is
    extremal: with L_1..L_k the minimal Kraus operators of C, each Kraus
    operator K_{x,a} = sum_i c_i L_i of outcome x gives f_{x,a} = conj(c),
    and F_x = sum_a f_{x,a} f_{x,a}^dagger on C^k.  Then
    I_x(rho) = Tr_E[(1 (x) F_x) V rho V^dagger] with the Stinespring
    isometry V = sum_i L_i (x) |i>.  C extremal makes the L_i linearly
    independent, so c is the unique solution of the least-squares problem."""
    ls = np.array([channels.vec_op(k) for k in channels.channel_kraus(channels.induced_channel(ins), pol)]).T
    effects = []
    for kraus in channels.instrument_kraus(ins, pol):
        f = np.linalg.lstsq(ls, np.array([channels.vec_op(k) for k in kraus]).T, rcond=None)[0].conj()
        effects.append(f @ f.conj().T)
    return gqi.Povm(ls.shape[1], tuple(effects))


def recursive_decompose(args) -> int:
    """`exqip decompose` as it was before the frontier loop: the tree is
    descended depth first, one ``gqi.is_extremal`` per node below the root,
    and the first invalid node in that order raises.  Run in place of
    ``cli.cmd_decompose``, it writes the same leaves, summary and output."""
    cli._check_count(args.steps, "--steps")
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ValueError(f"--out {args.out} is not empty")
    pol, obj, kind = cli._load(args)
    cert = gqi.is_extremal(obj, pol=pol)
    if cert.extremal:
        print("input is extremal; nothing to decompose", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)

    leaves = []

    def descend(g, weight, depth, c=None):
        if depth >= args.steps:
            leaves.append((g, weight, depth, None))
            return
        if c is None:
            c = gqi.is_extremal(g, pol=pol)
        if c.extremal:
            leaves.append((g, weight, depth, "extremal"))
            return
        if c.perturbation.epsilon_star == 0.0:
            leaves.append((g, weight, depth, None))
            return
        plus, minus = gqi.decompose_step(g, pol=pol, certificate=c)
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
        fileio.save_object(os.path.join(args.out, name), g, metadata={"weight": w, "depth": depth})
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
