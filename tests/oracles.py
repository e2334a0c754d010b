"""Helpers that only the tests use.

The program decides extremality without any of these: it never ranks a
whole stack in one call, takes supports from the eigenpairs of validation,
reads a tester's rho from the cascade of its GQI verdict, never builds the
comb variable basis V or the dense normalization family of Theorem 1, and
decomposes a tree one depth at a time and classifies the appendix fixtures
in one stacked pass, and draws each pass of a seeded suite in two steps,
the raw Gaussians first and the objects from stacked calls.  The tests keep
them as oracles and to build inputs.
"""

import collections
import math
import os
import sys

import numpy as np

from exqip import channels, combs, commands, fileio, gqi, linalg, suites, testers
from exqip.errors import DimensionMismatchError, NotPositiveError, ValidationError
from exqip.linalg import DEFAULT_TOL


# ---------------------------------------------------------------------------
# The support rule and the rank cutoff, written out apart from the program's
# ``TolerancePolicy.support`` and the Kraus criterion's cutoff, on
# eigenvalues in any order.
# ---------------------------------------------------------------------------


def psd(w, pol=DEFAULT_TOL):
    """Positivity by the support rule, lambda_min >= -supp_tol(d,
    lambda_max), on the d eigenvalues along the last axis of ``w``."""
    w = np.asarray(w)
    low = w.min(axis=-1, initial=np.inf)
    return low >= -pol.supp_tol(w.shape[-1], w.max(axis=-1, initial=-np.inf))


def support_rank(w, pol=DEFAULT_TOL):
    """The support rank by the support rule: the eigenvalues above
    supp_tol(d, lambda_max), counted along the last axis of ``w``."""
    w = np.asarray(w)
    tau = pol.supp_tol(w.shape[-1], w.max(axis=-1, keepdims=True, initial=-np.inf))
    return (w > tau).sum(axis=-1)


def complex_family_rank(mats, pol=DEFAULT_TOL):
    """Rank over the complex field of a family of matrices of equal shape,
    given as a sequence or as one stack (k, a, b), at the cutoff
    max(k, a b) * sigma_max * eps_rel."""
    x = np.asarray(mats, dtype=complex)
    if len(x) == 0:
        return 0
    x = x.reshape(len(x), -1)
    s = np.linalg.svd(x, compute_uv=False)
    tau = pol.rank_tol(*x.shape, float(s[0]) if s.size else 0.0)
    return int(np.count_nonzero(s > tau))


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
    if not psd(eig.values, pol):
        raise NotPositiveError(f"negative eigenvalue {eig.values[-1]:.3e}")
    return eig.vectors[:, : support_rank(eig.values, pol)]


def support_basis(t, pol=DEFAULT_TOL):
    """HS-orthonormal basis of the Hermitian operators supported on Supp(t),
    r^2 elements in :func:`linalg.support_operators` order; ``t`` must be PSD
    within tolerance."""
    return list(linalg.support_operators(support_vectors(t, pol)))


def tester_normalization(t, pol=DEFAULT_TOL):
    """rho = Tr_2(sum T_i) / d_2 and the product-form residual, from the comb
    check of the sum."""
    comb = combs.is_deterministic_comb(sum(t.outcomes), t.signature, pol=pol)
    return comb.reduced[0], comb.level_residuals[0]


def former_tester_basis(t, pol=DEFAULT_TOL):
    """The r^2 - 1 operators I_2 (x) sigma_l, sigma_l traceless Hermitian with
    support in Supp(rho): the variable directions of the former tester route,
    which spans the comb variable directions when rho has full rank."""
    rho, _ = tester_normalization(t, pol)
    u = support_vectors(rho, pol)
    eye2 = np.eye(t.d2, dtype=complex)
    return [
        linalg.kron(eye2, u @ b @ u.conj().T)
        for b in linalg.traceless_hermitian_basis(u.shape[1])
    ]


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


def former_spectra(outcomes):
    """Eigenpairs of the outcomes as the per-outcome pipeline computed them,
    eigenvalues descending, as one stack."""
    values, vectors = [], []
    for t in outcomes:
        t = np.asarray(t, dtype=complex)
        w, v = np.linalg.eigh((t + t.conj().T) / 2)
        order = np.argsort(w)[::-1]
        values.append(w[order])
        vectors.append(v[:, order])
    return linalg.EigenDecomposition(np.array(values), np.array(vectors))


def per_outcome_pipeline(g, normalization_basis=None, pol=DEFAULT_TOL):
    """(extremal, rank, support_ranks, family_size, epsilon*) of the former
    per-outcome pipeline: a plain ``eigh`` of each symmetrized outcome,
    sorted by ``argsort`` and cut at supp_tol, for the supports, the rows
    projected off V by partial traces or, given ``normalization_basis``, by
    a QR of it, and the public ``gqi.max_perturbation_step`` on those
    eigenpairs.  Where one outcome has full support beside another nonzero
    one, the witness is the exchange of the full-support exit, built from
    its own supports."""
    assert gqi.is_valid_gqi(g, pol=pol).ok
    spectra = former_spectra(g.outcomes)
    supports = [v[:, w > pol.supp_tol(len(w), float(w[0]))] for w, v in zip(spectra.values, spectra.vectors)]
    dim = g.signature.total_dim
    if normalization_basis is None:
        n_known = combs.comb_variable_count(g.signature)
        rows = [combs.complement_coordinates(u, g.signature) for u in supports]
    else:
        n_known = len(normalization_basis)
        known = np.array([linalg.vectorize_hermitian(b) for b in normalization_basis])
        q = np.linalg.qr(known.reshape(n_known, dim * dim).T)[0]
        rows = []
        for u in supports:
            x = linalg.vectorize_hermitian(linalg.support_operators(u))
            rows.append(x - (x @ q) @ q.T)
    decision = rank_decision(np.vstack(rows), pol, known=n_known, ambient=dim * dim)
    ranks = tuple(u.shape[1] for u in supports)
    eps = None
    full = [i for i, r in enumerate(ranks) if r == dim]
    others = [i for i, r in enumerate(ranks) if r > 0 and i not in full[:1]]
    tau = pol.rank_tol(sum(r * r for r in ranks) + n_known, dim * dim, max(1.0, np.sqrt(len(ranks))))
    if full and others and tau < 1.0:
        # Exchange weight between the first full-support outcome and the
        # first other nonzero one, along the projector onto the latter's support.
        p = supports[others[0]] @ supports[others[0]].conj().T
        directions = [np.zeros((dim, dim), dtype=complex) for _ in ranks]
        directions[full[0]], directions[others[0]] = -p, p
        eps = gqi.max_perturbation_step(directions, spectra, pol)
    elif decision.nullvector is not None:
        directions = []
        pos = 0
        for u, r in zip(supports, ranks):
            h = linalg.unvectorize_hermitian(decision.nullvector[pos : pos + r * r], r)
            directions.append(u @ h @ u.conj().T)
            pos += r * r
        eps = gqi.max_perturbation_step(directions, spectra, pol)
    return decision.nullvector is None, decision.rank, ranks, sum(r * r for r in ranks) + n_known, eps


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
    return complex_family_rank(family, pol) == len(family)


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


def recursive_decompose(args, pol) -> int:
    """`exqip decompose` as it was before the frontier loop: the tree is
    descended depth first, one ``gqi.is_extremal`` per node below the root,
    and the first invalid node in that order raises.  Run in place of
    ``commands.cmd_decompose``, it writes the same leaves, summary and
    output."""
    commands._check_count(args.steps, "--steps")
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ValueError(f"--out {args.out} is not empty")
    obj = fileio.load_object(args.file)
    cls = fileio.kind_of(obj)
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
        "kind": cls.kind,
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


# ---------------------------------------------------------------------------
# The paper's independent criteria as they were decided before each became
# one kernel over a population: one object at a time, each validating its
# own object and reading its own support rule.
# ---------------------------------------------------------------------------


def kraus_criterion(ins, pol=DEFAULT_TOL):
    """The Kraus-product criterion of one instrument (Choi's criterion for
    a channel): the gate of its own verdict, each outcome's eigenvalues
    checked positive and cut at its support rank into its minimal Kraus
    family, and one :func:`complex_family_rank` of the pooled products
    K_m^dagger K_n."""
    spectra = combs._require_valid(ins, pol).spectra
    products = []
    for w, v in zip(spectra.values, spectra.vectors):
        if not psd(w, pol):
            raise NotPositiveError(f"Choi operator has negative eigenvalue {w[-1]:.3e}")
        ks = [math.sqrt(w[m]) * v[:, m].reshape(ins.d1, ins.d0) for m in range(int(support_rank(w, pol)))]
        products += [a.conj().T @ b for a in ks for b in ks]
    return complex_family_rank(products, pol) == len(products)


def check_bounds(t, pol=DEFAULT_TOL):
    """The counting bounds of one tester: the outcome ranks from its own
    verdict's eigenvalues, and rho's rank from an ``eigvalsh`` of rho
    alone."""
    verdict = combs._require_valid(t, pol)
    r = int(support_rank(np.linalg.eigvalsh(verdict.comb_verdict.reduced[0]), pol))
    ranks = [int(x) for x in support_rank(verdict.spectra.values, pol)]
    lhs = sum(x * x for x in ranks) + r * r - 1
    rhs = (r * t.d2) ** 2
    m_rhs = t.d1 ** 2 * (t.d2 ** 2 - 1) + 1
    return testers.TesterBounds(
        outcome_ranks=tuple(ranks),
        normalization_rank=r,
        rank_bound_lhs=lhs,
        rank_bound_rhs=rhs,
        rank_bound_ok=lhs <= rhs,
        outcome_bound_applicable=all(x == 1 for x in ranks) and r == t.d1,
        outcome_bound_lhs=len(ranks),
        outcome_bound_rhs=m_rhs,
        outcome_bound_ok=len(ranks) <= m_rhs,
    )


def instrument_rank_bound(ins, pol=DEFAULT_TOL):
    """sum r_i^2 <= d_0^2, the ranks from the instrument's own verdict."""
    ranks = tuple(int(x) for x in support_rank(combs._require_valid(ins, pol).spectra.values, pol))
    lhs = sum(r * r for r in ranks)
    return channels.InstrumentRankBound(outcome_ranks=ranks, lhs=lhs, rhs=ins.d0 ** 2, ok=lhs <= ins.d0 ** 2)


# ---------------------------------------------------------------------------
# The generators as they were before a pass was drawn in stacked calls: one
# object at a time, each from numpy calls on that object alone.
# ---------------------------------------------------------------------------


def kraus_to_choi(kraus):
    vs = [np.asarray(k, dtype=complex).ravel() for k in kraus]
    out = np.zeros((vs[0].size, vs[0].size), dtype=complex)
    for v in vs:
        out += np.outer(v, v.conj())
    return out


def eig_sqrt(eig):
    return (eig.vectors * np.sqrt(np.clip(eig.values, 0.0, None))) @ eig.vectors.conj().T


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_channel(d0, d1, kraus_count, rng):
    kraus_count = max(kraus_count, -(-d0 // d1))
    g = rng.standard_normal((d1 * kraus_count, d0)) + 1j * rng.standard_normal((d1 * kraus_count, d0))
    q, _ = np.linalg.qr(g)
    ks = [q[m * d1 : (m + 1) * d1, :] for m in range(kraus_count)]
    return channels.Channel(d1=d1, d0=d0, choi=kraus_to_choi(ks))


def random_instrument(d0, d1, outcome_kraus_counts, rng):
    total = sum(outcome_kraus_counts)
    chan = random_channel(d0, d1, total, rng)
    eig = linalg.hermitian_eig(chan.choi)
    if not psd(eig.values, DEFAULT_TOL):
        raise NotPositiveError(f"Choi operator has negative eigenvalue {eig.values[-1]:.3e}")
    r = support_rank(eig.values, DEFAULT_TOL)
    ks = list(np.sqrt(eig.values[:r])[:, None, None] * eig.vectors[:, :r].T.reshape(r, d1, d0))
    while len(ks) < total:
        ks.append(np.zeros((d1, d0), dtype=complex))
    groups, pos = [], 0
    for count in outcome_kraus_counts:
        groups.append(kraus_to_choi(ks[pos : pos + count]))
        pos += count
    return channels.Instrument(d1=d1, d0=d0, operators=tuple(groups))


def schmidt_tester(angle, u2=None, u1=None):
    phi = np.zeros(4, dtype=complex)
    phi[0] = math.cos(angle)
    phi[3] = math.sin(angle)
    if u2 is not None or u1 is not None:
        a = u2 if u2 is not None else np.eye(2)
        b = u1 if u1 is not None else np.eye(2)
        phi = np.kron(a, b) @ phi
    proj = np.outer(phi, phi.conj())
    return testers.Tester(d2=2, d1=2, outcomes=(proj / 2.0, (np.eye(4, dtype=complex) - proj) / 2.0))


def projective_split_effects(target, pol=DEFAULT_TOL):
    eig = linalg.hermitian_eig(target, pol)
    return [np.outer(v, v.conj()) for v in eig.vectors[:, : support_rank(eig.values, pol)].T]


def split_outcome(t, index, sub_effects, pol=DEFAULT_TOL):
    if not 0 <= index < t.n_outcomes:
        raise DimensionMismatchError(f"outcome index {index} out of range")
    sub_effects = [np.asarray(e, dtype=complex) for e in sub_effects]
    shape = t.outcomes[index].shape
    for e in sub_effects:
        if e.shape != shape:
            raise DimensionMismatchError(f"sub-POVM effect shape {e.shape} does not match outcome shape {shape}")
    eig = linalg.hermitian_eig(t.outcomes[index], pol)
    cols = eig.vectors[:, : support_rank(eig.values, pol)]
    proj = cols @ cols.conj().T
    if linalg.max_abs(sum(sub_effects) - proj) > pol.eps_comb:
        raise ValidationError("sub-POVM effects must sum to the support projector")
    for e in sub_effects:
        h = linalg.check_hermitian(e, pol)
        if not psd(np.linalg.eigvalsh(h), pol):
            raise ValidationError("sub-POVM effect not positive semidefinite")
        if linalg.max_abs(h - proj @ h @ proj) > pol.eps_comb:
            raise ValidationError("sub-POVM effect not supported on Supp(T_i)")
    root = eig_sqrt(eig)
    pieces = tuple(root @ e @ root for e in sub_effects)
    return testers.Tester(d2=t.d2, d1=t.d1, outcomes=t.outcomes[:index] + pieces + t.outcomes[index + 1 :])


def _xi_state(t, rho, u, pol):
    for name, m in (("rho", rho), ("U", u)):
        if np.shape(m) != (t.d1, t.d1):
            raise DimensionMismatchError(f"{name} has shape {np.shape(m)}, but d_1 x d_1 is {(t.d1, t.d1)}")
    eig = linalg.hermitian_eig(rho, pol)
    if support_rank(eig.values, pol) < eig.values.size:
        raise ValidationError("xi transform requires a full-rank state")
    return eig


def xi_transform(t, rho, u, pol=DEFAULT_TOL):
    a = np.kron(np.eye(t.d2, dtype=complex), eig_sqrt(_xi_state(t, rho, u, pol)) @ u)
    return testers.Tester(d2=t.d2, d1=t.d1, outcomes=tuple(t.d1 * (a @ op @ a.conj().T) for op in t.outcomes))


def xi_inverse(t, rho, u, pol=DEFAULT_TOL):
    eig = _xi_state(t, rho, u, pol)
    inv_sqrt = (eig.vectors / np.sqrt(eig.values)) @ eig.vectors.conj().T
    b = np.kron(np.eye(t.d2, dtype=complex), u.conj().T @ inv_sqrt)
    return testers.Tester(d2=t.d2, d1=t.d1, outcomes=tuple((b @ op @ b.conj().T) / t.d1 for op in t.outcomes))


def random_full_rank_state(d, rng):
    u = random_unitary(d, rng)
    w = rng.random(d) + suites.STATE_FLOOR
    w /= w.sum()
    return (u * w) @ u.conj().T


def random_extremal_qubit_tester(rng):
    angle = rng.uniform(0.15, math.pi / 4)
    t = schmidt_tester(angle, random_unitary(2, rng), random_unitary(2, rng))
    style = rng.integers(0, 3)
    if style == 1:
        t = split_outcome(t, 1, projective_split_effects(t.outcomes[1]))
    elif style == 2:
        effects = projective_split_effects(t.outcomes[1])
        t = split_outcome(t, 1, [effects[0] + effects[1], effects[2]])
    return t


def random_nonextremal_qubit_tester(rng):
    if rng.integers(0, 2) == 0:
        return schmidt_tester(0.0, random_unitary(2, rng), random_unitary(2, rng))
    a = schmidt_tester(rng.uniform(0.2, math.pi / 4), random_unitary(2, rng), random_unitary(2, rng))
    b = schmidt_tester(rng.uniform(0.2, math.pi / 4), random_unitary(2, rng), random_unitary(2, rng))
    return gqi.mix(a, b)


def random_rank22_qubit_tester(rng, nonextremal=False):
    if not nonextremal:
        u = random_unitary(4, rng)
        p1 = u[:, :2] @ u[:, :2].conj().T
    elif rng.integers(0, 2) == 0:
        v = random_unitary(2, rng)[:, 0]
        p1 = np.kron(np.eye(2, dtype=complex), np.outer(v, v.conj()))
    else:
        f, h, e = (random_unitary(2, rng) for _ in range(3))
        p1 = np.kron(np.outer(f[:, 0], f[:, 0].conj()), np.outer(e[:, 0], e[:, 0].conj())) + np.kron(
            np.outer(h[:, 0], h[:, 0].conj()), np.outer(e[:, 1], e[:, 1].conj())
        )
    return testers.Tester(d2=2, d1=2, outcomes=(p1 / 2.0, (np.eye(4, dtype=complex) - p1) / 2.0))


def random_two_outcome_qubit_tester(rng):
    style = rng.integers(0, 6)
    u2, u1 = random_unitary(2, rng), random_unitary(2, rng)
    if style == 0:
        return schmidt_tester(rng.uniform(0.1, math.pi / 4), u2, u1)
    if style == 1:
        return schmidt_tester(0.0, u2, u1)
    if style == 2:
        return schmidt_tester(rng.uniform(1e-6, 1e-5), u2, u1)
    if style in (3, 4):
        return random_rank22_qubit_tester(rng, nonextremal=style == 4)
    return schmidt_tester(1e-6, u2, u1)


def random_nonextremal_gqi(rng):
    counts = [(1, 1), (1, 2), (2, 1), (1, 1, 1)][rng.integers(0, 4)]
    return gqi.mix(random_instrument(2, 2, counts, rng), random_instrument(2, 2, counts, rng), 0.5)


def suite_population(name, seeds):
    """The objects a seeded suite decides, drawn one at a time in the draw
    order of each seed: per seed, equivalence's four channels,
    xi-invariance's tester and its xi transform, and bounds' three testers
    and its instrument."""
    out = []
    for seed in range(seeds):
        if name == "equivalence":
            rng = np.random.default_rng(1000 + seed)
            for d0, d1 in suites.EQUIVALENCE_DIMS:
                out.append(random_channel(d0, d1, int(rng.integers(-(-d0 // d1), d0 * d1 + 1)), rng))
        elif name == "xi-invariance":
            rng = np.random.default_rng(2000 + seed)
            t = (random_extremal_qubit_tester if seed % 2 == 0 else random_nonextremal_qubit_tester)(rng)
            rho = random_full_rank_state(2, rng)
            out += [t, xi_transform(t, rho, random_unitary(2, rng))]
        else:
            rng = np.random.default_rng(3000 + seed)
            out += [random_extremal_qubit_tester(rng), random_nonextremal_qubit_tester(rng)]
            out.append(random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))))
            counts = [(1,), (1, 1), (1, 2), (1, 1, 1), (2, 2)][int(rng.integers(0, 5))]
            out.append(random_instrument(2, 2, counts, rng))
    return out
