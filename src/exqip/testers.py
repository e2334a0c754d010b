"""Quantum 1-testers and POVMs.

A 1-tester is a collection of PSD operators T_1..T_M on H_2 (x) H_1 (output
factor first) summing to I_2 (x) rho for a state rho on H_1: a GQI on the
signature (1, d_1, d_2, 1), and a POVM one on (d, 1).  Both are valid exactly
when their GQI view is, and are decided by the GQI rank test; for a tester
the variable directions are I_2 (x) sigma, sigma traceless on H_1.  Every
criterion refuses an invalid object through the one gate of
:mod:`exqip.gqi`, with its message; :func:`check_bounds` also takes the
caller's validation verdict, which the bounds suite reads off the tester's
certificate.  The counting bounds are one kernel over a population,
:func:`_bounds`, with one stacked ``eigvalsh`` of the rho's, and
:func:`check_bounds` is that kernel on a stack of one.

Also here: the rank/outcome-count bounds, the normalization-changing
xi transform, POVM extremality, pure-normalization testers, the closed-form
classification of two-outcome qubit testers, and outcome splitting.  The
classes :class:`Tester` and :class:`Povm` are defined in :mod:`exqip.gqi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gqi as gqi_mod, linalg
from .errors import DimensionMismatchError, ValidationError
from .gqi import ExtremalityCertificate, GqiVerdict, Povm, Tester
from .linalg import DEFAULT_TOL, TolerancePolicy


def is_valid_tester(t: Tester, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """The GQI verdict on the tester's view.  On the signature (1, d_1, d_2, 1)
    the cascade reduces the sum to rho = R^(1), with residuals
    |sum T_i - I (x) rho|_max and |Tr rho - 1|; rho is positive within the
    band of the sum (README, "Conventions")."""
    return gqi_mod.is_valid_gqi(t, pol=pol).ok


def _rho_ranks(verdicts: list, pol: TolerancePolicy) -> list:
    """The support rank of rho, R^(1) of each verdict's cascade, from one
    stacked ``eigvalsh`` per dimension of rho."""
    rhos = [v.comb_verdict.reduced[0] for v in verdicts]
    return gqi_mod._grouped(
        [rho.shape for rho in rhos],
        lambda shape: 16 * shape[0] * shape[1],
        lambda members: pol.support_rank(np.linalg.eigvalsh(np.array([rhos[i] for i in members]))).tolist(),
    )


def is_extremal_tester(t: Tester, pol: TolerancePolicy = DEFAULT_TOL) -> ExtremalityCertificate:
    """The GQI rank test on the tester's view, validated once."""
    return gqi_mod.is_extremal(t, pol=pol)


@dataclass(frozen=True)
class TesterBounds:
    outcome_ranks: tuple
    normalization_rank: int
    rank_bound_lhs: int
    rank_bound_rhs: int
    rank_bound_ok: bool
    outcome_bound_applicable: bool
    outcome_bound_lhs: int
    outcome_bound_rhs: int
    outcome_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.rank_bound_ok and (
            not self.outcome_bound_applicable or self.outcome_bound_ok
        )


def check_bounds(
    t: Tester, pol: TolerancePolicy = DEFAULT_TOL, validation: GqiVerdict | None = None
) -> TesterBounds:
    """Necessary counting bounds for extremality (never sufficient).

    The outcome ranks are the support ranks of :func:`gqi.is_valid_gqi`,
    the caller's ``validation`` on ``t`` at ``pol`` when it has one, and the
    rank of rho comes from the eigenvalues of its ``R^(1)``.  An invalid
    tester raises the error of :func:`gqi._require_valid`.  This is
    :func:`_bounds` on ``t`` alone."""
    return _bounds([t], [validation], pol)[0]


def _bounds(ts: list, verdicts: list, pol: TolerancePolicy) -> list:
    """:func:`check_bounds` of each tester, given its verdict at ``pol`` or
    None: the gate refuses the first invalid tester, in order, and the ranks
    of every rho come from one stacked ``eigvalsh`` (:func:`_rho_ranks`)."""
    verdicts = [gqi_mod._require_valid(t, pol, v) for t, v in zip(ts, verdicts)]
    out = []
    for t, v, r in zip(ts, verdicts, _rho_ranks(verdicts, pol)):
        ranks = v.support_ranks
        lhs = sum(x * x for x in ranks) + r * r - 1
        rhs = (r * t.d2) ** 2
        m_rhs = t.d1 ** 2 * (t.d2 ** 2 - 1) + 1
        out.append(
            TesterBounds(
                outcome_ranks=ranks,
                normalization_rank=r,
                rank_bound_lhs=lhs,
                rank_bound_rhs=rhs,
                rank_bound_ok=lhs <= rhs,
                outcome_bound_applicable=all(x == 1 for x in ranks) and r == t.d1,
                outcome_bound_lhs=len(ranks),
                outcome_bound_rhs=m_rhs,
                outcome_bound_ok=len(ranks) <= m_rhs,
            )
        )
    return out


def _xi_states(d1: int, rho: np.ndarray, u: np.ndarray, pol: TolerancePolicy) -> linalg.EigenDecomposition:
    """The eigendecompositions of a stack of states ``rho``, which the xi maps
    need full rank; ``rho`` and ``u`` must be stacks (K, d_1, d_1).  The
    first state at fault raises."""
    for name, m in (("rho", rho), ("U", u)):
        if m.shape[1:] != (d1, d1):
            raise DimensionMismatchError(f"{name} has shape {m.shape[1:]}, but d_1 x d_1 is {(d1, d1)}")
    eig = linalg.hermitian_eig(rho, pol)
    if (pol.support_rank(eig.values) < d1).any():
        raise ValidationError("xi transform requires a full-rank state")
    return eig


def _outcome_stack(ts: list) -> tuple:
    """The outcomes of testers of one signature as one stack (N, D, D), and
    the index of each outcome's tester."""
    dim = ts[0].signature.total_dim
    ops = np.array([op for t in ts for op in t.outcomes], dtype=complex).reshape(-1, dim, dim)
    return ops, np.repeat(np.arange(len(ts)), [t.n_outcomes for t in ts])


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -2, -1)


def _xi_outcomes(ops, owner, d2: int, d1: int, rho, u, pol: TolerancePolicy) -> np.ndarray:
    """:func:`xi_transform` of each outcome ``ops[i]`` of a stack (N, D, D)
    with the state and unitary ``owner[i]`` of the stacks ``rho`` and ``u``."""
    a = linalg.kron(np.eye(d2, dtype=complex), linalg.eig_sqrt(_xi_states(d1, rho, u, pol)) @ u)[owner]
    return d1 * (a @ ops @ _adjoint(a))


def _xi_inverse_outcomes(ops, owner, d2: int, d1: int, rho, u, pol: TolerancePolicy) -> np.ndarray:
    """:func:`xi_inverse` of each outcome of a stack, as :func:`_xi_outcomes`."""
    eig = _xi_states(d1, rho, u, pol)
    inv_sqrt = (eig.vectors / np.sqrt(eig.values)[..., None, :]) @ _adjoint(eig.vectors)
    b = linalg.kron(np.eye(d2, dtype=complex), _adjoint(u) @ inv_sqrt)[owner]
    return (b @ ops @ _adjoint(b)) / d1


def xi_transform(
    t: Tester, rho: np.ndarray, u: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL
) -> Tester:
    """T_i -> d_1 (I (x) sqrt(rho) U) T_i (I (x) U^dagger sqrt(rho)).

    Maps uniform-normalization testers to normalization I (x) rho; invertible
    for full-rank rho and preserves the extremality verdict.  ``rho`` and
    ``u`` must be d_1 x d_1.
    """
    ops = _xi_outcomes(*_outcome_stack([t]), t.d2, t.d1, np.asarray(rho)[None], np.asarray(u)[None], pol)
    return Tester(d2=t.d2, d1=t.d1, outcomes=tuple(ops))


def xi_inverse(
    t: Tester, rho: np.ndarray, u: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL
) -> Tester:
    """Inverse of :func:`xi_transform` for the same (rho, U)."""
    ops = _xi_inverse_outcomes(*_outcome_stack([t]), t.d2, t.d1, np.asarray(rho)[None], np.asarray(u)[None], pol)
    return Tester(d2=t.d2, d1=t.d1, outcomes=tuple(ops))


def povm_is_valid(p: Povm, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return gqi_mod.is_valid_gqi(p, pol=pol).ok


def povm_is_extremal(p: Povm, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """The GQI rank test on the POVM's view; its variable basis is empty."""
    return gqi_mod.is_extremal(p, pol=pol).extremal


def tester_from_pure_normalization(phi: np.ndarray, p: Povm) -> Tester:
    """T_i = E_i (x) |phi><phi|; extremal exactly when the POVM is."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise ValidationError("normalization vector must have unit norm")
    proj = np.outer(phi, phi.conj())
    return Tester(
        d2=p.d,
        d1=phi.size,
        outcomes=tuple(linalg.kron(e, proj) for e in p.effects),
    )


def _schmidt_vectors(angles, u2: np.ndarray | None = None, u1: np.ndarray | None = None) -> np.ndarray:
    """phi = (u2 (x) u1)(cos(angle)|00> + sin(angle)|11>) for each angle,
    (K, 4); ``u2`` and ``u1`` are stacks (K, 2, 2), or None for the identity."""
    phi = np.zeros((len(angles), 4), dtype=complex)
    phi[:, 0] = [math.cos(angle) for angle in angles]
    phi[:, 3] = [math.sin(angle) for angle in angles]
    if u2 is not None or u1 is not None:
        a = u2 if u2 is not None else np.eye(2)
        b = u1 if u1 is not None else np.eye(2)
        phi = (linalg.kron(a, b) @ phi[..., None])[..., 0]
    return phi


def _schmidt_outcomes(phi: np.ndarray) -> np.ndarray:
    """The outcomes (K, 2, 4, 4) of the Schmidt testers of vectors (K, 4)."""
    proj = phi[:, :, None] * phi[:, None, :].conj()
    return np.stack([proj / 2.0, (np.eye(4, dtype=complex) - proj) / 2.0], axis=1)


def schmidt_tester(angle: float, u2: np.ndarray | None = None, u1: np.ndarray | None = None) -> Tester:
    """Two-outcome qubit tester {|phi><phi|/2, (I - |phi><phi|)/2} with
    phi = (u2 (x) u1)(cos(angle)|00> + sin(angle)|11>)."""
    u2, u1 = (None if u is None else np.asarray(u)[None] for u in (u2, u1))
    return Tester(d2=2, d1=2, outcomes=tuple(_schmidt_outcomes(_schmidt_vectors([angle], u2, u1))[0]))


def _split_pieces(eig: linalg.EigenDecomposition, subs: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """The pieces sqrt(T) F_k sqrt(T) of :func:`split_outcome`, (K, n, D, D),
    for the K operators T that the stack ``eig`` decomposes and their
    sub-POVM effects ``subs`` (K, n, D, D).  The effects are checked as
    :func:`split_outcome` checks them: the sum of each family, then effect
    by effect, each over the stack, so that for K = 1 the first fault of
    the family raises."""
    ranks = eig.support_ranks(pol)
    proj = np.empty(eig.vectors.shape, dtype=complex)
    for r in set(ranks.tolist()):
        at = ranks == r
        cols = eig.vectors[at][..., :r]
        proj[at] = cols @ _adjoint(cols)
    total = sum(subs[:, j] for j in range(subs.shape[1]))
    if (np.abs(total - proj).max(axis=(-2, -1)) > pol.eps_comb).any():
        raise ValidationError("sub-POVM effects must sum to the support projector")
    for j in range(subs.shape[1]):
        h = linalg.check_hermitian_stack(subs[:, j], pol)
        if not pol.psd(np.linalg.eigvalsh(h)).all():
            raise ValidationError("sub-POVM effect not positive semidefinite")
        if (np.abs(h - proj @ h @ proj).max(axis=(-2, -1)) > pol.eps_comb).any():
            raise ValidationError("sub-POVM effect not supported on Supp(T_i)")
    root = linalg.eig_sqrt(eig)[:, None]
    return root @ subs @ root


def split_outcome(
    t: Tester, index: int, sub_effects, pol: TolerancePolicy = DEFAULT_TOL
) -> Tester:
    """Replace outcome ``index`` by sqrt(T_i) F_k sqrt(T_i) for sub-POVM
    effects {F_k} summing to the support projector of T_i."""
    if not 0 <= index < t.n_outcomes:
        raise DimensionMismatchError(f"outcome index {index} out of range")
    if isinstance(sub_effects, Povm):
        sub_effects = sub_effects.effects
    sub_effects = [np.asarray(e, dtype=complex) for e in sub_effects]
    shape = t.outcomes[index].shape
    for e in sub_effects:
        if e.shape != shape:
            raise DimensionMismatchError(f"sub-POVM effect shape {e.shape} does not match outcome shape {shape}")
    eig = linalg.hermitian_eig(t.outcomes[index][None], pol)
    subs = np.array(sub_effects, dtype=complex).reshape((1, len(sub_effects)) + shape)
    pieces = tuple(_split_pieces(eig, subs, pol)[0])
    outcomes = t.outcomes[:index] + pieces + t.outcomes[index + 1 :]
    return Tester(d2=t.d2, d1=t.d1, outcomes=outcomes)


def _projectors(eig: linalg.EigenDecomposition) -> np.ndarray:
    """|v><v| for each eigenvector v of the operator, or of each operator of
    the stack, that ``eig`` decomposes: (D, D, D) or (K, D, D, D),
    eigenvalues descending."""
    v = np.swapaxes(eig.vectors, -2, -1)
    return v[..., :, None] * v[..., None, :].conj()


def projective_split_effects(target: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Rank-one projective sub-POVM on the support of ``target``."""
    eig = linalg.hermitian_eig(target, pol)
    return list(_projectors(eig)[: eig.support_ranks(pol)])


@dataclass(frozen=True)
class TwoOutcomeQubitVerdict:
    case: str
    extremal: bool
    witness: np.ndarray | None


def _product_candidates(m1: np.ndarray, m2: np.ndarray):
    """Coefficient pairs (alpha, beta) where alpha*M1 + beta*M2 may be rank one."""
    a = np.linalg.det(m1)
    b = np.linalg.det(m1 + m2) - np.linalg.det(m1) - np.linalg.det(m2)
    c = np.linalg.det(m2)
    candidates = [(1.0, 0.0), (0.0, 1.0)]
    thr = 1e-12 * max(1.0, linalg.max_abs(m1) ** 2, linalg.max_abs(m2) ** 2)
    if max(abs(a), abs(b), abs(c)) > thr:
        for z in np.roots([a, b, c]):
            candidates.append((complex(z), 1.0))
    else:
        # Degenerate pencil: every combination is rank one; sample a spread.
        candidates += [(1.0, 1.0), (1.0, -1.0), (1.0, 1j), (1.0, -1j)]
    return candidates


def classify_two_outcome_qubit(
    t: Tester, pol: TolerancePolicy = DEFAULT_TOL
) -> TwoOutcomeQubitVerdict:
    """Closed-form extremality for two-outcome qubit testers.

    Case (1,3): extremal iff the rank-one outcome's vector is entangled.
    Case (2,2): not extremal iff P_1 = I (x) |v><v| or a product vector
    f (x) e lies in Supp(P_1) with f_perp (x) e in Supp(P_2).
    Any other rank profile forces intersecting supports: not extremal.
    """
    if t.d1 != 2 or t.d2 != 2 or t.n_outcomes != 2:
        raise DimensionMismatchError("closed form requires a two-outcome qubit tester")
    verdict = gqi_mod._require_valid(t, pol)
    rho = verdict.comb_verdict.reduced[0]
    if linalg.max_abs(rho - np.eye(2) / 2.0) > pol.eps_comb:
        if _rho_ranks([verdict], pol)[0] == 2:
            t = xi_inverse(t, rho, np.eye(2, dtype=complex), pol)
            verdict = gqi_mod.is_valid_gqi(t, pol=pol)
        else:
            # Pure normalization: T_i = E_i (x) |phi><phi|; POVM criterion,
            # with E_i = (I (x) <phi|) T_i (I (x) |phi>).
            b = linalg.kron(np.eye(2), linalg.hermitian_eig(rho, pol).vectors[:, [0]])
            effects = tuple(b.conj().T @ op @ b for op in t.outcomes)
            return TwoOutcomeQubitVerdict(
                case="other", extremal=povm_is_extremal(Povm(d=2, effects=effects), pol), witness=None
            )

    # The outcomes' ranks and eigenvectors, from the one decomposition of
    # their validation; the lower-rank outcome first.
    outcome_ranks = verdict.support_ranks
    order = sorted(range(2), key=lambda i: outcome_ranks[i])
    ranks = [outcome_ranks[i] for i in order]
    small = t.outcomes[order[0]]
    vectors = verdict.spectra.vectors[order[0]]

    if ranks == [1, 3]:
        phi = vectors[:, 0]
        m = phi.reshape(t.d2, t.d1)
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] > 2.0 * s[0] * pol.eps_rel:
            return TwoOutcomeQubitVerdict(case="(1,3)", extremal=True, witness=None)
        u, _, vh = np.linalg.svd(m)
        witness = linalg.kron(u[:, [0]], vh[0, :][:, None]).ravel()
        return TwoOutcomeQubitVerdict(case="(1,3)", extremal=False, witness=witness)

    if ranks == [2, 2]:
        p1 = 2.0 * small
        tol = pol.eps_comb
        # P_1 = I (x) |v><v| ?
        sigma = linalg.partial_trace(p1, (t.d2, t.d1), {0})
        v = linalg.hermitian_eig(sigma, pol).vectors[:, 0]
        if linalg.max_abs(p1 - linalg.kron(np.eye(2), np.outer(v, v.conj()))) <= tol:
            return TwoOutcomeQubitVerdict(
                case="(2,2)", extremal=False, witness=linalg.kron(np.eye(2)[:, [0]], v[:, None]).ravel()
            )
        # Product vector f (x) e in Supp(P_1) with f_perp (x) e in Supp(P_2)?
        psi1, psi2 = vectors[:, 0], vectors[:, 1]
        m1, m2 = psi1.reshape(2, 2), psi2.reshape(2, 2)
        for alpha, beta in _product_candidates(m1, m2):
            m = alpha * m1 + beta * m2
            norm = np.linalg.norm(m)
            if norm < 1e-14:
                continue
            u, s, vh = np.linalg.svd(m / norm)
            if s[1] > 2.0 * max(pol.eps_rel, 1e-12):
                continue
            f, e = u[:, 0], vh[0, :]
            f_perp = np.array([-np.conj(f[1]), np.conj(f[0])])
            probe = linalg.kron(f_perp[:, None], e[:, None]).ravel()
            if np.linalg.norm(p1 @ probe) <= 4.0 * max(pol.eps_rel, 1e-12):
                witness = linalg.kron(f[:, None], e[:, None]).ravel()
                return TwoOutcomeQubitVerdict(case="(2,2)", extremal=False, witness=witness)
        return TwoOutcomeQubitVerdict(case="(2,2)", extremal=True, witness=None)

    # Rank sum exceeds the space: supports intersect, never extremal.
    return TwoOutcomeQubitVerdict(case="other", extremal=False, witness=None)
