"""Quantum 1-testers and POVMs.

A 1-tester is a collection of PSD operators T_1..T_M on H_2 (x) H_1 (output
factor first) summing to I_2 (x) rho for a state rho on H_1.  Extremality is
decided by pooling Hermitian support bases of the outcomes with the traceless
operators supported under rho, tensored with identity on H_2.

Also here: the rank/outcome-count bounds, the normalization-changing
xi transform, POVM extremality, pure-normalization testers, the closed-form
classification of two-outcome qubit testers, and outcome splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gqi as gqi_mod
from . import linalg
from .combs import CombSignature
from .errors import DimensionMismatchError, ValidationError
from .gqi import ExtremalityCertificate, Gqi
from .linalg import DEFAULT_TOL, TolerancePolicy


@dataclass(frozen=True)
class Tester:
    __test__ = False  # "Test" prefix: keep pytest from collecting this class

    d2: int
    d1: int
    outcomes: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes", tuple(np.asarray(t, dtype=complex) for t in self.outcomes)
        )
        total = self.d2 * self.d1
        for t in self.outcomes:
            if t.shape != (total, total):
                raise DimensionMismatchError(
                    f"outcome shape {t.shape} does not match d2*d1 = {total}"
                )

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Povm:
    d: int
    effects: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "effects", tuple(np.asarray(e, dtype=complex) for e in self.effects)
        )
        for e in self.effects:
            if e.shape != (self.d, self.d):
                raise DimensionMismatchError(
                    f"effect shape {e.shape} does not match dimension {self.d}"
                )


def as_gqi(t: Tester) -> Gqi:
    """View a 1-tester as a GQI with trivial end spaces (d_0 = d_3 = 1)."""
    return Gqi(signature=CombSignature((1, t.d1, t.d2, 1)), outcomes=t.outcomes)


def povm_as_gqi(p: Povm) -> Gqi:
    """View a POVM as a GQI with a trivial output space (d_1 = 1)."""
    return Gqi(signature=CombSignature((p.d, 1)), outcomes=p.effects)


def tester_normalization(t: Tester, pol: TolerancePolicy = DEFAULT_TOL):
    """Extract rho = Tr_2(sum T_i) / d_2 and the product-form residual."""
    total = sum(t.outcomes)
    total = linalg.check_hermitian(total, pol)
    rho = linalg.partial_trace(total, (t.d2, t.d1), {0}) / t.d2
    residual = linalg.max_abs(total - linalg.kron(np.eye(t.d2, dtype=complex), rho))
    return rho, residual


def _normalization_ok(rho: np.ndarray, residual: float, tol: float, pol: TolerancePolicy) -> bool:
    """Product form within ``tol`` and rho a PSD unit-trace state."""
    if residual > tol:
        return False
    w = np.linalg.eigvalsh(rho)
    return not (w[0] < -pol.supp_tol(rho.shape[0], float(w[-1])) or abs(np.trace(rho).real - 1.0) > tol)


def is_valid_tester(
    t: Tester, tol: float | None = None, pol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    if tol is None:
        tol = pol.eps_comb
    if not _normalization_ok(*tester_normalization(t, pol), tol, pol):
        return False
    for op in t.outcomes:
        w = np.linalg.eigvalsh(linalg.check_hermitian(op, pol))
        if w[0] < -pol.supp_tol(op.shape[0], float(w[-1])):
            return False
    return True


def _rho_support_vectors(rho: np.ndarray, pol: TolerancePolicy):
    eig = linalg.hermitian_eig(rho, pol)
    tau = pol.supp_tol(rho.shape[0], float(eig.values[0]))
    return eig.vectors[:, eig.values > tau]


def _normalization_basis(d2: int, rho: np.ndarray, pol: TolerancePolicy) -> list:
    u = _rho_support_vectors(rho, pol)
    eye2 = np.eye(d2, dtype=complex)
    return [
        linalg.kron(eye2, u @ b @ u.conj().T)
        for b in linalg.traceless_hermitian_basis(u.shape[1])
    ]


def tester_normalization_basis(t: Tester, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """The r^2 - 1 operators I_2 (x) sigma_l, sigma_l traceless Hermitian with
    support in Supp(rho)."""
    rho, _ = tester_normalization(t, pol)
    return _normalization_basis(t.d2, rho, pol)


def is_extremal_tester(t: Tester, pol: TolerancePolicy = DEFAULT_TOL) -> ExtremalityCertificate:
    """Rank criterion with the normalization basis specialized to 1-testers.

    Validated once: the normalization checks of :func:`is_valid_tester`, then
    the GQI verdict (positivity of each outcome and of the sum, the cascade),
    whose eigenpairs the rank test reuses.
    """
    rho, residual = tester_normalization(t, pol)
    if not _normalization_ok(rho, residual, pol.eps_comb, pol):
        raise ValidationError("not a valid 1-tester")
    g = as_gqi(t)
    validation = gqi_mod.is_valid_gqi(g, pol=pol)
    if not validation.ok:
        raise ValidationError("not a valid 1-tester")
    return gqi_mod.is_extremal(
        g, pol=pol, normalization_basis=_normalization_basis(t.d2, rho, pol), validation=validation
    )


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


def check_bounds(t: Tester, pol: TolerancePolicy = DEFAULT_TOL) -> TesterBounds:
    """Necessary counting bounds for extremality (never sufficient)."""
    rho, _ = tester_normalization(t, pol)
    r = _rho_support_vectors(rho, pol).shape[1]
    ranks = []
    for op in t.outcomes:
        eig = linalg.hermitian_eig(op, pol)
        tau = pol.supp_tol(op.shape[0], float(eig.values[0]))
        ranks.append(int(np.count_nonzero(eig.values > tau)))
    lhs = sum(x * x for x in ranks) + r * r - 1
    rhs = (r * t.d2) ** 2
    applicable = all(x == 1 for x in ranks) and r == t.d1
    m_rhs = t.d1 ** 2 * (t.d2 ** 2 - 1) + 1
    return TesterBounds(
        outcome_ranks=tuple(ranks),
        normalization_rank=r,
        rank_bound_lhs=lhs,
        rank_bound_rhs=rhs,
        rank_bound_ok=lhs <= rhs,
        outcome_bound_applicable=applicable,
        outcome_bound_lhs=len(ranks),
        outcome_bound_rhs=m_rhs,
        outcome_bound_ok=len(ranks) <= m_rhs,
    )


def xi_transform(
    t: Tester, rho: np.ndarray, u: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL
) -> Tester:
    """T_i -> d_1 (I (x) sqrt(rho) U) T_i (I (x) U^dagger sqrt(rho)).

    Maps uniform-normalization testers to normalization I (x) rho; invertible
    for full-rank rho and preserves the extremality verdict.
    """
    rho = linalg.check_hermitian(rho, pol)
    w = np.linalg.eigvalsh(rho)
    if w[0] <= pol.supp_tol(t.d1, float(w[-1])):
        raise ValidationError("xi transform requires a full-rank state")
    a = linalg.kron(np.eye(t.d2, dtype=complex), linalg.sqrt_psd(rho, pol) @ u)
    return Tester(
        d2=t.d2,
        d1=t.d1,
        outcomes=tuple(t.d1 * (a @ op @ a.conj().T) for op in t.outcomes),
    )


def xi_inverse(
    t: Tester, rho: np.ndarray, u: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL
) -> Tester:
    """Inverse of :func:`xi_transform` for the same (rho, U)."""
    rho = linalg.check_hermitian(rho, pol)
    eig = linalg.hermitian_eig(rho, pol)
    if eig.values[-1] <= pol.supp_tol(t.d1, float(eig.values[0])):
        raise ValidationError("xi transform requires a full-rank state")
    inv_sqrt = (eig.vectors / np.sqrt(eig.values)) @ eig.vectors.conj().T
    b = linalg.kron(np.eye(t.d2, dtype=complex), u.conj().T @ inv_sqrt)
    return Tester(
        d2=t.d2,
        d1=t.d1,
        outcomes=tuple((b @ op @ b.conj().T) / t.d1 for op in t.outcomes),
    )


def povm_is_valid(
    p: Povm, tol: float | None = None, pol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    if tol is None:
        tol = pol.eps_comb
    total = sum(p.effects)
    if linalg.max_abs(total - np.eye(p.d)) > tol:
        return False
    for e in p.effects:
        w = np.linalg.eigvalsh(linalg.check_hermitian(e, pol))
        if w[0] < -pol.supp_tol(p.d, float(w[-1])):
            return False
    return True


def povm_is_extremal(p: Povm, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Extremal iff the pooled support bases of the effects are independent."""
    if not povm_is_valid(p, pol=pol):
        raise ValidationError("not a valid POVM")
    family = [q for e in p.effects for q in linalg.support_basis(e, pol)]
    rank, nullvec = linalg.numerical_rank(
        [linalg.vectorize_hermitian(q) for q in family], pol
    )
    return nullvec is None


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


def schmidt_tester(angle: float, u2: np.ndarray | None = None, u1: np.ndarray | None = None) -> Tester:
    """Two-outcome qubit tester {|phi><phi|/2, (I - |phi><phi|)/2} with
    phi = (u2 (x) u1)(cos(angle)|00> + sin(angle)|11>)."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = math.cos(angle)
    phi[3] = math.sin(angle)
    if u2 is not None or u1 is not None:
        a = u2 if u2 is not None else np.eye(2)
        b = u1 if u1 is not None else np.eye(2)
        phi = linalg.kron(a, b) @ phi
    proj = np.outer(phi, phi.conj())
    return Tester(d2=2, d1=2, outcomes=(proj / 2.0, (np.eye(4, dtype=complex) - proj) / 2.0))


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
    target = t.outcomes[index]
    proj = linalg.support_projector(target, pol)
    total = sum(sub_effects)
    if linalg.max_abs(total - proj) > pol.eps_comb:
        raise ValidationError("sub-POVM effects must sum to the support projector")
    for e in sub_effects:
        h = linalg.check_hermitian(e, pol)
        w = np.linalg.eigvalsh(h)
        if w[0] < -pol.supp_tol(h.shape[0], float(w[-1])):
            raise ValidationError("sub-POVM effect not positive semidefinite")
        if linalg.max_abs(h - proj @ h @ proj) > pol.eps_comb:
            raise ValidationError("sub-POVM effect not supported on Supp(T_i)")
    root = linalg.sqrt_psd(target, pol)
    pieces = tuple(root @ e @ root for e in sub_effects)
    outcomes = t.outcomes[:index] + pieces + t.outcomes[index + 1 :]
    return Tester(d2=t.d2, d1=t.d1, outcomes=outcomes)


def projective_split_effects(target: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Rank-one projective sub-POVM on the support of ``target``."""
    eig = linalg.hermitian_eig(target, pol)
    tau = pol.supp_tol(target.shape[0], float(eig.values[0]))
    return [
        np.outer(eig.vectors[:, k], eig.vectors[:, k].conj())
        for k in range(target.shape[0])
        if eig.values[k] > tau
    ]


@dataclass(frozen=True)
class TwoOutcomeQubitVerdict:
    case: str
    extremal: bool
    witness: np.ndarray | None


def _eigen_rank(op: np.ndarray, pol: TolerancePolicy) -> int:
    eig = linalg.hermitian_eig(op, pol)
    tau = pol.supp_tol(op.shape[0], float(eig.values[0]))
    return int(np.count_nonzero(eig.values > tau))


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
    if not is_valid_tester(t, pol=pol):
        raise ValidationError("not a valid 1-tester")
    rho, _ = tester_normalization(t, pol)
    if linalg.max_abs(rho - np.eye(2) / 2.0) > pol.eps_comb:
        r_rho = _eigen_rank(rho, pol)
        if r_rho == 2:
            t = xi_inverse(t, rho, np.eye(2, dtype=complex), pol)
        else:
            # Pure normalization: T_i = E_i (x) |phi><phi|; POVM criterion.
            eig = linalg.hermitian_eig(rho, pol)
            phi = eig.vectors[:, 0]
            effects = []
            for op in t.outcomes:
                e = np.empty((2, 2), dtype=complex)
                for i in range(2):
                    for j in range(2):
                        vi = linalg.kron(np.eye(2)[:, [i]], phi[:, None]).ravel()
                        vj = linalg.kron(np.eye(2)[:, [j]], phi[:, None]).ravel()
                        e[i, j] = vi.conj() @ op @ vj
                effects.append(e)
            return TwoOutcomeQubitVerdict(
                case="other",
                extremal=povm_is_extremal(Povm(d=2, effects=tuple(effects)), pol),
                witness=None,
            )

    ranks = sorted((_eigen_rank(op, pol) for op in t.outcomes))
    order = sorted(range(2), key=lambda i: _eigen_rank(t.outcomes[i], pol))
    small, large = t.outcomes[order[0]], t.outcomes[order[1]]

    if ranks == [1, 3]:
        eig = linalg.hermitian_eig(small, pol)
        phi = eig.vectors[:, 0]
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
        seig = linalg.hermitian_eig(sigma, pol)
        v = seig.vectors[:, 0]
        if linalg.max_abs(p1 - linalg.kron(np.eye(2), np.outer(v, v.conj()))) <= tol:
            return TwoOutcomeQubitVerdict(
                case="(2,2)", extremal=False, witness=linalg.kron(np.eye(2)[:, [0]], v[:, None]).ravel()
            )
        # Product vector f (x) e in Supp(P_1) with f_perp (x) e in Supp(P_2)?
        eig = linalg.hermitian_eig(small, pol)
        psi1, psi2 = eig.vectors[:, 0], eig.vectors[:, 1]
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
