"""Generalized quantum N-instruments and their extremality certificates.

A GQI is a collection of positive operators T_1..T_M on the comb space whose
sum is a deterministic comb.  Extremality is decided by a single rank test:
a Hermitian basis of each outcome's support, pooled with the comb
variable-direction basis V, must be linearly independent.  The test runs on
the support bases projected off V, in coordinates taken from partial traces.
A rank deficiency yields a constructive perturbation {D_i}, Delta and the
maximal step size epsilon_star, from which a one-step convex decomposition
follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import combs, linalg
from .combs import CombSignature
from .errors import DimensionMismatchError, ExtremalInputError, ValidationError
from .linalg import DEFAULT_TOL, TolerancePolicy


@dataclass(frozen=True)
class Gqi:
    signature: CombSignature
    outcomes: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes", tuple(np.asarray(t, dtype=complex) for t in self.outcomes)
        )

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def normalization(self) -> np.ndarray:
        return sum(self.outcomes)


@dataclass(frozen=True)
class GqiVerdict:
    ok: bool
    outcome_min_eigenvalues: tuple
    comb_verdict: combs.CombVerdict


@dataclass(frozen=True)
class Perturbation:
    """Witness of non-extremality: T_i +/- epsilon_star * D_i are valid GQIs."""

    directions: tuple
    delta: np.ndarray
    epsilon_star: float


@dataclass(frozen=True)
class ExtremalityCertificate:
    extremal: bool
    family_size: int
    rank: int
    support_ranks: tuple
    normalization_basis_size: int
    perturbation: Perturbation | None

    @property
    def verdict(self) -> str:
        return "extremal" if self.extremal else "not_extremal"


def is_valid_gqi(
    g: Gqi,
    tol: float | None = None,
    pol: TolerancePolicy = DEFAULT_TOL,
) -> GqiVerdict:
    """Accept iff every outcome is PSD and the sum is a deterministic comb."""
    if g.n_outcomes < 1:
        raise ValidationError("a GQI needs at least one outcome")
    total = g.signature.total_dim
    mins = []
    psd_ok = True
    for t in g.outcomes:
        if t.shape != (total, total):
            raise DimensionMismatchError(
                f"outcome shape {t.shape} does not match signature dimension {total}"
            )
        h = linalg.check_hermitian(t, pol)
        w = np.linalg.eigvalsh(h)
        mins.append(float(w[0]))
        if w[0] < -pol.supp_tol(total, float(w[-1])):
            psd_ok = False
    comb_verdict = combs.is_deterministic_comb(g.normalization, g.signature, tol=tol, pol=pol)
    return GqiVerdict(
        ok=psd_ok and comb_verdict.ok,
        outcome_min_eigenvalues=tuple(mins),
        comb_verdict=comb_verdict,
    )


def _require_valid(g: Gqi, pol: TolerancePolicy):
    verdict = is_valid_gqi(g, pol=pol)
    if not verdict.ok:
        raise ValidationError(
            "invalid GQI: outcome min eigenvalues "
            f"{verdict.outcome_min_eigenvalues}, cascade residuals "
            f"{verdict.comb_verdict.level_residuals}"
        )


def perturbation_feasible(outcomes, directions, eps: float, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when every T_i +/- eps D_i stays PSD within the working margin.

    The margin is half the support tolerance, so feasible perturbations keep a
    positivity cushion and re-validate cleanly after file round trips.
    """
    t = np.asarray(outcomes)
    d = np.asarray(directions)
    w = np.linalg.eigvalsh(np.concatenate([t + eps * d, t - eps * d]))
    dim = t.shape[-1]
    return all(row[0] >= -0.5 * pol.supp_tol(dim, float(row[-1])) for row in w)


def max_perturbation_step(outcomes, directions, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Largest epsilon with every T_i +/- epsilon D_i PSD (within tolerance).

    Bisection on :func:`perturbation_feasible`; the bracket upper bound comes
    from the spectral-norm estimate epsilon <= lambda_max(T_i) / |D_i|_2.
    """

    def psd_at(eps: float) -> bool:
        return perturbation_feasible(outcomes, directions, eps, pol)

    hi = None
    for t, d in zip(outcomes, directions):
        dnorm = float(np.linalg.norm(d, 2))
        if dnorm < 1e-300:
            continue
        lam_max = float(np.linalg.eigvalsh(t)[-1])
        bound = lam_max / dnorm
        hi = bound if hi is None else min(hi, bound)
    if hi is None:
        raise ValidationError("all perturbation directions vanish")
    hi = max(hi, 1e-300)
    # Tolerance slack can push the failure point slightly past the estimate.
    attempts = 0
    while psd_at(hi) and attempts < 64:
        hi *= 2.0
        attempts += 1
    if psd_at(hi):
        raise ValidationError("perturbation never violates positivity")
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _rank_test(g: Gqi, pol: TolerancePolicy, normalization_basis=None):
    """Support vectors of each outcome, |V| and the pooled rank decision.

    The rows decided are the support basis elements projected off V, so the
    decision carries the pooled family's rank and cutoff (see
    :func:`linalg.rank_decision`).
    """
    _require_valid(g, pol)
    supports = [linalg.support_vectors(t, pol) for t in g.outcomes]
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
    decision = linalg.rank_decision(np.vstack(rows), pol, known=n_known, ambient=dim * dim)
    return supports, n_known, decision


def is_extremal(
    g: Gqi,
    pol: TolerancePolicy = DEFAULT_TOL,
    normalization_basis=None,
) -> ExtremalityCertificate:
    """Master extremality criterion: support bases of all outcomes pooled with
    the normalization variable basis V must be linearly independent.

    Equivalently, the support bases projected off V must be independent; the
    pooled rank is their rank plus |V|.  By default V is the comb variable
    basis of the signature, which is never built: the projected members come
    from partial traces (:func:`combs.complement_coordinates`).  Callers with
    tighter structural knowledge (1-testers) may pass the traceless basis
    supported under the normalization as ``normalization_basis``; it is
    orthonormalized and projected out explicitly.

    The cutoff is the pooled family's: with r_i the support ranks,

        tau = max(sum r_i^2 + |V|, D^2) * max(1, sigma_max) * eps_rel,

    sigma_max being the largest singular value of the projected family.  A
    null vector c yields D_i = sum_{j in i} c_j q_j and Delta = sum_i D_i.
    When sum r_i^2 > D^2 - |V| the counting rule already rules out
    extremality, and c comes from the first D^2 - |V| + 1 projected members.
    """
    supports, n_known, decision = _rank_test(g, pol, normalization_basis)
    support_ranks = tuple(u.shape[1] for u in supports)
    family_size = sum(r * r for r in support_ranks) + n_known
    perturbation = None
    if decision.nullvector is not None:
        directions = []
        pos = 0
        for u, r in zip(supports, support_ranks):
            h = linalg.unvectorize_hermitian(decision.nullvector[pos : pos + r * r], r)
            directions.append(u @ h @ u.conj().T)
            pos += r * r
        perturbation = Perturbation(
            directions=tuple(directions),
            delta=sum(directions),
            epsilon_star=max_perturbation_step(g.outcomes, directions, pol),
        )
    return ExtremalityCertificate(
        extremal=perturbation is None,
        family_size=family_size,
        rank=decision.rank,
        support_ranks=support_ranks,
        normalization_basis_size=n_known,
        perturbation=perturbation,
    )


def decompose_step(
    g: Gqi,
    pol: TolerancePolicy = DEFAULT_TOL,
    certificate: ExtremalityCertificate | None = None,
):
    """Split a non-extremal GQI into two valid GQIs averaging back to it."""
    if certificate is None:
        certificate = is_extremal(g, pol)
    if certificate.extremal or certificate.perturbation is None:
        raise ExtremalInputError("cannot decompose an extremal GQI")
    pert = certificate.perturbation
    eps = pert.epsilon_star
    plus = Gqi(
        signature=g.signature,
        outcomes=tuple(t + eps * d for t, d in zip(g.outcomes, pert.directions)),
    )
    minus = Gqi(
        signature=g.signature,
        outcomes=tuple(t - eps * d for t, d in zip(g.outcomes, pert.directions)),
    )
    return plus, minus


@dataclass(frozen=True)
class ExtremalityProfile:
    extremal: bool
    support_ranks: tuple
    support_family_size: int
    normalization_basis_size: int
    ambient_dimension: int
    rank: int
    margin: float | None


def extremality_profile(g: Gqi, pol: TolerancePolicy = DEFAULT_TOL) -> ExtremalityProfile:
    """Aggregate counts, rank and, when extremal, the margin: the smallest
    singular value of the support family projected off V."""
    supports, n_known, decision = _rank_test(g, pol)
    support_ranks = tuple(u.shape[1] for u in supports)
    extremal = decision.nullvector is None
    return ExtremalityProfile(
        extremal=extremal,
        support_ranks=support_ranks,
        support_family_size=sum(r * r for r in support_ranks),
        normalization_basis_size=n_known,
        ambient_dimension=g.signature.total_dim ** 2,
        rank=decision.rank,
        margin=float(decision.singular_values[-1]) if extremal else None,
    )


def mix(a: Gqi, b: Gqi, weight: float = 0.5) -> Gqi:
    """Convex combination weight*a + (1-weight)*b of two same-shaped GQIs."""
    if a.signature != b.signature or a.n_outcomes != b.n_outcomes:
        raise DimensionMismatchError("mixed GQIs must share signature and outcome count")
    return Gqi(
        signature=a.signature,
        outcomes=tuple(
            weight * ta + (1.0 - weight) * tb for ta, tb in zip(a.outcomes, b.outcomes)
        ),
    )
