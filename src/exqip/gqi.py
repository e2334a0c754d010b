"""Generalized quantum N-instruments and their extremality certificates.

A GQI is a collection of positive operators T_1..T_M on the comb space whose
sum is a deterministic comb.  Extremality is decided by a single rank test:
a Hermitian basis of each outcome's support, pooled with the comb
variable-direction basis V, must be linearly independent.  The test runs on
the support bases projected off V, in coordinates taken from partial traces.
A rank deficiency yields a constructive perturbation {D_i}, Delta and the
maximal step size epsilon_star, from which a one-step convex decomposition
follows.  epsilon_star starts from a closed-form estimate (the
generalized-eigenvalue form of Choi's positivity argument) and is refined in
a tight bracket on the positivity slack of T_i +/- epsilon D_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import combs, linalg
from .combs import CombSignature
from .errors import DimensionMismatchError, ExtremalInputError, SizeLimitError, ValidationError
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
    """Validity of a GQI.  ``spectra`` holds the eigenpairs of the symmetrized
    outcomes (a stack, eigenvalues descending), which the rank test and the
    epsilon* step reuse; they take no part in equality or repr."""

    ok: bool
    outcome_min_eigenvalues: tuple
    comb_verdict: combs.CombVerdict
    spectra: linalg.EigenDecomposition = field(compare=False, repr=False)


@dataclass(frozen=True)
class Perturbation:
    """Witness of non-extremality: T_i +/- epsilon_star * D_i are valid GQIs."""

    directions: tuple
    delta: np.ndarray
    epsilon_star: float


@dataclass(frozen=True)
class ExtremalityCertificate:
    """The outcome of :func:`is_extremal`.  ``margin`` is, when extremal, the
    smallest singular value of the support family projected off V: how far
    the family is from dependence.  It is ``None`` when the family is empty."""

    extremal: bool
    family_size: int
    rank: int
    support_ranks: tuple
    normalization_basis_size: int
    perturbation: Perturbation | None
    margin: float | None = None

    @property
    def verdict(self) -> str:
        return "extremal" if self.extremal else "not_extremal"


def is_valid_gqi(g: Gqi, pol: TolerancePolicy = DEFAULT_TOL) -> GqiVerdict:
    """Accept iff every outcome is PSD and the sum is a deterministic comb.

    The outcomes are checked and decomposed as one stack: one batched
    Hermiticity check, one batched ``eigh``.  An outcome of the wrong shape
    raises after the Hermiticity check of the outcomes before it.
    """
    if g.n_outcomes < 1:
        raise ValidationError("a GQI needs at least one outcome")
    total = g.signature.total_dim
    shaped = next(
        (i for i, t in enumerate(g.outcomes) if t.shape != (total, total)), g.n_outcomes
    )
    h = linalg.check_hermitian_stack(np.reshape(g.outcomes[:shaped], (shaped, total, total)), pol)
    if shaped < g.n_outcomes:
        raise DimensionMismatchError(
            f"outcome shape {g.outcomes[shaped].shape} does not match signature dimension {total}"
        )
    spectra = linalg.hermitian_eigs(h)
    w = spectra.values
    psd_ok = bool(np.all(w[:, -1] >= -pol.supp_tol(total, w[:, 0])))
    comb_verdict = combs.is_deterministic_comb(g.normalization, g.signature, pol=pol)
    return GqiVerdict(
        ok=psd_ok and comb_verdict.ok,
        outcome_min_eigenvalues=tuple(w[:, -1].tolist()),
        comb_verdict=comb_verdict,
        spectra=spectra,
    )


def _require_valid(g: Gqi, pol: TolerancePolicy, verdict: GqiVerdict | None = None) -> GqiVerdict:
    if verdict is None:
        verdict = is_valid_gqi(g, pol=pol)
    if not verdict.ok:
        raise ValidationError(
            "invalid GQI: outcome min eigenvalues "
            f"{verdict.outcome_min_eigenvalues}, cascade residuals "
            f"{verdict.comb_verdict.level_residuals}"
        )
    return verdict


def perturbation_slack(outcomes, directions, eps: float, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Smallest lambda_min + supp_tol/2 over the 2M matrices T_i +/- eps D_i.

    Non-negative exactly when :func:`perturbation_feasible` holds; its sign
    change in eps is the root that :func:`max_perturbation_step` refines.
    """
    t = np.asarray(outcomes)
    d = np.asarray(directions)
    w = np.linalg.eigvalsh(np.concatenate([t + eps * d, t - eps * d]))
    return float(np.min(w[:, 0] + 0.5 * pol.supp_tol(t.shape[-1], w[:, -1])))


def perturbation_feasible(outcomes, directions, eps: float, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when every T_i +/- eps D_i stays PSD within the working margin.

    The margin is half the support tolerance, so feasible perturbations keep a
    positivity cushion and re-validate cleanly after file round trips.
    """
    return perturbation_slack(outcomes, directions, eps, pol) >= 0.0


# Half-width of the first bracket around the closed-form estimate, relative,
# and the factor it grows by until the bracket holds the root.
_BRACKET = 1e-10
_WIDEN = 16.0
# Relative bracket width at which the refinement stops.
_STOP = 1e-14


def max_perturbation_step(
    outcomes,
    directions,
    pol: TolerancePolicy = DEFAULT_TOL,
    spectra: linalg.EigenDecomposition | None = None,
) -> float:
    """Largest epsilon with every T_i +/- epsilon D_i PSD (within tolerance).

    ``spectra`` are eigenpairs of the outcomes (a stack, in any eigenvalue
    order), such as :attr:`GqiVerdict.spectra`; without them the outcomes are
    decomposed here.

    Three steps (README, "The epsilon* step"):

    1. Closed form.  With the working margin frozen at epsilon = 0,
       m_i = supp_tol(dim, lambda_max(T_i)) / 2, and T_i + m_i = V_i (W_i + m_i) V_i^dagger,
       T_i +/- epsilon D_i + m_i is PSD exactly while
       epsilon * |S_i^dagger D_i S_i|_2 <= 1, with S_i = V_i (W_i + m_i)^{-1/2}.
       So est = 1 / max_i |S_i^dagger D_i S_i|_2, also for directions with
       components outside Supp(T_i).  It differs from the root only through
       the margin's dependence on lambda_max(T_i +/- epsilon D_i).
    2. Bracket.  [est (1 - 1e-10), est (1 + 1e-10)], widened 16-fold until
       the lower end is feasible and the upper end is not.
    3. Refine.  Secant and Illinois regula falsi on :func:`perturbation_slack`,
       safeguarded by bisection, until hi - lo <= 1e-14 hi or the slack at
       both ends is at rounding level.

    The lower end is returned, so the result passes
    :func:`perturbation_feasible`.  When some T_i + m_i is not positive
    definite no epsilon is feasible, and the result is 0.
    """
    t = np.asarray(outcomes, dtype=complex)
    d = np.asarray(directions, dtype=complex)
    if not np.abs(d).max(initial=0.0) >= 1e-300:
        raise ValidationError("all perturbation directions vanish")
    if spectra is None:
        w, v = np.linalg.eigh(t)
    else:
        w, v = spectra.values, spectra.vectors
    shifted = w + 0.5 * pol.supp_tol(t.shape[-1], w.max(axis=1))[:, None]
    if shifted.min() <= 0.0:
        return 0.0
    # Rounding level of the eigenvalues, hence of the slack.  Shifted
    # eigenvalues below it (an outcome left on the margin by an earlier split)
    # are raised to it, so that rounding-level components of D_i there do not
    # dominate the estimate.
    noise = np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    s = v / np.sqrt(np.maximum(shifted, noise))[:, None, :]
    norm = float(np.abs(np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ d @ s)).max())
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"perturbation directions out of floating-point range (norm {norm})")
    est = 1.0 / norm

    def slack(eps: float) -> float:
        return perturbation_slack(t, d, eps, pol)

    # Bracket: f_lo >= 0 > f_hi.  At epsilon = 0 the slack is min(shifted) > 0.
    # prev is the infeasible point last replaced by hi.
    width = _BRACKET
    lo, hi = est * (1.0 - width), est * (1.0 + width)
    f_lo, f_hi = slack(lo), slack(hi)
    prev = None
    while f_lo < 0.0:
        prev = (hi, f_hi)
        hi, f_hi = lo, f_lo
        width *= _WIDEN
        lo = est * (1.0 - width) if width < 1.0 else 0.0
        f_lo = slack(lo) if lo > 0.0 else float(shifted.min())
    while f_hi >= 0.0:
        if width > 1e12:
            raise ValidationError("perturbation never violates positivity")
        lo, f_lo = hi, f_hi
        width *= _WIDEN
        hi = est * (1.0 + width)
        f_hi = slack(hi)

    # Refine.  Past the root the slack follows the one eigenvalue that
    # crossed the margin, while below it the minimum may sit on another, flat
    # branch (an eigenvalue outside the support of D_i).  So the secant
    # through the last two infeasible points comes first, then Illinois
    # regula falsi on the weighted end values g.  Each point is pulled at
    # least half the stopping width inside the bracket, so that a point
    # landing on the root lets the next probe close the bracket from the
    # other side; a bracket that two probes failed to halve is bisected.
    # Once the slack at both ends is at rounding level, further probes carry
    # no information.
    g_lo, g_hi = f_lo, f_hi
    side = 0
    older = old = np.inf
    while hi - lo > _STOP * hi and not (f_lo <= noise and f_hi >= -noise):
        step = 0.5 * _STOP * hi
        x = np.nan
        if prev is not None and prev[1] != f_hi:
            x = hi - f_hi * (hi - prev[0]) / (f_hi - prev[1])
        if not lo < x < hi + step:
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if hi - lo > 0.5 * older or not np.isfinite(x):
            x = 0.5 * (lo + hi)
        else:
            x = min(max(x, lo + step), hi - step)
        older, old = old, hi - lo
        fx = slack(x)
        if fx >= 0.0:
            if side < 0:
                g_hi *= 0.5
            lo, f_lo, g_lo, side = x, fx, fx, -1
        else:
            if side > 0:
                g_lo *= 0.5
            prev = (hi, f_hi)
            hi, f_hi, g_hi, side = x, fx, fx, 1
    return lo


# Largest estimated peak of the rank stage, in bytes, that is attempted
# (see rank_stage_bytes); larger inputs raise SizeLimitError.
RANK_STAGE_BUDGET = 2 << 30


def rank_stage_bytes(sig: CombSignature, support_ranks) -> int:
    """Estimated peak bytes of the rank stage, sized for its worst case: the
    fallback that builds every projected row.  The m = sum r_i^2 rows have
    n = 1 + sum c_l^2 columns, c_l the reduced dimension of each level with a
    nontrivial even space (see :func:`combs.complement_coordinates`), and
    the head has h = min(m, D^2 - |V| + 1) rows.  With c the largest c_l and
    r the largest support rank, the estimate sums

    * 64 r^2 c^2: the coordinates of the largest support, four complex
      (r^2, c, c) tensors of :func:`linalg.support_operators` and the
      traceless parts built from it;
    * 24 m n: the row blocks, their stack and the SVD's copy of it;
    * 8 (h n + h^2 + k n + 4 k^2), k = min(h, n): the head, U, V^T and the
      SVD workspace.
    """
    d = sig.total_dim
    reduced = [even * low for _, _, even, low in combs._levels(sig) if even > 1]
    n = 1 + sum(c * c for c in reduced)
    m = sum(r * r for r in support_ranks)
    h = min(m, d * d - combs.comb_variable_count(sig) + 1)
    c = max(reduced, default=0)
    r = max(support_ranks, default=0)
    k = min(h, n)
    return 64 * r * r * c * c + 24 * m * n + 8 * (h * n + h * h + k * n + 4 * k * k)


def _rank_test(g: Gqi, pol: TolerancePolicy, validation=None):
    """Validation verdict, support vectors of each outcome, |V| and the pooled
    rank decision.

    The supports are the leading eigenvectors of the validation spectra, the
    columns of :func:`linalg.support_vectors`.  The rows decided are the
    support basis elements projected off V, so the decision carries the
    pooled family's rank and cutoff (see :func:`linalg.rank_decision`).

    The rows are built outcome by outcome and decided head first
    (:func:`linalg.block_rank_decision`).  Each outcome's rows are a projected
    orthonormal family, of spectral norm at most 1, so sqrt(M) bounds
    sigma_max of the stack of M outcomes.  An input whose estimated peak
    (:func:`rank_stage_bytes`) exceeds ``RANK_STAGE_BUDGET`` raises
    :class:`SizeLimitError` before any row is built.
    """
    validation = _require_valid(g, pol, validation)
    spectra = validation.spectra
    supports = [v[:, :r] for v, r in zip(spectra.vectors, spectra.support_ranks(pol))]
    ranks = [u.shape[1] for u in supports]
    need = rank_stage_bytes(g.signature, ranks)
    if need > RANK_STAGE_BUDGET:
        raise SizeLimitError(
            f"the rank test at signature {g.signature.dims} with support ranks {tuple(ranks)} "
            f"needs about {need:,} bytes, above the budget of {RANK_STAGE_BUDGET:,} bytes"
        )
    n_known = combs.comb_variable_count(g.signature)
    ambient = g.signature.total_dim ** 2
    decision = linalg.block_rank_decision(
        _coordinate_blocks(supports, g.signature, ambient - n_known + 1),
        sum(r * r for r in ranks),
        pol,
        known=n_known,
        ambient=ambient,
        sigma_bound=math.sqrt(len(supports)),
    )
    return validation, supports, n_known, decision


def _coordinate_blocks(supports, sig: CombSignature, head: int):
    """The projected coordinates of each support in turn, lazily; the rows of
    the support that completes the first ``head`` rows come in two blocks,
    split there, so that the head is built without the rest."""
    start = 0
    for u in supports:
        rows = u.shape[1] ** 2
        if start < head < start + rows:
            yield combs.complement_coordinates(u, sig, 0, head - start)
            yield combs.complement_coordinates(u, sig, head - start)
        else:
            yield combs.complement_coordinates(u, sig)
        start += rows


def is_extremal(
    g: Gqi,
    pol: TolerancePolicy = DEFAULT_TOL,
    validation: GqiVerdict | None = None,
) -> ExtremalityCertificate:
    """Master extremality criterion: support bases of all outcomes pooled with
    the normalization variable basis V must be linearly independent.

    Equivalently, the support bases projected off V must be independent; the
    pooled rank is their rank plus |V|.  V is the comb variable basis of the
    signature, which is never built: the projected members come from partial
    traces (:func:`combs.complement_coordinates`).  Every object kind is
    decided here, on its GQI view ``Gqi(x.signature, x.outcomes)``.

    The cutoff is the pooled family's: with r_i the support ranks,

        tau = max(sum r_i^2 + |V|, D^2) * max(1, sigma_max) * eps_rel,

    sigma_max being the largest singular value of the projected family.  A
    null vector c yields D_i = sum_{j in i} c_j q_j and Delta = sum_i D_i.
    When sum r_i^2 > D^2 - |V| the counting rule already rules out
    extremality, and c comes from the first D^2 - |V| + 1 projected members,
    the head.  The rank is then decided on the head alone when it can be
    (README, "Head-first rank"), and the remaining members are not built.

    ``validation`` is the caller's :func:`is_valid_gqi` verdict on ``g`` at
    ``pol``, when it has one; otherwise ``g`` is validated here.  Each outcome
    is decomposed once, in validation, and the rank test and epsilon* reuse
    the eigenpairs.
    """
    validation, supports, n_known, decision = _rank_test(g, pol, validation)
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
            epsilon_star=max_perturbation_step(g.outcomes, directions, pol, validation.spectra),
        )
    # An extremal family never has more members than its span, so its rank
    # is never decided on the head alone: the values are the whole family's.
    # A tolerance above every eigenvalue leaves the family empty.
    s = decision.singular_values
    return ExtremalityCertificate(
        extremal=perturbation is None,
        family_size=family_size,
        rank=decision.rank,
        support_ranks=support_ranks,
        normalization_basis_size=n_known,
        perturbation=perturbation,
        margin=float(s[-1]) if perturbation is None and s.size else None,
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
