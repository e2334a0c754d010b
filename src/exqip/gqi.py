"""Generalized quantum N-instruments and their extremality certificates.

A GQI is a collection of positive operators T_1..T_M on the comb space whose
sum is a deterministic comb.  Extremality is decided by a single rank test:
a Hermitian basis of each outcome's support, pooled with the comb
variable-direction basis V, must be linearly independent.  The test runs on
the support bases projected off V, in coordinates taken from partial traces.
An outcome of full support settles the rank without that test whenever
another outcome is nonzero: its support basis already spans every Hermitian
operator, and exchanging weight between the two is the witness.  When both
have full support the exchange is +/- the identity, and its epsilon_star is
a formula in the eigenvalues of validation.
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
    """Validity of a GQI.  ``comb_verdict`` is the cascade of the sum, positive
    when every outcome is.  ``spectra`` holds the eigenpairs of the symmetrized
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
    raises after the Hermiticity check of the outcomes before it.  The sum,
    positive because the outcomes are, is symmetrized and goes through the
    cascade alone (README, "Conventions").
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
    s = g.normalization
    comb_verdict = combs._cascade((s + s.conj().T) / 2, g.signature, pol.eps_comb, bool(np.all(pol.psd(w))))
    return GqiVerdict(comb_verdict.ok, tuple(w[:, -1].tolist()), comb_verdict, spectra)


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
    return block_slack(t, np.asarray(directions), eps, t.shape[-1], pol)


def block_slack(base, blocks, eps: float, dim: int, pol: TolerancePolicy = DEFAULT_TOL, outside=None) -> float:
    """:func:`perturbation_slack` of matrices given as blocks.

    Matrix j of the 2M is base_i + eps blocks_i (j = i) or base_i - eps
    blocks_i (j = M + i), joined by eigenvalues outside the block:
    ``outside`` is the pair of (2M,) arrays of their smallest and largest
    per matrix, or None when the blocks are whole.  The slack is the smallest
    min(lambda_min, lo_j) + supp_tol(dim, max(lambda_max, hi_j)) / 2, with
    the margin of the full dimension ``dim``.
    """
    w = np.linalg.eigvalsh(np.concatenate([base + eps * blocks, base - eps * blocks]))
    low, high = w[:, 0], w[:, -1]
    if outside is not None:
        low, high = np.minimum(low, outside[0]), np.maximum(high, outside[1])
    return float(np.min(low + 0.5 * pol.supp_tol(dim, high)))


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
    decomposed here.  Their vectors may be cut to the first k < dim columns
    when every D_i lies in the span of those columns, as the directions of
    :func:`is_extremal` lie in the supports: then the search runs on k x k
    blocks (below), with the same result up to rounding.

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
    3. Refine.  Secant and Illinois regula falsi on the slack, safeguarded by
       bisection, until hi - lo <= 1e-14 hi or the slack at both ends is at
       rounding level.

    The slack is :func:`perturbation_slack`, probed through
    :func:`block_slack`.  With k columns, V_i^dagger (T_i +/- epsilon D_i) V_i
    is diag(W_i[:k]) +/- epsilon V_ik^dagger D_i V_ik beside diag(W_i[k:]), so
    each probe decomposes the k x k blocks and takes the eigenvalues outside
    them as constants; the margin keeps the dimension of T_i.

    The lower end is returned, so the result passes
    :func:`perturbation_feasible`; on blocks, up to the rounding of the
    probed matrices.  When some T_i + m_i is not positive definite no
    epsilon is feasible, and the result is 0.
    """
    t = np.asarray(outcomes, dtype=complex)
    d = np.asarray(directions, dtype=complex)
    if not np.abs(d).max(initial=0.0) >= 1e-300:
        raise ValidationError("all perturbation directions vanish")
    if spectra is None:
        w, v = np.linalg.eigh(t)
    else:
        w, v = spectra.values, spectra.vectors
    dim, k = w.shape[-1], v.shape[-1]
    shifted = w + 0.5 * pol.supp_tol(dim, w.max(axis=1))[:, None]
    if shifted.min() <= 0.0:
        return 0.0
    # Rounding level of the eigenvalues, hence of the slack.  Shifted
    # eigenvalues below it (an outcome left on the margin by an earlier split)
    # are raised to it, so that rounding-level components of D_i there do not
    # dominate the estimate.
    noise = np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    s = v / np.sqrt(np.maximum(shifted[:, :k], noise))[:, None, :]
    norm = float(np.abs(np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ d @ s)).max())
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"perturbation directions out of floating-point range (norm {norm})")
    est = 1.0 / norm

    base, blocks, outside = t, d, None
    if k < dim:
        base = w[:, :k, None] * np.eye(k)
        blocks = v.conj().transpose(0, 2, 1) @ d @ v
        rest = w[:, k:]
        outside = (np.tile(rest.min(axis=1), 2), np.tile(rest.max(axis=1), 2))

    def slack(eps: float) -> float:
        return block_slack(base, blocks, eps, dim, pol, outside)

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


def _rank_test(sig: CombSignature, supports, n_known: int, pol: TolerancePolicy) -> linalg.RankDecision:
    """The pooled rank decision on the support bases projected off V, given
    the support vectors of each outcome and |V| (see
    :func:`linalg.block_rank_decision` for the rank and cutoff).

    The rows are built outcome by outcome and decided head first
    (:func:`linalg.block_rank_decision`).  Each outcome's rows are a projected
    orthonormal family, of spectral norm at most 1, so sqrt(M) bounds
    sigma_max of the stack of M outcomes.  An input whose estimated peak
    (:func:`rank_stage_bytes`) exceeds ``RANK_STAGE_BUDGET`` raises
    :class:`SizeLimitError` before any row is built.
    """
    ranks = [u.shape[1] for u in supports]
    need = rank_stage_bytes(sig, ranks)
    if need > RANK_STAGE_BUDGET:
        raise SizeLimitError(
            f"the rank test at signature {sig.dims} with support ranks {tuple(ranks)} "
            f"needs about {need:,} bytes, above the budget of {RANK_STAGE_BUDGET:,} bytes"
        )
    ambient = sig.total_dim ** 2
    return linalg.block_rank_decision(
        _coordinate_blocks(supports, sig, ambient - n_known + 1),
        sum(r * r for r in ranks),
        pol,
        known=n_known,
        ambient=ambient,
        sigma_bound=math.sqrt(len(supports)),
    )


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


def _full_support_pair(support_ranks, dim: int, n_known: int, pol: TolerancePolicy):
    """(a, b) for the full-support exit of :func:`is_extremal`, or None.

    a is the first outcome of full support.  b is the next outcome of full
    support when there is one, so that the witness is the identity exchange
    (see :func:`identity_exchange_step`), and otherwise the first other
    outcome with a nonzero support.  The projected rows of a alone have
    span = D^2 - |V| singular values equal to 1, so the pooled rank is
    span + |V| = D^2 whenever the cutoff taken at sigma_max <= sqrt(M) lies
    below 1 (README, "Full-support exit").
    """
    full = [i for i, r in enumerate(support_ranks) if r == dim]
    if not full:
        return None
    a = full[0]
    b = full[1] if len(full) > 1 else next((i for i, r in enumerate(support_ranks) if i != a and r > 0), None)
    if b is None:
        return None
    rows = sum(r * r for r in support_ranks) + n_known
    if pol.rank_tol(rows, dim * dim, max(1.0, math.sqrt(len(support_ranks)))) >= 1.0:
        return None
    return a, b


def identity_exchange_step(values, a: int, b: int, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """epsilon* of the identity exchange D_b = I, D_a = -I (every other
    D_i = 0) in closed form, from the eigenvalues ``values`` (M x D, any
    order) of the outcomes.

    T_i +/- epsilon I has the eigenvalues w_i +/- epsilon exactly, so only
    T_a - epsilon I and T_b - epsilon I can bind.  With c = supp_tol(D, 1) / 2,
    the slack of either is

        w_min - epsilon + c max(w_max - epsilon, 1),

    piecewise linear and strictly decreasing.  Its root is
    (w_min + c w_max) / (1 + c) while w_max - epsilon >= 1 there, and
    w_min + c once w_max - epsilon <= 1: the larger of the two.  The step is
    the smaller root of a and b, less the rounding allowance
    D eps_machine max(1, |w|_max) of the eigenvalues that
    :func:`perturbation_feasible` computes.  As in
    :func:`max_perturbation_step`, it is 0 when some outcome has a shifted
    eigenvalue w + supp_tol(D, w_max) / 2 <= 0.
    """
    w = np.asarray(values)
    dim = w.shape[-1]
    high, low = w.max(axis=1), w.min(axis=1)
    if np.min(low + 0.5 * pol.supp_tol(dim, high)) <= 0.0:
        return 0.0
    c = 0.5 * pol.supp_tol(dim, 1.0)
    low, high = low[[a, b]], high[[a, b]]
    roots = np.maximum((low + c * high) / (1.0 + c), low + c)
    allowance = dim * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    return max(0.0, float(roots.min()) - allowance)


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

    Full-support exit: when an outcome a has full support and another
    outcome b a nonzero one, and tau taken at sigma_max = sqrt(M) is below 1,
    the rank is D^2 with no row built (README, "Full-support exit").  b is
    another full-support outcome when there is one (see
    :func:`_full_support_pair`).  The witness exchanges weight between the
    two: D_b = P_b, D_a = -P_b, with P_b the projector onto Supp(T_b), every
    other D_i = 0 and Delta = 0.  When r_b = D, P_b is exactly I and
    epsilon* comes in closed form from the validation eigenvalues
    (:func:`identity_exchange_step`: the smaller root of the two piecewise
    linear slacks of T_a - epsilon I and T_b - epsilon I, one branch for
    lambda_max above 1 and one below, less a rounding allowance), with no
    further eigensolver.  Otherwise P_b = U_b U_b^dagger and epsilon* is
    searched (:func:`max_perturbation_step`).

    ``validation`` is the caller's :func:`is_valid_gqi` verdict on ``g`` at
    ``pol``, when it has one; otherwise ``g`` is validated here.  Each outcome
    is decomposed once, in validation, and the rank test and epsilon* reuse
    the eigenpairs.
    """
    spectra = _require_valid(g, pol, validation).spectra
    supports = [v[:, :r] for v, r in zip(spectra.vectors, spectra.support_ranks(pol))]
    support_ranks = tuple(u.shape[1] for u in supports)
    n_known = combs.comb_variable_count(g.signature)
    dim = g.signature.total_dim
    family_size = sum(r * r for r in support_ranks) + n_known
    directions = None
    step = None
    margin = None
    pair = _full_support_pair(support_ranks, dim, n_known, pol)
    if pair is not None:
        a, b = pair
        rank = dim * dim
        directions = [np.zeros((dim, dim), dtype=complex) for _ in g.outcomes]
        if support_ranks[b] == dim:
            p = np.eye(dim, dtype=complex)
            step = identity_exchange_step(spectra.values, a, b, pol)
        else:
            p = supports[b] @ supports[b].conj().T
        directions[a], directions[b] = -p, p
    else:
        decision = _rank_test(g.signature, supports, n_known, pol)
        rank = decision.rank
        if decision.nullvector is not None:
            directions = []
            pos = 0
            for u, r in zip(supports, support_ranks):
                h = linalg.unvectorize_hermitian(decision.nullvector[pos : pos + r * r], r)
                directions.append(u @ h @ u.conj().T)
                pos += r * r
        elif decision.singular_values.size:
            # An extremal family never has more members than its span, so its
            # rank is never decided on the head alone: the values are the
            # whole family's.  A tolerance above every eigenvalue leaves the
            # family empty.
            margin = float(decision.singular_values[-1])
    perturbation = None
    if directions is not None:
        if step is None:
            # The directions lie in the leading max r_i eigenvectors.
            in_supports = linalg.EigenDecomposition(spectra.values, spectra.vectors[..., : max(support_ranks)])
            step = max_perturbation_step(g.outcomes, directions, pol, in_supports)
        perturbation = Perturbation(directions=tuple(directions), delta=sum(directions), epsilon_star=step)
    return ExtremalityCertificate(
        extremal=perturbation is None,
        family_size=family_size,
        rank=rank,
        support_ranks=support_ranks,
        normalization_basis_size=n_known,
        perturbation=perturbation,
        margin=margin,
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
