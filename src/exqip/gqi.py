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
follows.  With the constant working margin supp_tol(D, 1) / 2, epsilon_star
is a closed form: the generalized-eigenvalue form of Choi's positivity
argument, on each outcome's support.

Every object kind is a GQI to this module: :func:`is_valid_gqi`,
:func:`is_extremal`, :func:`decompose_step` and :func:`mix` read only its
``signature`` and ``outcomes``.
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
    ``g`` is a :class:`Gqi` or any object kind; only its ``signature`` and
    ``outcomes`` are read.

    The outcomes are checked and decomposed as one stack: one batched
    Hermiticity check, one batched ``eigh``.  An outcome of the wrong shape
    raises after the Hermiticity check of the outcomes before it.  The sum,
    positive because the outcomes are, is symmetrized and goes through the
    cascade alone (README, "Conventions").
    """
    outcomes = g.outcomes
    if len(outcomes) < 1:
        raise ValidationError("a GQI needs at least one outcome")
    total = g.signature.total_dim
    shaped = next(
        (i for i, t in enumerate(outcomes) if t.shape != (total, total)), len(outcomes)
    )
    h = linalg.check_hermitian_stack(np.reshape(outcomes[:shaped], (shaped, total, total)), pol)
    if shaped < len(outcomes):
        raise DimensionMismatchError(
            f"outcome shape {outcomes[shaped].shape} does not match signature dimension {total}"
        )
    spectra = linalg.hermitian_eigs(h)
    w = spectra.values
    s = sum(outcomes)
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
    """Smallest lambda_min + c over the 2M matrices T_i +/- eps D_i, from one
    batched ``eigvalsh``, with the working margin c = supp_tol(D, 1) / 2.

    Non-negative exactly when :func:`perturbation_feasible` holds.
    """
    t = np.asarray(outcomes)
    d = np.asarray(directions)
    w = np.linalg.eigvalsh(np.concatenate([t + eps * d, t - eps * d]))
    return float(w[:, 0].min() + _margin(t.shape[-1], pol))


def perturbation_feasible(outcomes, directions, eps: float, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when every T_i +/- eps D_i stays PSD within the working margin.

    The margin c = supp_tol(D, 1) / 2 is half the smallest support
    tolerance, so feasible perturbations keep a positivity cushion and
    re-validate cleanly after file round trips.
    """
    return perturbation_slack(outcomes, directions, eps, pol) >= 0.0


def _margin(dim: int, pol: TolerancePolicy) -> float:
    """The working margin c = supp_tol(D, 1) / 2 of the epsilon* step."""
    return 0.5 * pol.supp_tol(dim, 1.0)


def _allowance(values) -> float:
    """The rounding allowance a = 2 D eps_machine max(1, |w|_max) of the
    epsilon* step, for the eigenvalues ``values`` (M x D) of the outcomes:
    the step keeps T_i +/- epsilon* D_i at least a inside the margin, to
    cover the rounding of the eigenvalues :func:`perturbation_slack`
    computes."""
    w = np.asarray(values)
    return 2.0 * w.shape[-1] * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))


def max_perturbation_step(
    outcomes,
    directions,
    pol: TolerancePolicy = DEFAULT_TOL,
    spectra: linalg.EigenDecomposition | None = None,
) -> float:
    """Largest epsilon with every T_i +/- epsilon D_i PSD within the working
    margin, in closed form (README, "The epsilon* step").

    With the constant margin c = supp_tol(D, 1) / 2 and the rounding
    allowance a (:func:`_allowance`), write T_i + c - a = V_i (W_i + c - a)
    V_i^dagger on the columns that D_i may touch, and
    S_i = V_i (W_i + c - a)^{-1/2} there.  Then T_i +/- epsilon D_i + c - a
    is PSD exactly while epsilon |S_i^dagger D_i S_i|_2 <= 1, so the step is
    1 / max_i |S_i^dagger D_i S_i|_2, from one batched ``eigvalsh``.  This is
    the generalized-eigenvalue form of Choi's positivity argument.

    ``spectra`` are eigenpairs of the outcomes, eigenvalues descending, such
    as :attr:`GqiVerdict.spectra`.  With them each D_i must lie in the
    support of T_i, its leading ``pol.support_rank`` eigenvectors, as the
    witnesses of :func:`is_extremal` do, and S_i is taken on that support
    alone.  Without them the outcomes are decomposed here and S_i is taken on
    all D columns, so the directions may leave the supports.

    The eigenvalues outside the columns used, which D_i does not touch,
    decide only whether any epsilon is feasible: the step is 0 when one of
    them has w + c <= 0, or one inside has w + c - a <= 0.
    """
    t = np.asarray(outcomes, dtype=complex)
    d = np.asarray(directions, dtype=complex)
    if not np.abs(d).max(initial=0.0) >= 1e-300:
        raise ValidationError("all perturbation directions vanish")
    if spectra is None:
        w, v = np.linalg.eigh(t)
        ranks = np.full(len(w), w.shape[-1])
    else:
        w, v = spectra.values, spectra.vectors
        ranks = pol.support_rank(w)
    k = int(ranks.max())
    used = np.arange(w.shape[-1]) < ranks[:, None]
    shifted = w + _margin(w.shape[-1], pol) - np.where(used, _allowance(w), 0.0)
    if shifted.min() <= 0.0:
        return 0.0
    s = v[..., :k] / np.sqrt(np.where(used, shifted, np.inf))[:, None, :k]
    norm = float(np.abs(np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ d @ s)).max(initial=0.0))
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"perturbation directions out of floating-point range (norm {norm})")
    return 1.0 / norm


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


def _rank_test(sig: CombSignature, supports, n_known: int, bound: float, pol: TolerancePolicy):
    """The pooled rank decision on the support bases projected off V, given
    the support vectors of each outcome, |V| and ``bound``, the cutoff taken
    at sigma_max = sqrt(M) (see :func:`is_extremal`).

    Returns (rank, c, margin).  The null vector c, a unit coefficient vector
    over the m = sum r_i^2 rows, is present exactly when the rows are
    dependent; the margin, the smallest singular value of the rows, exactly
    when they are independent and m > 0.

    An input whose estimated peak (:func:`rank_stage_bytes`) exceeds
    ``RANK_STAGE_BUDGET`` raises :class:`SizeLimitError` before any row is
    built.  The rows are built outcome by outcome (:func:`_coordinate_blocks`)
    and only as far as the decision needs.  They span at most
    span = min(D^2 - |V|, n) dimensions of their n coordinates.

    Head first: when m > span, the first span + 1 rows (the head) are
    decomposed first, with U.  If the head has span singular values above
    ``bound``, the pooled rank is span + |V| and the remaining rows are never
    built (README, "Head-first rank"): each outcome's rows are a projected
    orthonormal family, of spectral norm at most 1, so sqrt(M) bounds
    sigma_max of the stack.  Otherwise the rank comes from the values-only
    SVD of all the rows at the pooled cutoff

        tau = max(m + |V|, D^2) * sigma * eps_rel,

    sigma = sigma_max, floored at 1 when |V| > 0 because the orthonormal
    members of V alone have unit singular values.  c is the last left
    singular vector of the head, padded with zeros and oriented so that its
    largest entry is positive.  The head's U is full when the head has more
    rows than columns (n = span, as on (1, d)): the thin U would hold only
    vectors of nonzero singular values.
    """
    ranks = [u.shape[1] for u in supports]
    need = rank_stage_bytes(sig, ranks)
    if need > RANK_STAGE_BUDGET:
        raise SizeLimitError(
            f"the rank test at signature {sig.dims} with support ranks {tuple(ranks)} "
            f"needs about {need:,} bytes, above the budget of {RANK_STAGE_BUDGET:,} bytes"
        )
    ambient = sig.total_dim ** 2
    m = sum(r * r for r in ranks)
    blocks = _coordinate_blocks(supports, sig, ambient - n_known + 1)
    built = [next(blocks)]
    n = built[0].shape[1]
    span = min(ambient - n_known, n)

    def head_svd(x):
        head = x[: span + 1]
        return np.linalg.svd(head, full_matrices=head.shape[0] > n)[:2]

    u, rank = None, span
    if m > span:
        while sum(b.shape[0] for b in built) <= span:
            built.append(next(blocks))
        u, s = head_svd(np.vstack(built))
    if u is None or np.count_nonzero(s > bound) < span:
        built.extend(blocks)
        x = built[0] if len(built) == 1 else np.vstack(built)
        del built
        s = np.linalg.svd(x, compute_uv=False)
        sigma = max(1.0 if n_known else 0.0, float(s[0]) if s.size else 0.0)
        rank = int(np.count_nonzero(s > pol.rank_tol(m + n_known, ambient, sigma)))
        if rank == m:
            return rank + n_known, None, float(s[-1]) if s.size else None
        if u is None:
            u, _ = head_svd(x)
    c = np.zeros(m)
    c[: u.shape[0]] = u[:, -1]
    if c[np.argmax(np.abs(c))] < 0:
        c = -c
    return rank + n_known, c, None


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


def _full_support_pair(support_ranks, dim: int, bound: float):
    """(a, b) for the full-support exit of :func:`is_extremal`, or None.

    a is the first outcome of full support.  b is the next outcome of full
    support when there is one, so that the witness is the identity exchange
    (see :func:`identity_exchange_step`), and otherwise the first other
    outcome with a nonzero support.  The projected rows of a alone have
    span = D^2 - |V| singular values equal to 1, so the pooled rank is
    span + |V| = D^2 whenever ``bound``, the cutoff taken at
    sigma_max <= sqrt(M), lies below 1 (README, "Full-support exit").
    """
    full = [i for i, r in enumerate(support_ranks) if r == dim]
    if not full or bound >= 1.0:
        return None
    a = full[0]
    b = full[1] if len(full) > 1 else next((i for i, r in enumerate(support_ranks) if i != a and r > 0), None)
    return None if b is None else (a, b)


def identity_exchange_step(values, a: int, b: int, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """epsilon* of the identity exchange D_b = I, D_a = -I (every other
    D_i = 0), from the eigenvalues ``values`` (M x D, any order) of the
    outcomes alone.

    The special case of :func:`max_perturbation_step` for this witness:
    T_i +/- epsilon I has the eigenvalues w_i +/- epsilon exactly, so the
    step is min(w_min of T_a, w_min of T_b) + c less the rounding allowance
    (:func:`_allowance`), with c = supp_tol(D, 1) / 2.  It is 0 when some
    eigenvalue has w + c <= 0.
    """
    w = np.asarray(values)
    c = _margin(w.shape[-1], pol)
    if w.min() + c <= 0.0:
        return 0.0
    return max(0.0, float(w[[a, b]].min() + c - _allowance(w)))


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
    decided here, from its ``signature`` and ``outcomes``.

    The cutoff is the pooled family's: with r_i the support ranks,

        tau = max(sum r_i^2 + |V|, D^2) * max(1, sigma_max) * eps_rel,

    sigma_max being the largest singular value of the projected family.  A
    null vector c yields D_i = sum_{j in i} c_j q_j and Delta = sum_i D_i.
    When sum r_i^2 > D^2 - |V| the counting rule already rules out
    extremality, and c comes from the first D^2 - |V| + 1 projected members,
    the head.  The rank is then decided on the head alone when it can be
    (README, "Head-first rank"), and the remaining members are not built
    (:func:`_rank_test`).  Each outcome's projected members have spectral
    norm at most 1, so sigma_max <= sqrt(M) for M outcomes; tau taken at
    sqrt(M) is computed once here and read by both this head exit and the
    full-support exit.

    Full-support exit: when an outcome a has full support and another
    outcome b a nonzero one, and tau taken at sigma_max = sqrt(M) is below 1,
    the rank is D^2 with no row built (README, "Full-support exit").  b is
    another full-support outcome when there is one (see
    :func:`_full_support_pair`).  The witness exchanges weight between the
    two: D_b = P_b, D_a = -P_b, with P_b the projector onto Supp(T_b), every
    other D_i = 0 and Delta = 0.  When r_b = D, P_b is exactly I and
    epsilon* is read from the validation eigenvalues
    (:func:`identity_exchange_step`), with no further eigensolver.
    Otherwise P_b = U_b U_b^dagger.  Every other epsilon* is
    :func:`max_perturbation_step` on the supports.

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
    # The cutoff at sigma_max <= sqrt(M), shared by both exits.
    bound = pol.rank_tol(family_size, dim * dim, math.sqrt(len(supports)))
    directions = None
    step = None
    margin = None
    pair = _full_support_pair(support_ranks, dim, bound)
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
        rank, c, margin = _rank_test(g.signature, supports, n_known, bound, pol)
        if c is not None:
            directions = []
            pos = 0
            for u, r in zip(supports, support_ranks):
                h = linalg.unvectorize_hermitian(c[pos : pos + r * r], r)
                directions.append(u @ h @ u.conj().T)
                pos += r * r
    perturbation = None
    if directions is not None:
        if step is None:
            step = max_perturbation_step(g.outcomes, directions, pol, spectra)
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
    """Convex combination weight*a + (1-weight)*b of two same-shaped GQIs,
    or of any two objects with a ``signature`` and ``outcomes``."""
    if a.signature != b.signature or len(a.outcomes) != len(b.outcomes):
        raise DimensionMismatchError("mixed GQIs must share signature and outcome count")
    return Gqi(
        signature=a.signature,
        outcomes=tuple(
            weight * ta + (1.0 - weight) * tb for ta, tb in zip(a.outcomes, b.outcomes)
        ),
    )
