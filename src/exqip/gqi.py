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
follows, :func:`decompose_step`.  :func:`decompose` grows the tree of such
steps down to a depth, one :func:`decide_all` per depth; it is the
library's one decomposition tree, which ``exqip decompose`` only writes.
Each decision stack, :func:`_decide_stack`, stacks its verdicts'
eigenpairs and support ranks once, into one spectra record
(:class:`_Supports`) that its rank test and its witnesses read.  The
witness is built when it is first read: a certificate decides
``extremal``, the rank and the margin at once, and the first read of
``perturbation`` on a dependent member builds the witnesses of its whole
stack, with one epsilon* call, once: a build that raises is not kept, so
the next read builds again.  With the constant working margin
supp_tol(D, 1) / 2, epsilon_star is a closed form: the generalized-eigenvalue
form of Choi's positivity argument, on each outcome's support, read from the
eigenpairs of validation.
Validation's batched ``linalg.hermitian_eig`` is the only eigendecomposition
of the outcomes, and the support rule, :meth:`TolerancePolicy.support`, on
its sorted spectra gives positivity and the support ranks the verdict
carries.  The rule runs once per verdict: the epsilon* step of a stack's
witnesses reads those ranks from the stack's record.  The tolerance
refusal of the rank cutoff and the size guard run once per stack, in
:func:`_decide_stack`.

Every object kind is a :class:`Gqi`, and the kinds, :class:`GqiVerdict`,
:func:`is_valid_gqi` and :func:`validate_all` live in :mod:`exqip.combs`,
which decides validity, and are re-exported here.  :func:`is_extremal`,
:func:`decompose_step` and :func:`mix` read only a GQI's ``signature`` and
``outcomes``, and the last two build their results with
:meth:`Gqi.from_view` of the input's class, so that they keep its kind.

A population is decided in stacked passes (README, "Deciding a
population"): :func:`decide_all` validates its objects with the stacked
passes of :func:`validate_all`, then groups them by signature and support
ranks, and each stage runs once per stack with a leading axis.
:func:`decide_all` takes no verdict from its caller, and each certificate
carries the verdict it read, ``validation``, for the criteria that read the
same supports.  Its groups are cut into stacks within
``combs.RANK_STAGE_BUDGET`` by ``combs._grouped``, an invalid object is
refused by ``combs._require_valid``, and which fault a population raises is
decided by ``combs._first_fault``, as for validation.  Each result is the
same to the bit as the object's own call, because :func:`is_extremal` is
that code on a stack of one.  A witness error is raised on read, by the
member whose own call raises it, with its own message.

What a verdict computes from its shape alone, |V|, the cutoff, the
full-support pair, the size estimate of the rank stage and its row layout,
is planned once per signature, support ranks and policy, :func:`_plan`, a
bounded cache of arithmetic on that key and the only cache of shape work.
A shape that takes the full-support exit has no size estimate: its group
is cut by the members' outcomes, and the size guard, which reads
``combs.RANK_STAGE_BUDGET`` per stack, refuses only a shape that builds rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

from . import combs, linalg
# The kinds and validity are defined in combs; they are re-exported here.
from .combs import (  # noqa: F401
    Channel, CombSignature, Gqi, GqiVerdict, Instrument, Povm, Tester, is_valid_gqi, validate_all,
)
from .errors import (
    DimensionMismatchError, ExqipError, ExtremalInputError, SizeLimitError, ToleranceError, ValidationError,
)
from .linalg import DEFAULT_TOL, TolerancePolicy


class Perturbation(linalg.Record):
    """Witness of non-extremality: T_i +/- epsilon_star * D_i are valid GQIs.
    Two witnesses are equal when their steps and every entry of their
    directions and delta are, and a witness hashes its step."""

    _compared = ("directions", "delta", "epsilon_star")

    def __init__(self, directions: tuple, delta: np.ndarray, epsilon_star: float):
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "epsilon_star", epsilon_star)

    def __eq__(self, other):
        if not isinstance(other, Perturbation):
            return NotImplemented
        return (
            self.epsilon_star == other.epsilon_star
            and len(self.directions) == len(other.directions)
            and all(np.array_equal(a, b) for a, b in zip(self.directions, other.directions))
            and np.array_equal(self.delta, other.delta)
        )

    def __hash__(self):
        return hash(self.epsilon_star)


class ExtremalityCertificate(linalg.Record):
    """The outcome of :func:`is_extremal`.  ``margin`` is, when extremal, the
    smallest singular value of the support family projected off V: how far
    the family is from dependence, and ``None`` otherwise.  ``validation``
    is the :func:`is_valid_gqi` verdict the decision read its supports from,
    ``None`` on a certificate read from a file.  A certificate from
    :func:`is_extremal` or :func:`decide_all` builds its ``perturbation`` on
    first read (README, "Deciding a population"); equality, hash and repr
    read it."""

    _compared = (
        "extremal", "family_size", "rank", "support_ranks", "normalization_basis_size", "perturbation", "margin",
    )

    def __init__(
        self,
        extremal: bool,
        family_size: int,
        rank: int,
        support_ranks: tuple,
        normalization_basis_size: int,
        perturbation,
        margin: float | None = None,
        validation: GqiVerdict | None = None,
    ):
        object.__setattr__(self, "extremal", extremal)
        object.__setattr__(self, "family_size", family_size)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "support_ranks", support_ranks)
        object.__setattr__(self, "normalization_basis_size", normalization_basis_size)
        object.__setattr__(self, "_perturbation", perturbation)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "validation", validation)

    @property
    def perturbation(self) -> Perturbation | None:
        """A :class:`Perturbation`, None, or, held until the first read, a
        pending witness: a function of no argument that builds it (see
        :func:`_read_witness`), called on the read and replaced by what it
        returns.  A pending witness that raises stays pending, so that
        every read raises."""
        value = self._perturbation
        if callable(value):
            value = value()
            object.__setattr__(self, "_perturbation", value)
        return value

    @property
    def verdict(self) -> str:
        return "extremal" if self.extremal else "not_extremal"


def perturbation_slack(outcomes, directions, eps: float, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Smallest lambda_min + c over the 2M matrices T_i +/- eps D_i, from one
    batched ``eigvalsh``, with the working margin c = supp_tol(D, 1) / 2.

    The outcomes are M matrices (D, D), and the directions must be M
    matrices of the same shape: any other shape raises
    :class:`DimensionMismatchError`.  Non-negative exactly when
    :func:`perturbation_feasible` holds.
    """
    t = np.asarray(outcomes)
    d = np.asarray(directions)
    if t.ndim != 3 or t.shape[1] != t.shape[2] or d.shape != t.shape:
        fit, need = [np.shape(x) for x in np.atleast_1d(d)], [np.shape(x) for x in np.atleast_1d(t)]
        raise DimensionMismatchError(
            f"directions of shapes {fit} do not fit outcomes of shapes {need}: both must be M matrices (D, D)"
        )
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


def _allowance(values):
    """The rounding allowance a = 2 D eps_machine max(1, |w|_max) of the
    epsilon* step, for the eigenvalues ``values`` (M x D) of the outcomes:
    the step keeps T_i +/- epsilon* D_i at least a inside the margin, to
    cover the rounding of the eigenvalues :func:`perturbation_slack`
    computes.  A stack (..., M, D) gives one allowance per GQI."""
    w = np.asarray(values)
    return 2.0 * w.shape[-1] * np.finfo(float).eps * np.maximum(1.0, np.abs(w).max(axis=(-2, -1)))


class _Supports(linalg.EigenDecomposition):
    """The spectra record of a decision stack: its verdicts' eigenvalues
    (K, M, D), stacked once by :meth:`of`, their eigenvectors (K, M, D, D),
    stacked on first read, and the support ranks, one per outcome, that they
    share.  Every later stage of :func:`_decide_stack` reads it: the rank
    test its support vectors, the witnesses their values and vectors, and
    :func:`max_perturbation_step` ``ranks`` rather than apply the support
    rule again.  The identity exchange reads only the values, so its stacks
    never copy the vectors."""

    def __init__(self, values: np.ndarray, vectors, ranks: tuple):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_vectors", vectors)
        object.__setattr__(self, "ranks", ranks)

    @property
    def vectors(self) -> np.ndarray:
        """The stacked eigenvectors; until the first read ``_vectors`` holds
        the verdicts they are stacked from."""
        vectors = self._vectors
        if isinstance(vectors, list):
            vectors = np.array([v.spectra.vectors for v in vectors])
            object.__setattr__(self, "_vectors", vectors)
        return vectors

    @classmethod
    def of(cls, verdicts: list) -> _Supports:
        """The record of verdicts that share their support ranks: the one
        place their ``spectra`` are stacked."""
        return cls(np.array([v.spectra.values for v in verdicts]), list(verdicts), verdicts[0].support_ranks)

    def __getitem__(self, k) -> _Supports:
        """The record of the members ``k`` of the stack, a slice or a list."""
        return _Supports(self.values[k], self.vectors[k], self.ranks)


def max_perturbation_step(directions, spectra: linalg.EigenDecomposition, pol: TolerancePolicy = DEFAULT_TOL):
    """Largest epsilon with every T_i +/- epsilon D_i PSD within the working
    margin, in closed form (README, "The ε* step").

    ``spectra`` are the eigenpairs of the outcomes T_i, eigenvalues
    descending, as :attr:`GqiVerdict.spectra` holds them, and each D_i lies
    in the support of T_i, the leading eigenvectors U_i that
    :meth:`TolerancePolicy.support` counts, as the witnesses of
    :func:`is_extremal` do.  The support ranks are counted here only
    because bare spectra do not hold them; the witnesses of a stack pass
    its spectra record, :class:`_Supports`, which holds the ranks of its
    verdicts.
    With the constant margin c = supp_tol(D, 1) / 2 and the rounding
    allowance a (:func:`_allowance`), S_i = U_i (W_i + c - a)^{-1/2} on that
    support.
    Then T_i +/- epsilon D_i + c - a is PSD exactly while
    epsilon |S_i^dagger D_i S_i|_2 <= 1, so the step is
    1 / max_i |S_i^dagger D_i S_i|_2, from one batched ``eigvalsh``.  This is
    the generalized-eigenvalue form of Choi's positivity argument.

    The eigenvalues outside the supports, which D_i does not touch, decide
    only whether any epsilon is feasible: the step is 0 when one of them has
    w + c <= 0, or one inside has w + c - a <= 0.

    Directions (M, D, D) give a float.  A stack (K, M, D, D) of K GQIs, with
    spectra of the same stack, gives the K steps as an array from one
    ``eigvalsh`` of all their blocks, each the same to the bit as its own
    call when the GQIs share the largest support rank k.
    """
    d = np.asarray(directions, dtype=complex)
    lead = d.shape[:-3]
    d = d.reshape(-1, *d.shape[-3:])
    if not np.abs(d).max(axis=(1, 2, 3), initial=0.0).min() >= 1e-300:
        raise ValidationError("all perturbation directions vanish")
    w, v = spectra.values, spectra.vectors
    dim = w.shape[-1]
    w = w.reshape(len(d), -1, dim)
    ranks = np.broadcast_to(spectra.ranks, w.shape[:2]) if isinstance(spectra, _Supports) else pol.support(w)[1]
    k = int(ranks.max())
    used = np.arange(dim) < ranks[..., None]
    # used * a is a where used and 0.0 elsewhere, as a is positive and finite.
    shifted = w + _margin(dim, pol) - used * _allowance(w)[:, None, None]
    feasible = [j for j, low in enumerate(shifted.min(axis=(1, 2)).tolist()) if low > 0.0]
    step = [0.0] * len(d)
    if feasible:
        v = v.reshape(len(d), -1, dim, dim)
        if len(feasible) < len(d):
            v, used, shifted, d = v[feasible], used[feasible], shifted[feasible], d[feasible]
        s = v[..., :k] / np.sqrt(np.where(used, shifted, np.inf))[:, :, None, :k]
        blocks = s.conj().transpose(0, 1, 3, 2) @ d @ s
        norms = np.abs(np.linalg.eigvalsh(blocks.reshape(-1, k, k))).reshape(len(d), -1).max(axis=1, initial=0.0)
        for j, norm in zip(feasible, norms.tolist()):
            if not 0.0 < norm < np.inf:
                raise ValidationError(f"perturbation directions out of floating-point range (norm {norm})")
            step[j] = 1.0 / norm
    return step[0] if lead == () else np.reshape(step, lead)


def rank_stage_bytes(sig: CombSignature, support_ranks) -> int:
    """Estimated peak bytes of the rank stage, sized for its worst case: the
    fallback that builds every projected row.  The m = sum r_i^2 rows have
    n = 1 + sum c_l^2 columns, c_l the reduced dimension of each level with a
    nontrivial even space (see :func:`combs.complement_coordinates`), and
    the head, the rows of the one SVD with U, has h = min(m, D^2 - |V| + 1)
    rows: every row when m <= D^2 - |V|.  With c the largest c_l and r the
    largest support rank, the estimate sums

    * 64 r^2 c^2: the coordinates of the largest support, four complex
      (r^2, c, c) tensors of :func:`linalg.support_operators` and the
      traceless parts built from it;
    * 24 m n: the row blocks, their stack and the SVD's copy of it;
    * 8 (h n + h^2 + k n + 4 k^2), k = min(h, n): the head, its U, V^T and
      the SVD workspace.

    A verdict reads this estimate from its :func:`_plan`, which holds it for
    the shapes that reach the rank stage.
    """
    d = sig.total_dim
    reduced = [even * low for _, even, low, _ in sig.coordinate_levels]
    n = 1 + sum(c * c for c in reduced)
    m = sum(r * r for r in support_ranks)
    h = min(m, d * d - sig.variable_count + 1)
    c = max(reduced, default=0)
    r = max(support_ranks, default=0)
    k = min(h, n)
    return 64 * r * r * c * c + 24 * m * n + 8 * (h * n + h * h + k * n + 4 * k * k)


class _Plan(linalg.Record):
    """The work of a verdict that depends only on its shape (see
    :func:`_plan`): |V| (``n_known``), the cutoff taken at sqrt(M)
    (``bound``), whether it is at or above sqrt(M) (``vacuous``), the
    full-support pair, the estimate of :func:`rank_stage_bytes`
    (``stage_bytes``), None when the pair is present, and for
    :func:`_rank_test` the m rows, the span D^2 - |V|, the head of
    min(m, span + 1) rows, and per outcome (i, rows) in the head and
    (i, first row past it) beyond it.  The family size is m + |V|.  Built
    only by :func:`_plan`, by keyword."""

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)


@functools.lru_cache(maxsize=256)
def _plan(sig: CombSignature, support_ranks: tuple, pol: TolerancePolicy) -> _Plan:
    """The :class:`_Plan` of the verdicts at signature ``sig``, support ranks
    ``support_ranks`` and ``pol``, computed once per key (README, "Deciding
    a population"): the one cache of a stack's shape work.  It is arithmetic
    on the key alone; ``combs.RANK_STAGE_BUDGET`` is read per stack, by
    :func:`_decide_stack`.  The cutoff is the pooled family's, taken at
    sigma_max <= sqrt(M) and read by both exits of :func:`is_extremal`."""
    dim = sig.total_dim
    n_known = sig.variable_count
    starts = (0, *itertools.accumulate(r * r for r in support_ranks))
    m = starts[-1]
    span = dim * dim - n_known
    head = min(m, span + 1)
    bound = pol.rank_tol(m + n_known, dim * dim, math.sqrt(len(support_ranks)))
    pair = _full_support_pair(support_ranks, dim, bound)
    return _Plan(
        n_known=n_known,
        bound=bound,
        vacuous=bound >= math.sqrt(len(support_ranks)),
        pair=pair,
        stage_bytes=None if pair else rank_stage_bytes(sig, support_ranks),
        m=m,
        span=span,
        head=head,
        head_rows=tuple((i, head - a) for i, a in enumerate(starts[:-1]) if a < head),
        rest_rows=tuple((i, max(0, head - a)) for i, (a, b) in enumerate(zip(starts, starts[1:])) if b > head),
    )


def _rank_test(sig: CombSignature, supports, plan: _Plan, pol: TolerancePolicy) -> list:
    """The pooled rank decisions on the support bases projected off V of K
    GQIs with the same signature and support ranks, given per outcome the
    stack (K, D, r_i) of their support vectors and the :class:`_Plan` of
    their shape, which holds |V| and ``bound``, the cutoff taken at
    sigma_max = sqrt(M) (see :func:`is_extremal`).

    Returns one (rank, c, margin) per GQI.  The null vector c, a unit
    coefficient vector over the m = sum r_i^2 > 0 rows, is present exactly
    when the rows are dependent; the margin, the smallest singular value of
    the rows, exactly when they are independent.  Each is the same to the
    bit as from a stack of its own: numpy's stacked SVD and products run one
    LAPACK or BLAS call per matrix.

    The rows span at most span = D^2 - |V| dimensions.  Each stack runs one
    SVD, with U, of its head: every row when m <= span, and the first
    span + 1 rows otherwise.  Within the span that SVD gives each GQI its
    rank, its margin and its null vector.  Past the span a GQI whose head has
    span singular values above ``bound`` has the pooled rank span + |V|
    (README, "Head-first rank"); every other GQI falls back to the
    values-only SVD of all rows, those past the head built then, each once
    (the outcome that straddles the head forms its partial traces again).
    The rank is counted at the pooled cutoff

        tau = max(m + |V|, D^2) * sigma * eps_rel,

    sigma = sigma_max, floored at 1 when |V| > 0 because the orthonormal
    members of V alone have unit singular values.  c is the last left
    singular vector of the head, padded with zeros and oriented so that its
    largest entry is positive.  The head's U is full when the head has more
    rows than columns (n = span, as on (1, d)): the thin U would hold only
    vectors of nonzero singular values.

    The caller has kept the stage within ``combs.RANK_STAGE_BUDGET``, the cutoff
    below sigma_max (:func:`_decide_stack`) and m > 0 (the empty-support
    rule of :func:`combs._validate_stack`).
    """
    m, span, n_known, head = plan.m, plan.span, plan.n_known, plan.head
    x = [combs.complement_coordinates(supports[i], sig, 0, rows) for i, rows in plan.head_rows]
    x = x[0] if len(x) == 1 else np.concatenate(x, axis=-2)
    u, s = np.linalg.svd(x, full_matrices=head > x.shape[-1])[:2]
    out = [None] * len(x)
    todo = list(range(len(x)))
    if m > span:
        exits = ((s > plan.bound).sum(axis=-1) >= span).tolist()
        for j in todo:
            if exits[j]:
                out[j] = (span + n_known, _null_vector(u[j], m), None)
        todo = [j for j in todo if not exits[j]]
        if todo:
            x = x[todo] if len(todo) < len(x) else x
            past = [combs.complement_coordinates(supports[i][todo], sig, row) for i, row in plan.rest_rows]
            s = np.linalg.svd(np.concatenate([x] + past, axis=-2), compute_uv=False)
    for j, sj in zip(todo, s):
        sigma = max(1.0 if n_known else 0.0, float(sj[0]))
        rank = int(np.count_nonzero(sj > pol.rank_tol(m + n_known, span + n_known, sigma)))
        out[j] = (rank + n_known, None, float(sj[-1])) if rank == m else (rank + n_known, _null_vector(u[j], m), None)
    return out


def _null_vector(u: np.ndarray, m: int) -> np.ndarray:
    """The last left singular vector of a head, ``u``, padded to the m rows
    and oriented so that its largest entry is positive."""
    c = np.zeros(m)
    c[: u.shape[0]] = u[:, -1]
    if c[np.argmax(np.abs(c))] < 0:
        c = -c
    return c


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


def identity_exchange_step(values, a: int, b: int, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """epsilon* of the identity exchange D_b = I, D_a = -I (every other
    D_i = 0), from the eigenvalues ``values`` (M x D, any order) of the
    outcomes alone, or for each GQI of a stack (K, M, D) at once.

    The special case of :func:`max_perturbation_step` for this witness:
    T_i +/- epsilon I has the eigenvalues w_i +/- epsilon exactly, so the
    step is min(w_min of T_a, w_min of T_b) + c less the rounding allowance
    (:func:`_allowance`), with c = supp_tol(D, 1) / 2.  It is 0 when some
    eigenvalue has w + c <= 0.
    """
    w = np.asarray(values)
    c = _margin(w.shape[-1], pol)
    step = np.maximum(0.0, w[..., [a, b], :].min(axis=(-2, -1)) + c - _allowance(w))
    return np.where(w.min(axis=(-2, -1)) + c <= 0.0, 0.0, step)


def decide_all(objects, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """:func:`is_extremal` of every object, decided in stacked passes (README,
    "Deciding a population"): the validation pass of :func:`validate_all`,
    then the decision.

    The objects are grouped by signature and support ranks, and a group is
    cut into stacks of K members whose estimated peak, K times
    :func:`rank_stage_bytes`, stays within ``combs.RANK_STAGE_BUDGET``; a group at
    the full-support exit, which builds no row, by its members' outcomes,
    16 M D^2 bytes each.  Per stack
    the full-support exit is taken, or one rank stage runs
    (:func:`_rank_test`); the witnesses of the dependent members are built
    on the first read of any of them, with their epsilon* from one
    :func:`max_perturbation_step` of the stack.  Each certificate is the
    same to the bit as the object's own call, and carries its verdict in
    ``validation``.  An object that :func:`is_extremal` would raise for, an
    invalid one included, raises as :func:`combs._first_fault` names it; a
    witness error is raised when that member's witness is read.
    """
    objects = list(objects)
    return combs._first_fault(lambda members: _decide_grouped([objects[i] for i in members], pol), range(len(objects)))


def _decide_grouped(gs: list, pol: TolerancePolicy) -> list:
    """The stacked passes of :func:`decide_all`, after one validation pass
    (:func:`combs._validate_grouped`), with no member named.  A group is cut by
    the ``stage_bytes`` of its :func:`_plan`, or, at the full-support exit,
    which builds no row, by its members' outcomes, 16 M D^2 bytes each."""
    validations = combs._validate_grouped(gs, pol)
    return combs._grouped(
        [(g.signature, v.support_ranks) for g, v in zip(gs, validations)],
        lambda key: _plan(*key, pol).stage_bytes or 16 * len(key[1]) * key[0].total_dim ** 2,
        lambda members: _decide_stack([gs[i] for i in members], [validations[i] for i in members], pol),
    )


def is_extremal(g: Gqi, pol: TolerancePolicy = DEFAULT_TOL) -> ExtremalityCertificate:
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

    The witness and its epsilon* are built on the first read of
    ``perturbation``.  Each outcome is decomposed once, in validation, and
    the rank test and epsilon* reuse the eigenpairs; an invalid ``g`` raises
    the error of :func:`combs._require_valid`, and a tolerance that makes the
    verdict vacuous :class:`ToleranceError`.  This is the stacked pass of
    :func:`decide_all` on ``g`` alone.
    """
    validation = combs.is_valid_gqi(g, pol)
    return _decide_stack([g], [validation], pol)[0]


def _decide_stack(gs: list, verdicts: list, pol: TolerancePolicy) -> list:
    """The certificates of K GQIs with the same signature and support ranks
    (see :func:`is_extremal`), given their :func:`combs._validate_stack` verdicts
    at ``pol``.  Their spectra are stacked once, into the :class:`_Supports`
    record that the rank test and the witnesses read.

    After the gate of each verdict come the two refusals of the stack, in
    this order: :class:`ToleranceError` when the cutoff at sqrt(M) >=
    sigma_max is at or above sqrt(M), max(m + |V|, D^2) eps_rel >= 1, so
    that every projected rank would be 0; then the size guard,
    :class:`SizeLimitError`, when the stack reaches the rank stage, having
    no full-support pair, and the stage's estimated peak, the
    ``stage_bytes`` of its :func:`_plan`, is above ``combs.RANK_STAGE_BUDGET``.

    The witnesses of the dependent members are built once, by the first
    read of any of them; a build that raises is not kept, so that every
    read raises until one builds."""
    sig = gs[0].signature
    for g, verdict in zip(gs, verdicts):
        combs._require_valid(g, pol, verdict)
    spectra = _Supports.of(verdicts)
    plan = _plan(sig, spectra.ranks, pol)
    if plan.vacuous:
        raise ToleranceError(
            f"tolerance {pol.eps_rel:g} puts the rank cutoff at or above every singular value at dimension "
            f"{sig.total_dim}"
        )
    if plan.stage_bytes is not None and plan.stage_bytes > combs.RANK_STAGE_BUDGET:
        raise SizeLimitError(
            f"the rank test at signature {sig.dims} with support ranks {spectra.ranks} "
            f"needs about {plan.stage_bytes:,} bytes, above the budget of {combs.RANK_STAGE_BUDGET:,} bytes"
        )
    if plan.pair is not None:
        decided = [(sig.total_dim ** 2, None, None)] * len(gs)
        build = functools.partial(_exchange_witnesses, spectra, plan.pair, pol)
    else:
        supports = [spectra.vectors[:, i, :, :r] for i, r in enumerate(spectra.ranks)]
        decided = _rank_test(sig, supports, plan, pol)
        build = functools.partial(_rank_witnesses, spectra, supports, decided, pol)
    # At the full-support exit every member depends, and none has a null vector.
    dependent = [plan.pair is not None or c is not None for _, c, _ in decided]
    witnesses = [build]
    return [
        ExtremalityCertificate(
            extremal=not depends,
            family_size=plan.m + plan.n_known,
            rank=rank,
            support_ranks=spectra.ranks,
            normalization_basis_size=plan.n_known,
            perturbation=functools.partial(_read_witness, witnesses, j) if depends else None,
            margin=margin,
            validation=verdict,
        )
        for j, ((rank, _, margin), depends, verdict) in enumerate(zip(decided, dependent, verdicts))
    ]


def _read_witness(witnesses: list, j: int) -> Perturbation:
    """The witness of member ``j`` of a stack, or the error of its own
    former eager call, raised.  ``witnesses`` is the stack's one slot: its
    build, a function of no argument, until a call returns the witnesses,
    which then replace it; a build that raises stays in the slot."""
    if callable(witnesses[0]):
        witnesses[0] = witnesses[0]()
    witness = witnesses[0][j]
    if isinstance(witness, ExqipError):
        raise witness
    return witness


def _exchange_witnesses(spectra: _Supports, pair: tuple, pol: TolerancePolicy) -> list:
    """The witnesses of a stack at the full-support exit (see
    :func:`is_extremal`), one per member: D_b = P_b, D_a = -P_b and every
    other D_i = 0, with epsilon* from :func:`identity_exchange_step` when
    P_b = I."""
    a, b = pair
    k, m, dim = spectra.values.shape
    directions = [np.zeros((k, dim, dim), dtype=complex) for _ in range(m)]
    steps = None
    if spectra.ranks[b] == dim:
        p = np.eye(dim, dtype=complex)[None].repeat(k, axis=0)
        steps = identity_exchange_step(spectra.values, a, b, pol)
    else:
        u = spectra.vectors[:, b, :, : spectra.ranks[b]]
        p = u @ u.conj().transpose(0, 2, 1)
    directions[a], directions[b] = -p, p
    return _perturbations(directions, spectra, steps, pol)


def _rank_witnesses(spectra: _Supports, supports: list, decided: list, pol: TolerancePolicy) -> dict:
    """The witnesses of the dependent members of a stack that took the rank
    stage, by member, given the stack's support vectors and its
    :func:`_rank_test` results: D_i = U_i H_i U_i^dagger, H_i from the
    coordinates the null vector c gives outcome i."""
    dependent = [j for j, (_, c, _) in enumerate(decided) if c is not None]
    c = np.array([decided[j][1] for j in dependent])
    if len(dependent) < len(decided):
        spectra = spectra[dependent]
        supports = [u[dependent] for u in supports]
    directions, pos = [], 0
    for u, r in zip(supports, spectra.ranks):
        h = linalg.unvectorize_hermitian(c[:, pos : pos + r * r], r)
        directions.append(u @ h @ u.conj().transpose(0, 2, 1))
        pos += r * r
    return dict(zip(dependent, _perturbations(directions, spectra, None, pol)))


def _perturbations(directions: list, spectra: _Supports, steps, pol: TolerancePolicy) -> list:
    """The witnesses of a stack from one stack of directions (K, D, D) per
    outcome and the stack's spectra record.  Their steps are ``steps``, or
    else one :func:`max_perturbation_step` of the stack; when that raises,
    each member's own call decides its step, and a member whose call raises
    gets its error in place of its witness."""
    witnesses = [tuple(d[pos] for d in directions) for pos in range(len(spectra.values))]
    if steps is None:
        try:
            steps = max_perturbation_step(witnesses, spectra, pol)
        except ExqipError:
            steps = [_own_step(d, spectra, j, pol) for j, d in enumerate(witnesses)]
    return [
        step if isinstance(step, ExqipError) else Perturbation(directions=d, delta=sum(d), epsilon_star=float(step))
        for d, step in zip(witnesses, steps)
    ]


def _own_step(directions: tuple, spectra: _Supports, j: int, pol: TolerancePolicy):
    """The step of member ``j`` of a stack, from its stack of one, or the
    error it raises."""
    try:
        return max_perturbation_step([directions], spectra[j : j + 1], pol)[0]
    except ExqipError as err:
        return err


def decompose_step(
    g: Gqi,
    pol: TolerancePolicy = DEFAULT_TOL,
    certificate: ExtremalityCertificate | None = None,
):
    """Split a non-extremal GQI into two valid GQIs of its kind averaging
    back to it.  A given ``certificate`` whose directions do not match the
    outcomes of ``g`` in number and in shape raises
    :class:`DimensionMismatchError`."""
    if certificate is None:
        certificate = is_extremal(g, pol)
    if certificate.extremal or certificate.perturbation is None:
        raise ExtremalInputError("cannot decompose an extremal GQI")
    pert = certificate.perturbation
    fit, need = [np.shape(d) for d in pert.directions], [np.shape(t) for t in g.outcomes]
    if fit != need:
        raise DimensionMismatchError(f"certificate directions of shapes {fit} do not fit outcomes of shapes {need}")
    eps = pert.epsilon_star
    new = type(g).from_view
    plus = new(g.signature, tuple(t + eps * d for t, d in zip(g.outcomes, pert.directions)))
    minus = new(g.signature, tuple(t - eps * d for t, d in zip(g.outcomes, pert.directions)))
    return plus, minus


def decompose(g: Gqi, steps: int, pol: TolerancePolicy = DEFAULT_TOL):
    """The binary decomposition tree of a not-extremal GQI, at most ``steps``
    splits deep (README, "Deciding a population"): ``(leaves, residual)``.
    Each leaf is ``(path, node, weight, status)``, sorted by ``path``, the
    sides taken from the root (0 plus, 1 minus): the depth-first order.
    ``status`` is ``"extremal"``, or ``None`` for a node with epsilon* = 0 or
    one at depth ``steps``.  Each :func:`decompose_step` child has half its
    parent's weight, and ``residual`` is the largest entry of the weighted
    sum of the leaves minus ``g``.  An extremal root, decided by
    :func:`is_extremal`, raises :class:`ExtremalInputError`.  Each depth's
    undecided nodes go through one :func:`decide_all`, and a node it refuses
    raises its own :func:`is_extremal` error, without the member index.
    All verdicts of a depth are held until its certificates are built:
    about as many bytes as the depth's outcomes, since each verdict keeps
    the eigenvectors of its outcomes.  Before a depth is decided, the nodes
    the tree then holds, the leaves so far, the frontier and its children,
    are estimated at 32 M D^2 bytes each, their outcomes and as much again
    of eigenvectors; a tree whose estimate exceeds ``combs.RANK_STAGE_BUDGET``
    raises :class:`SizeLimitError`.
    A ``steps`` that is negative, a bool or not an integer raises
    :class:`ValueError`; numpy integers are integers."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    cert = is_extremal(g, pol)
    if cert.extremal:
        raise ExtremalInputError("cannot decompose an extremal GQI")
    # A frontier entry is (path, node, weight, certificate or None).
    frontier, leaves = [((), g, 1.0, cert)], []
    node_bytes = 32 * len(g.outcomes) * g.signature.total_dim ** 2
    for depth in range(steps):
        if not frontier:
            break
        held = (len(leaves) + 3 * len(frontier)) * node_bytes
        if held > combs.RANK_STAGE_BUDGET:
            raise SizeLimitError(
                f"the decomposition tree at depth {depth} holds about {held:,} bytes, "
                f"above the budget of {combs.RANK_STAGE_BUDGET:,} bytes"
            )
        nodes = [node for _, node, _, c in frontier if c is None]
        try:
            decided = iter(decide_all(nodes, pol) if nodes else ())
        except ExqipError as err:
            raise (err.__cause__ or err) from None
        children = []
        for path, node, weight, c in frontier:
            if c is None:
                c = next(decided)
            if c.extremal:
                leaves.append((path, node, weight, "extremal"))
            elif c.perturbation.epsilon_star == 0.0:
                # No step is feasible: both sides would be the node itself.
                leaves.append((path, node, weight, None))
            else:
                plus, minus = decompose_step(node, pol, c)
                children += [(path + (0,), plus, weight / 2.0, None), (path + (1,), minus, weight / 2.0, None)]
        frontier = children
    leaves += [(path, node, weight, None) for path, node, weight, _ in frontier]
    leaves.sort(key=lambda leaf: leaf[0])

    recon = [np.zeros_like(t) for t in g.outcomes]
    for _, node, w, _ in leaves:
        for i, t in enumerate(node.outcomes):
            recon[i] = recon[i] + w * t
    return leaves, float(max(linalg.max_abs(a - b) for a, b in zip(recon, g.outcomes)))


def mix(a: Gqi, b: Gqi, weight: float = 0.5) -> Gqi:
    """Convex combination weight*a + (1-weight)*b of two same-shaped GQIs,
    of the kind of ``a``.  A weight that is a bool, not a real number,
    outside [0, 1] or not finite raises :class:`ValidationError`."""
    if a.signature != b.signature or len(a.outcomes) != len(b.outcomes):
        raise DimensionMismatchError("mixed GQIs must share signature and outcome count")
    if isinstance(weight, bool) or not isinstance(weight, numbers.Real) or not 0.0 <= weight <= 1.0:
        raise ValidationError(f"mixing weight must lie in [0, 1], got {weight!r}")
    return type(a).from_view(
        a.signature,
        tuple(weight * ta + (1.0 - weight) * tb for ta, tb in zip(a.outcomes, b.outcomes)),
    )
