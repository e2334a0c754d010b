"""Deterministic quantum N-combs, the object kinds and their validity.

A deterministic N-comb is a positive operator on the 2N alternating
input/output spaces H_0 .. H_{2N-1} whose partial traces obey the recursive
normalization cascade

    Tr_{2n-1} R^(n) = I_{2n-2} (x) R^(n-1),      Tr_1 R^(1) = I_0.

Convention: the comb operator lives on H_{2N-1} (x) ... (x) H_0, i.e. space 0
is the LAST Kronecker factor.  A signature lists dimensions in label order
(d_0, ..., d_{2N-1}).

:class:`Gqi`, outcomes on a signature, lives here beside
:class:`CombSignature`: every object kind is a ``Gqi``.
:class:`DeterministicComb` is the one-outcome ``Gqi`` whose outcome is the
comb operator, and :class:`Tester`, :class:`Povm`, :class:`Instrument` and
:class:`Channel` are subclasses that store only ``signature`` and
``outcomes`` and read their dimensions from the signature.

Validity is decided here too, the first of the paper's two questions:
:func:`is_valid_gqi` accepts a GQI of any kind, a tester's included, when
its outcomes are positive and sum to a deterministic comb, and
:func:`validate_all` decides a population in stacked passes (README,
"Deciding a population"), one per stack of objects with the same signature
and outcome shapes.  :func:`_grouped` cuts a group into stacks within
``RANK_STAGE_BUDGET``, :func:`_require_valid` refuses an invalid object
with one message for every kind and caller, and :func:`_first_fault` is the
one rule that names the fault of a population.  Extremality, which reads
the verdicts of validation, is :mod:`exqip.gqi`'s; ``exqip validate`` loads
none of it.

A signature computes what depends on it alone once, as cached properties:
its total dimension, its :attr:`~CombSignature.levels`, |V|
(:attr:`~CombSignature.variable_count`) and the levels the projected
coordinates loop over.  The identity blocks of the cascade are kept per
dimension, read-only.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ExqipError, ValidationError
from .linalg import DEFAULT_TOL, TolerancePolicy


class CombSignature(linalg.Record):
    """Hilbert-space dimensions (d_0, ..., d_{2N-1}) of a comb's teeth:
    Python or numpy integers, not bools, each at least 1."""

    _compared = ("dims",)

    def __init__(self, dims: tuple):
        try:
            if any(isinstance(d, bool) for d in dims):
                raise TypeError
            checked = tuple(operator.index(d) for d in dims)
        except TypeError:
            raise DimensionMismatchError(f"dimensions must be integers, got {dims!r}") from None
        object.__setattr__(self, "dims", checked)
        if len(checked) % 2 != 0:
            raise DimensionMismatchError(f"signature length must be even, got {checked}")
        if any(d < 1 for d in checked):
            raise DimensionMismatchError(f"dimensions must be >= 1, got {checked}")

    @property
    def n(self) -> int:
        return len(self.dims) // 2

    @functools.cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def kron_dims(self) -> tuple:
        """Factor dimensions in Kronecker order: (d_{2N-1}, ..., d_0)."""
        return tuple(reversed(self.dims))

    @property
    def odd_product(self) -> int:
        return math.prod(self.dims[1::2]) if self.dims else 1

    @functools.cached_property
    def levels(self) -> tuple:
        """Per level n, from the last tooth down: (top, odd, even, low), the
        dimensions of the spaces above 2n-1, of the odd space 2n-1, of the
        even space 2n-2 and of the spaces below it."""
        dims = self.dims
        return tuple(
            (math.prod(dims[2 * n :]), dims[2 * n - 1], dims[2 * n - 2], math.prod(dims[: 2 * n - 2]))
            for n in range(self.n, 0, -1)
        )

    @functools.cached_property
    def variable_count(self) -> int:
        """|V|, which :func:`comb_variable_count` returns."""
        return sum((odd * odd - 1) * (even * low) ** 2 for _, odd, even, low in self.levels)

    @functools.cached_property
    def coordinate_levels(self) -> tuple:
        """Per level with a nontrivial even space, in the order of
        :attr:`levels`: (traced, even, low, sqrt(traced)), traced = top * odd
        the dimension of the spaces from 2n-1 up, which
        :func:`complement_coordinates` traces out."""
        return tuple(
            (top * odd, even, low, math.sqrt(top * odd)) for top, odd, even, low in self.levels if even > 1
        )

    def truncated(self, level: int) -> "CombSignature":
        """Signature of the reduced comb R^(level)."""
        return CombSignature(self.dims[: 2 * level])


class Gqi(linalg.Record):
    """Outcomes on a comb signature, the view every object kind is.  A kind,
    a subclass, checks the outcome shapes when it is built; a plain Gqi
    leaves that to :func:`is_valid_gqi`, which reports it in order
    among the outcomes' other faults.  Objects compare and hash by identity.

    Each kind class is its own row of the kind table,
    :data:`exqip.fileio.KINDS`: ``kind`` is its name in files; ``layout``
    is its comb signature with the names of the file's dimensions in their
    places, or None when a file holds the comb signature itself;
    ``single`` names the one operator a file of the kind holds, if it holds
    one; and ``residual_names`` are the kind's own names for the leading
    cascade residuals.  A kind sets only what differs from these.  Each
    name in a kind's layout is also a property of its objects, the
    dimension in that place of the signature: ``Tester.d1`` is
    ``signature.dims[1]``."""

    kind, layout, single, residual_names = "gqi", None, None, ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for place, slot in enumerate(cls.__dict__.get("layout") or ()):
            if isinstance(slot, str):
                setattr(cls, slot, property(lambda self, place=place: self.signature.dims[place]))

    def __init__(self, signature: CombSignature, outcomes):
        outcomes = tuple(np.asarray(t, dtype=complex) for t in outcomes)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "outcomes", outcomes)
        if type(self) is not Gqi:
            total = signature.total_dim
            for t in outcomes:
                if t.shape != (total, total):
                    raise _shape_error(t, total)

    @classmethod
    def from_view(cls, signature: CombSignature, outcomes) -> "Gqi":
        """The object of this kind with the GQI view (signature, outcomes),
        built past the kind's own constructor, which takes its dimensions."""
        g = cls.__new__(cls)
        Gqi.__init__(g, signature, outcomes)
        return g

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def normalization(self) -> np.ndarray:
        return sum(self.outcomes)


def _shape_error(t: np.ndarray, total: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"outcome shape {t.shape} does not match signature dimension {total}")


class DeterministicComb(Gqi):
    """A deterministic comb: the one-outcome GQI whose outcome is the comb
    operator."""

    kind, single = "comb", "operator"

    def __init__(self, signature: CombSignature, operator):
        super().__init__(signature, (operator,))

    @property
    def operator(self) -> np.ndarray:
        return self.outcomes[0]


class Tester(Gqi):
    """A 1-tester: PSD outcomes on H_2 (x) H_1 (output factor first) summing
    to I_2 (x) rho, the GQI view on the signature (1, d_1, d_2, 1)."""

    __test__ = False  # "Test" prefix: keep pytest from collecting this class
    kind, layout, residual_names = "tester", (1, "d1", "d2", 1), ("product_form_residual",)

    def __init__(self, d2: int, d1: int, outcomes):
        super().__init__(CombSignature((1, d1, d2, 1)), outcomes)


class Povm(Gqi):
    """A POVM by its effects on H_d, the GQI view on the signature (d, 1)."""

    kind, layout = "povm", ("d", 1)

    def __init__(self, d: int, effects):
        super().__init__(CombSignature((d, 1)), effects)

    @property
    def effects(self) -> tuple:
        return self.outcomes


class Instrument(Gqi):
    """An instrument by its Choi operators on H_1 (x) H_0 (output factor
    first), the GQI view on the signature (d_0, d_1)."""

    kind, layout = "instrument", ("d0", "d1")

    def __init__(self, d1: int, d0: int, operators):
        super().__init__(CombSignature((d0, d1)), operators)

    @property
    def operators(self) -> tuple:
        return self.outcomes


class Channel(Instrument):
    """A channel: the one-outcome instrument whose operator is the Choi operator."""

    kind, single = "channel", "Choi operator"

    def __init__(self, d1: int, d0: int, choi):
        super().__init__(d1, d0, (choi,))

    @property
    def choi(self) -> np.ndarray:
        return self.operators[0]


class CombVerdict(linalg.Record):
    """A comb check: ``ok`` when positive with every cascade residual within
    the bound; one residual per level (one at N = 0) and the reduced combs
    R^(N-1), ..., R^(0)."""

    _compared = ("ok", "level_residuals")

    def __init__(self, ok: bool, level_residuals: tuple, reduced: tuple = ()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "level_residuals", level_residuals)
        object.__setattr__(self, "reduced", reduced)

    @property
    def max_residual(self) -> float:
        return max(self.level_residuals) if self.level_residuals else 0.0


class GqiVerdict(linalg.Record):
    """Validity of a GQI.  ``comb_verdict`` is the cascade of the sum, positive
    when every outcome is.  ``spectra`` holds the eigenpairs of the symmetrized
    outcomes (a stack, eigenvalues descending), which the rank test and the
    epsilon* step reuse, and ``support_ranks`` the support rank of each
    outcome (:meth:`TolerancePolicy.support` of its eigenvalues), which the
    rank test, the epsilon* step, the Kraus read-out and the counting bounds
    read."""

    _compared = ("ok", "outcome_min_eigenvalues", "comb_verdict")

    def __init__(
        self,
        ok: bool,
        outcome_min_eigenvalues: tuple,
        comb_verdict: CombVerdict,
        spectra: linalg.EigenDecomposition,
        support_ranks: tuple,
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "outcome_min_eigenvalues", outcome_min_eigenvalues)
        object.__setattr__(self, "comb_verdict", comb_verdict)
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "support_ranks", support_ranks)


def central_comb(sig: CombSignature) -> DeterministicComb:
    """The maximally mixed deterministic comb I / (product of output dims)."""
    op = np.eye(sig.total_dim, dtype=complex) / sig.odd_product
    return DeterministicComb(signature=sig, operator=op)


def _cascade(r: np.ndarray, sig: CombSignature, tol: float, positive) -> list:
    """The comb verdicts on a stack ``r`` (k, D, D) of Hermitian R^(N): one
    per operator, ``ok`` when its entry of ``positive``, as the caller
    decided it, holds and every cascade residual is at most ``tol``.

    Per level n, R^(n) is a tensor on (odd, even, low) x (odd, even, low), the
    spaces 2n-1, 2n-2 and those below; R^(n-1) = Tr_odd Tr_even R^(n) / d_even,
    the even space traced first, and the residual is
    |Tr_odd R^(n) - I_even (x) R^(n-1)|_max, with R^(0) = 1 in the last one,
    all on the tensor axes.  At N = 0 there is no level, and the one residual
    is |R - 1|_max.  Each operator's verdict is the same to the bit as from a
    stack of its own."""
    residuals, reduced, current = [], [], r
    k = len(r)
    if sig.n == 0:
        residuals.append(np.abs(r - 1.0).reshape(k, -1).max(axis=1).tolist())
    for n, (_, odd, even, low) in zip(range(sig.n, 0, -1), sig.levels):
        t = current.reshape(k, odd, even, low, odd, even, low)
        lhs = t.trace(axis1=1, axis2=4)
        current = t.trace(axis1=2, axis2=5).trace(axis1=1, axis2=3) / even
        eye = _identity_blocks(even)[0]
        # R^(0) = 1, and I (x) 1 is I to the bit.
        gap = lhs - (eye * current[:, None, :, None, :] if n > 1 else eye)
        residuals.append(np.abs(gap).reshape(k, -1).max(axis=1).tolist())
        reduced.append(current)
    return [
        CombVerdict(
            bool(positive[j]) and all(res[j] <= tol for res in residuals),
            tuple(res[j] for res in residuals),
            tuple(op[j] for op in reduced),
        )
        for j in range(k)
    ]


def is_deterministic_comb(
    r: np.ndarray,
    sig: CombSignature,
    tol: float | None = None,
    pol: TolerancePolicy = DEFAULT_TOL,
) -> CombVerdict:
    """Validate positivity and the normalization cascade, reporting one
    residual per level; an empty support raises ``ToleranceError``."""
    r = linalg.check_hermitian(r, pol)
    if r.shape[0] != sig.total_dim:
        raise DimensionMismatchError(
            f"operator dimension {r.shape[0]} != signature total {sig.total_dim}"
        )
    # eigvalsh returns the eigenvalues ascending; the support rule reads them descending.
    positive, ranks = pol.support(np.linalg.eigvalsh(r)[None, ::-1])
    pol.require_support(ranks, sig.total_dim)
    return _cascade(r[None], sig, pol.eps_comb if tol is None else tol, positive)[0]


# Largest estimated peak, in bytes, that is attempted: of a stack of
# validation or of the rank stage (see gqi.rank_stage_bytes), of the nodes a
# decomposition tree holds (see gqi.decompose) and of a generated operator;
# larger inputs raise SizeLimitError.  Every reader reads it here, when it
# is called.
RANK_STAGE_BUDGET = 2 << 30


def validate_all(objects, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """:func:`is_valid_gqi` of every object, decided in stacked passes: one
    per stack of objects with the same signature and outcome shapes, their
    outcomes within ``RANK_STAGE_BUDGET`` bytes (README, "Deciding a
    population").  Each verdict is the same to the bit as the object's own
    call.  An invalid object gets a verdict with ``ok`` false.  An object
    that :func:`is_valid_gqi` would raise for (a non-Hermitian or non-finite
    outcome, a wrong shape, no outcome, every support empty) raises as
    :func:`_first_fault` names it."""
    objects = list(objects)
    return _first_fault(lambda members: _validate_grouped([objects[i] for i in members], pol), range(len(objects)))


def _first_fault(run, members, label: str = "member"):
    """``run(members)``, the population decided as one.  When it raises an
    :class:`ExqipError`, each member is run alone, ``run([member])``, in
    order, and the first that raises raises its own error, led by
    ``"{label} {member}: "``; when none raises alone, the error of the whole
    is raised.  This is the one rule that names the fault of a population."""
    try:
        return run(members)
    except ExqipError:
        for member in members:
            try:
                run([member])
            except ExqipError as alone:
                raise type(alone)(f"{label} {member}: {alone}") from alone
        raise


def _validate_grouped(objects: list, pol: TolerancePolicy) -> list:
    """The stacked passes of :func:`validate_all`, with no member named."""
    return _grouped(
        [(g.signature, tuple(t.shape for t in g.outcomes)) for g in objects],
        _validation_member_bytes,
        lambda members: _validate_stack([objects[i] for i in members], pol),
    )


def _validation_member_bytes(key: tuple) -> int:
    """The peak bytes of a member of a :func:`_validate_stack` stack keyed
    by its signature, D its total dimension, and its M outcome shapes: the
    Hermiticity check holds four copies of the outcomes (they, their
    adjoints, the difference and the symmetrized stack), and the cascade two
    (the outcomes and their eigenvectors) and four D x D operators, so at
    most (4 M + 2) D^2 complex entries; and about 1 KB of records.  The
    tracemalloc peak of a pass of 50 members, or of 3 at D = 256, reads 3.5
    to 3.9 times the 16 M D^2 bytes of the outcomes at M = 2 to 8 and 5.0
    to 5.7 times at M = 1, for D = 16 to 256, and 0.70 to 0.91 times this
    estimate (CPython 3.11, numpy 2.4)."""
    sig, shapes = key
    return 16 * (4 * sum(math.prod(shape) for shape in shapes) + 2 * sig.total_dim ** 2) + 1024


def is_valid_gqi(g: Gqi, pol: TolerancePolicy = DEFAULT_TOL) -> GqiVerdict:
    """Accept iff every outcome is PSD and the sum is a deterministic comb.
    ``g`` is a :class:`Gqi` or any object kind; only its ``signature`` and
    ``outcomes`` are read.

    The outcomes are checked and decomposed as one stack: one batched
    Hermiticity check, one batched ``eigh``.  An outcome of the wrong shape
    raises after the Hermiticity check of the outcomes before it.  The sum,
    positive because the outcomes are, is symmetrized and goes through the
    cascade alone (README, "Conventions").  This is the stacked pass of
    :func:`validate_all` on ``g`` alone.
    """
    return _validate_stack([g], pol)[0]


def _validate_stack(gs: list, pol: TolerancePolicy) -> list:
    """The verdicts on K GQIs of one signature and one list of outcome
    shapes, from one :func:`linalg.hermitian_eig`, the Hermiticity check and
    ``eigh`` of the (K M, D, D) stack, and one cascade pass of the K sums.
    The support rule on the sorted spectra (:meth:`TolerancePolicy.support`)
    gives positivity and the support ranks, and
    :meth:`TolerancePolicy.require_support` refuses a GQI whose every
    support is empty."""
    first = gs[0]
    m = len(first.outcomes)
    if m < 1:
        raise ValidationError("a GQI needs at least one outcome")
    total = first.signature.total_dim
    shaped = next((i for i, t in enumerate(first.outcomes) if t.shape != (total, total)), m)
    x = np.array([g.outcomes[:shaped] for g in gs])
    spectra = linalg.hermitian_eig(x.reshape(len(gs) * shaped, total, total), pol)
    if shaped < m:
        raise _shape_error(first.outcomes[shaped], total)
    w = spectra.values.reshape(len(gs), m, total)
    positive, ranks = pol.support(w)
    pol.require_support(ranks, total)
    v = spectra.vectors.reshape(len(gs), m, total, total)
    # Summed in the order of sum(outcomes), so that each sum is its own call's to the bit.
    s = sum(x[:, i] for i in range(m))
    comb_verdicts = _cascade(
        (s + s.conj().transpose(0, 2, 1)) / 2, first.signature, pol.eps_comb, positive.all(axis=1)
    )
    ranks = ranks.tolist()
    return [
        GqiVerdict(cv.ok, tuple(w[j, :, -1].tolist()), cv, linalg.EigenDecomposition(w[j], v[j]), tuple(ranks[j]))
        for j, cv in enumerate(comb_verdicts)
    ]


def _grouped(keys: list, member_bytes, run) -> list:
    """One result per member: the members that share a key are cut, in
    order, into stacks of at most max(1, RANK_STAGE_BUDGET //
    ``member_bytes(key)``) members, and ``run(indices)`` decides the members
    at ``indices`` as one stack and returns their results in order."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = [None] * len(keys)
    for key, group in groups.items():
        size = max(1, RANK_STAGE_BUDGET // max(1, member_bytes(key)))
        for start in range(0, len(group), size):
            members = group[start : start + size]
            for i, result in zip(members, run(members)):
                out[i] = result
    return out


def _require_valid(g: Gqi, pol: TolerancePolicy, verdict: GqiVerdict | None = None) -> GqiVerdict:
    """The one validity gate of every kind: ``verdict``, or ``g``'s own when
    it is None, unless it fails, when :class:`ValidationError` is raised."""
    if verdict is None:
        verdict = is_valid_gqi(g, pol=pol)
    if not verdict.ok:
        raise ValidationError(
            "invalid GQI: outcome min eigenvalues "
            f"{verdict.outcome_min_eigenvalues}, cascade residuals "
            f"{verdict.comb_verdict.level_residuals}"
        )
    return verdict


def reduced_comb(
    comb: DeterministicComb,
    level: int,
    pol: TolerancePolicy = DEFAULT_TOL,
) -> DeterministicComb:
    """Return the reduced comb R^(level), 0 <= level <= N: a Python or numpy
    integer, not a bool."""
    sig = comb.signature
    if isinstance(level, bool) or not isinstance(level, numbers.Integral):
        raise DimensionMismatchError(f"level must be an integer, got {level!r}")
    if not 0 <= level <= sig.n:
        raise DimensionMismatchError(f"level {level} out of range 0..{sig.n}")
    verdict = is_deterministic_comb(comb.operator, sig, pol=pol)
    if not verdict.ok:
        raise ValidationError(f"not a deterministic comb: not positive, or residuals "
                              f"{verdict.level_residuals} above {pol.eps_comb:g}")
    op = comb.operator if level == sig.n else verdict.reduced[sig.n - 1 - level]
    return DeterministicComb(signature=sig.truncated(level), operator=op)


def comb_variable_count(sig: CombSignature) -> int:
    """|V|, the number of variable directions of the deterministic-comb
    family: per level, the traceless operators on the odd (output) space
    tensored with a Hermitian basis of everything below, padded with the
    identity above.  Adding any combination of them to a comb preserves the
    normalization cascade exactly; only positivity can fail.  V is never
    built, and the count is computed once per signature
    (:attr:`CombSignature.variable_count`)."""
    return sig.variable_count


def comb_forbidden_directions(sig: CombSignature) -> list:
    """Directions excluded by the cascade: identity on an odd space times a
    traceless operator on the even space directly below it.

    Together with the identity they span the orthogonal complement of the
    variable directions V (see :func:`comb_variable_count`).
    """
    out = []
    for top, odd, even, low in sig.levels:
        eye_top = np.eye(top * odd, dtype=complex) / math.sqrt(top * odd)
        for e in linalg.traceless_hermitian_basis(even):
            for f in linalg.hermitian_basis(low):
                out.append(linalg.kron(eye_top, linalg.kron(e, f)))
    return out


@functools.lru_cache(maxsize=64)
def _identity_blocks(even: int) -> tuple:
    """I and I / even on an even space, each (even, 1, even, 1) to broadcast
    against a (k, even, low, even, low) stack; built once per dimension and
    read-only."""
    eye = np.eye(even)[:, None, :, None]
    return linalg._read_only(eye, eye / even)


def _traceless_part(y: np.ndarray, even: int, low: int) -> np.ndarray:
    """y - I/even (x) Tr_even y for a stack (k, even*low, even*low): the part
    of each operator that is traceless on its leading factor."""
    t = y.reshape(-1, even, low, even, low).trace(axis1=1, axis2=3)
    product = _identity_blocks(even)[1] * t[:, None, :, None, :]
    # One multiplication per entry, added to +0 as einsum adds it to its
    # zeroed output, so that a zero product is +0 and the difference below
    # keeps the bits of y - einsum("ef,kij->keifj", I/even, t).
    product += 0.0
    return y - product.reshape(y.shape)


def complement_coordinates(u: np.ndarray, sig: CombSignature, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Support basis of span(u) projected off the comb variable directions.

    ``u`` (D x r) has orthonormal columns.  Row j is an isometric image of
    (1 - P_V) q_j, where q_j is the j-th element of the support basis
    (:func:`linalg.support_operators` order) and P_V projects onto the span of
    the variable directions V (:func:`comb_variable_count`).  The complement
    of V is spanned by the identity and :func:`comb_forbidden_directions`, so
    the coordinates are Tr q / sqrt(D) and then, per level n with
    Y_n = Tr_{spaces >= 2n-1} q / sqrt(top_n), the vectorized part of Y_n
    traceless on space 2n-2.  They come from partial traces of ``u`` alone,
    one :func:`linalg.support_operators` call per level: no D^2-long operator
    is built.  Levels with a trivial even space contribute nothing and are
    skipped.  Only the rows ``start`` to ``stop`` (by default all r^2) are
    made coordinates, each the same to the bit as in the whole stack.  A
    stack ``u`` (..., D, r) gives (..., rows, n).
    """
    *lead, _, r = u.shape
    trace = np.zeros((*lead, r * r, 1))
    trace[..., :r, :] = 1.0 / math.sqrt(sig.total_dim)
    cols = [trace[..., start:stop, :]]
    for traced, even, low, root in sig.coordinate_levels:
        y = linalg.support_operators(u, traced)[..., start:stop, :, :] / root
        cols.append(linalg.vectorize_hermitian(_traceless_part(y, even, low)))
    return np.concatenate(cols, axis=-1)


def forbidden_part(op: np.ndarray, sig: CombSignature) -> np.ndarray:
    """(1 - P_V) op: the component of ``op`` along the identity and the
    forbidden directions, by trace-and-replace on each level."""
    dim = sig.total_dim
    out = np.trace(op) / dim * np.eye(dim, dtype=complex)
    for top, odd, even, low in sig.levels:
        y = linalg.partial_trace(op, (top * odd, even * low), {0})
        y = _traceless_part(y[None], even, low)[0]
        out = out + linalg.kron(np.eye(top * odd, dtype=complex) / (top * odd), y)
    return out


def random_deterministic_comb(
    sig: CombSignature,
    seed=None,
    spread: float = 0.5,
) -> DeterministicComb:
    """Random comb from the cascade-preserving parametrization.

    Draws the variable part P_V X of an HS-isotropic Gaussian Hermitian X
    (the law of standard normal coefficients on the variable basis) and
    rescales it so that the smallest eigenvalue stays at ``(1 - spread)``
    times the central comb's.  ``spread = 0`` returns the central comb;
    ``spread = 1`` touches the boundary of positivity.
    """
    if not 0.0 <= spread <= 1.0:
        raise ValidationError(f"spread must lie in [0, 1], got {spread}")
    rng = np.random.default_rng(seed)
    base = central_comb(sig)
    if comb_variable_count(sig) == 0 or spread == 0.0:
        return base
    dim = sig.total_dim
    x = linalg.unvectorize_hermitian(rng.standard_normal(dim * dim), dim)
    var = x - forbidden_part(x, sig)
    lam_min = float(np.linalg.eigvalsh(var)[0])
    lam0 = 1.0 / sig.odd_product
    if lam_min >= -1e-15:
        return base
    scale = spread * lam0 / (-lam_min)
    return DeterministicComb(signature=sig, operator=base.operator + scale * var)
