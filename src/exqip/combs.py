"""Deterministic quantum N-combs.

A deterministic N-comb is a positive operator on the 2N alternating
input/output spaces H_0 .. H_{2N-1} whose partial traces obey the recursive
normalization cascade

    Tr_{2n-1} R^(n) = I_{2n-2} (x) R^(n-1),      Tr_1 R^(1) = I_0.

Convention: the comb operator lives on H_{2N-1} (x) ... (x) H_0, i.e. space 0
is the LAST Kronecker factor.  A signature lists dimensions in label order
(d_0, ..., d_{2N-1}).

:class:`Gqi`, outcomes on a signature, lives here beside
:class:`CombSignature`, and :mod:`exqip.gqi` re-exports it: every object
kind is a ``Gqi``, and :class:`DeterministicComb` is the one-outcome ``Gqi``
whose outcome is the comb operator.

A signature computes what depends on it alone once, as cached properties:
its total dimension, its :attr:`~CombSignature.levels`, |V|
(:attr:`~CombSignature.variable_count`) and the levels the projected
coordinates loop over.  The identity blocks of the cascade are kept per
dimension, read-only.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError
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
    leaves that to :func:`exqip.gqi.is_valid_gqi`, which reports it in order
    among the outcomes' other faults.  Objects compare and hash by identity."""

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

    def __init__(self, signature: CombSignature, operator):
        super().__init__(signature, (operator,))

    @property
    def operator(self) -> np.ndarray:
        return self.outcomes[0]


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


def reduced_comb(
    comb: DeterministicComb,
    level: int,
    pol: TolerancePolicy = DEFAULT_TOL,
) -> DeterministicComb:
    """Return the reduced comb R^(level), 0 <= level <= N."""
    sig = comb.signature
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
