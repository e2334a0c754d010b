"""Dense complex linear-algebra kernel.

Everything downstream (combs, instruments, testers, channels) is built on the
handful of primitives in this module: Hermitian eigendecompositions, SVD-based
numerical rank with nullvector extraction, partial traces, Hermitian operator
bases, and the real vectorization that turns operator-independence questions
into matrix-rank questions.

Operators are plain complex ``numpy`` arrays.  All functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError


@dataclass(frozen=True)
class TolerancePolicy:
    """Single-knob tolerance policy.

    ``eps_rel`` scales every threshold coherently:

    * Hermiticity:  ``eps_rel * max(1, |A|_max)``
    * rank cutoff:  ``max(m, n) * sigma_max * eps_rel``
    * support cutoff: ``dim * max(lambda_max, 1) * eps_rel``
    * normalization residuals: ``comb_factor * eps_rel`` (two partial traces
      of eigendecomposition-accurate operators), ``comb_factor`` a constant
    """

    eps_rel: float = 1e-10
    comb_factor: ClassVar[float] = 10.0

    @property
    def eps_comb(self) -> float:
        return self.comb_factor * self.eps_rel

    def herm_tols(self, scale: np.ndarray) -> np.ndarray:
        """Hermiticity tolerance for an array of largest magnitudes |A|_max."""
        return self.eps_rel * np.maximum(1.0, scale)

    def rank_tol(self, n_rows: int, n_cols: int, sigma_max: float) -> float:
        return max(n_rows, n_cols) * sigma_max * self.eps_rel

    def supp_tol(self, dim: int, lambda_max: float | np.ndarray) -> float | np.ndarray:
        """Support cutoff for a largest eigenvalue, or elementwise for an array of them."""
        # The max(., 1) floor keeps near-zero outcomes (a legal degenerate
        # case) from tripping the negativity check on float dust.
        return dim * np.maximum(lambda_max, 1.0) * self.eps_rel

    def psd(self, w: np.ndarray) -> bool | np.ndarray:
        """The support rule for positivity, lambda_min >= -supp_tol(d, lambda_max), on
        the d eigenvalues along the last axis of ``w`` (any order; one per stacked operator)."""
        low = w.min(axis=-1, initial=np.inf)
        return low >= -self.supp_tol(w.shape[-1], w.max(axis=-1, initial=-np.inf))

    def support_rank(self, w: np.ndarray) -> int | np.ndarray:
        """The support rule for rank: the eigenvalues above supp_tol(d,
        lambda_max), counted along the last axis of ``w`` as in :meth:`psd`."""
        tau = self.supp_tol(w.shape[-1], w.max(axis=-1, keepdims=True, initial=-np.inf))
        return np.count_nonzero(w > tau, axis=-1)


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors as matching columns.

    A stack of k operators carries values (k, d) and vectors (k, d, d).
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ np.swapaxes(self.vectors.conj(), -2, -1)

    def __getitem__(self, k) -> "EigenDecomposition":
        """The decomposition of operator ``k`` of a stack."""
        return EigenDecomposition(self.values[k], self.vectors[k])

    def support_ranks(self, pol: "TolerancePolicy") -> np.ndarray:
        """The leading columns of ``vectors`` that span each support."""
        return pol.support_rank(self.values)


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.trace(a.conj().T @ b))


def check_hermitian(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Check Hermiticity within tolerance and return the symmetrized operator."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return check_hermitian_stack(a[None], pol)[0]


def check_hermitian_stack(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """:func:`check_hermitian` on each matrix of a stack (k, d, d) at once.

    The first failing matrix raises the error :func:`check_hermitian` raises
    for it; the symmetrized stack is returned.
    """
    a = np.asarray(a, dtype=complex)
    # |A|_max is finite exactly when every entry is.
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    finite = np.isfinite(scale)
    k = len(a) if finite.all() else int(np.argmin(finite))
    adjoint = np.swapaxes(a.conj(), -2, -1)
    dev = np.abs(a[:k] - adjoint[:k]).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(dev > pol.herm_tols(scale[:k]))
    if bad.size:
        raise NotHermitianError(f"not Hermitian: |A - A^dagger|_max = {dev[bad[0]]:.3e}")
    if k < len(a):
        raise NotHermitianError("matrix contains non-finite entries")
    return (a + adjoint) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


def partial_trace(a: np.ndarray, dims, traced) -> np.ndarray:
    """Trace out the tensor factors listed in ``traced``.

    ``dims`` lists the factor dimensions in Kronecker order (first factor is
    the leftmost / most significant index block).
    """
    a = np.asarray(a, dtype=complex)
    dims = list(int(d) for d in dims)
    traced = set(int(t) for t in traced)
    total = math.prod(dims)
    if a.shape != (total, total):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match factor dims {dims}"
        )
    if any(t < 0 or t >= len(dims) for t in traced):
        raise DimensionMismatchError(f"traced indices {traced} out of range for {dims}")
    t = a.reshape(*dims, *dims)
    n = len(dims)
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + n)
        n -= 1
    keep = math.prod(d for i, d in enumerate(dims) if i not in traced)
    return np.asarray(t).reshape(keep, keep)


def hermitian_eigs(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator or a stack of them, from one
    (batched) ``eigh``; eigenvalues descending.  ``h`` is not checked."""
    w, v = np.linalg.eigh(h)
    # eigh returns the eigenvalues ascending.
    return EigenDecomposition(values=w[..., ::-1], vectors=v[..., ::-1])


def hermitian_eig(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""
    return hermitian_eigs(check_hermitian(a, pol))


def sqrt_psd(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Square root of a Hermitian operator with negative eigenvalues clipped to 0."""
    return eig_sqrt(hermitian_eig(a, pol))


def eig_sqrt(eig: EigenDecomposition) -> np.ndarray:
    """:func:`sqrt_psd` of the operator that ``eig`` decomposes."""
    return (eig.vectors * np.sqrt(np.clip(eig.values, 0.0, None))) @ eig.vectors.conj().T


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # Deterministic orientation: make the largest-magnitude entry positive.
    k = int(np.argmax(np.abs(vec)))
    if vec[k] < 0:
        return -vec
    return vec


@dataclass(frozen=True)
class RankDecision:
    """A rank decided from ``singular_values`` at a cutoff.

    ``nullvector`` is a unit coefficient vector over the decided rows, present
    exactly when they are dependent.  ``singular_values`` are those of all
    the rows, or of the head alone when the rank was decided there (see
    :func:`block_rank_decision`).
    """

    rank: int
    singular_values: np.ndarray
    nullvector: np.ndarray | None


def block_rank_decision(
    blocks,
    rows: int,
    pol: TolerancePolicy = DEFAULT_TOL,
    known: int = 0,
    ambient: int | None = None,
    sigma_bound: float | None = None,
) -> RankDecision:
    """Rank of the stack of ``blocks`` pooled with ``known`` orthonormal
    vectors.  ``blocks`` is an iterable of (k_i, n) arrays with ``rows`` =
    sum k_i rows in all, built in order and only as far as the decision
    needs.

    The rows are coordinates of family members in the orthogonal complement
    of ``known`` orthonormal vectors of an ``ambient``-dimensional space (by
    default n, with nothing known).  The pooled family has rank
    ``rank(rows) + known`` and the pooled cutoff

        tau = max(rows + known, ambient) * sigma * eps_rel,

    with sigma = sigma_max of the rows, floored at 1 when ``known > 0``
    because the orthonormal members alone have unit singular values.  A
    dependent family gets a null vector c with ``|c^T x| <= tau``.  The rows
    span at most span = min(ambient - known, n) dimensions, so beyond that c
    is taken from the first span + 1 rows.

    Head first: with more rows than their span and an upper bound
    ``sigma_bound`` >= sigma_max of the stack, the first span + 1 rows (the
    head) are decomposed first, with U.  If the head alone has span singular
    values above the cutoff taken at ``sigma_bound``, the pooled rank is
    span + known: sigma_k(stack) >= sigma_k(head), the cutoff grows with
    sigma, and the rows span no more than span dimensions.  The remaining
    blocks are then never built, and ``singular_values`` holds the head's
    values.  Otherwise the rank comes from the values-only SVD of the whole
    stack, as without a bound.  The null vector is the last left singular
    vector of the head either way, from the same SVD call.
    """
    blocks = iter(blocks)
    built = [np.asarray(next(blocks), dtype=float)]
    _, n = built[0].shape
    ambient = n if ambient is None else ambient
    span = min(ambient - known, n)
    floor = 1.0 if known else 0.0
    u = None
    if sigma_bound is not None and rows > span:
        have = built[0].shape[0]
        while have <= span:
            built.append(np.asarray(next(blocks), dtype=float))
            have += built[-1].shape[0]
        u, s = _head_svd(np.vstack(built), span)
        tau = pol.rank_tol(rows + known, ambient, max(floor, sigma_bound))
        if np.count_nonzero(s > tau) >= span:
            return RankDecision(span + known, s, _head_nullvector(u, rows))
    built.extend(np.asarray(b, dtype=float) for b in blocks)
    x = built[0] if len(built) == 1 else np.vstack(built)
    del built
    m = x.shape[0]
    s = np.linalg.svd(x, compute_uv=False)
    sigma = max(floor, float(s[0]) if s.size else 0.0)
    tau = pol.rank_tol(m + known, ambient, sigma)
    rank = int(np.count_nonzero(s > tau))
    if rank == m:
        return RankDecision(rank + known, s, None)
    if u is None:
        u, _ = _head_svd(x, span)
    return RankDecision(rank + known, s, _head_nullvector(u, m))


def _head_svd(x: np.ndarray, span: int):
    """U and the singular values of the head, the first span + 1 rows of ``x``."""
    head = x[: span + 1]
    u, s, _ = np.linalg.svd(head, full_matrices=head.shape[0] > head.shape[1])
    return u, s


def _head_nullvector(u: np.ndarray, rows: int) -> np.ndarray:
    """The last left singular vector of the head, padded with zeros to
    ``rows`` coefficients."""
    c = np.zeros(rows)
    c[: u.shape[0]] = u[:, -1]
    return _fix_sign(c)


def complex_family_rank(mats, pol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Rank over the complex field of a family of matrices of equal shape."""
    rows = [np.asarray(m, dtype=complex).ravel() for m in mats]
    if not rows:
        return 0
    x = np.vstack(rows)
    s = np.linalg.svd(x, compute_uv=False)
    tau = pol.rank_tol(*x.shape, float(s[0]) if s.size else 0.0)
    return int(np.count_nonzero(s > tau))


@functools.lru_cache(maxsize=None)
def _upper_indices(d: int) -> tuple:
    """``np.triu_indices(d, k=1)``, built once per dimension and read-only."""
    iu = np.triu_indices(d, k=1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def vectorize_hermitian(a: np.ndarray) -> np.ndarray:
    """Real vector of length d^2, isometric for the HS inner product.

    Layout: diagonal (real), then sqrt(2)*Re(upper triangle) row-major, then
    sqrt(2)*Im(upper triangle) row-major.  A stack (..., d, d) maps to
    (..., d^2).
    """
    a = np.asarray(a, dtype=complex)
    iu = _upper_indices(a.shape[-1])
    upper = a[..., iu[0], iu[1]]
    return np.concatenate(
        [
            np.real(np.diagonal(a, axis1=-2, axis2=-1)),
            math.sqrt(2.0) * upper.real,
            math.sqrt(2.0) * upper.imag,
        ],
        axis=-1,
    )


def unvectorize_hermitian(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vectorize_hermitian`."""
    v = np.asarray(v, dtype=float)
    if v.size != d * d:
        raise DimensionMismatchError(f"vector length {v.size} != {d}^2")
    n_off = d * (d - 1) // 2
    diag = v[:d]
    re = v[d : d + n_off] / math.sqrt(2.0)
    im = v[d + n_off :] / math.sqrt(2.0)
    out = np.diag(diag).astype(complex)
    iu = _upper_indices(d)
    out[iu] = re + 1j * im
    out[(iu[1], iu[0])] = re - 1j * im
    return out


def support_operators(u: np.ndarray, traced: int = 1, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Support basis of the column span of ``u``, leading factor traced out.

    ``u`` (D x r) has orthonormal columns.  Returns the stack (r^2, m, m),
    m = D / traced, of Tr_0 q_j, where factor 0, the leading Kronecker factor
    of dimension ``traced``, is traced out and q_j runs over the HS-orthonormal
    basis of Hermitian operators supported on span(u): the projectors
    u_n u_n^dagger, then the symmetric pairs, then the antisymmetric pairs
    (n < k, lexicographic).  In these coordinates sum_j c_j q_j = u H u^dagger
    with H = unvectorize_hermitian(c, r).  ``traced = 1`` gives the basis
    itself.  The projected support coordinates of the comb rank test are built
    from these partial traces without forming any q_j.  Only the operators
    ``start`` to ``stop`` (by default all r^2) are formed; each is the same to
    the bit as in the whole stack.
    """
    d, r = u.shape
    m = d // traced
    w = u.reshape(traced, m * r)
    # g[a, b] = Tr_0 |u_a><u_b|
    g = (w.T @ w.conj()).reshape(m, r, m, r).transpose(1, 3, 0, 2)
    diag, n, k, n_anti, k_anti = _support_rows(r, start, r * r if stop is None else stop)
    s = 1.0 / math.sqrt(2.0)
    return np.concatenate(
        [
            g[diag, diag],
            s * (g[n, k] + g[k, n]),
            1j * s * (g[n_anti, k_anti] - g[k_anti, n_anti]),
        ]
    )


@functools.lru_cache(maxsize=64)
def _support_rows(r: int, start: int, stop: int) -> tuple:
    """Indices of the support basis elements ``start`` to ``stop`` of rank
    ``r`` (:func:`support_operators` order), read-only: the projectors, then
    (n, k) of the symmetric pairs, then (n, k) of the antisymmetric pairs."""
    n, k = _upper_indices(r)
    j = np.arange(start, stop)
    sym = j[(j >= r) & (j < r + n.size)] - r
    anti = j[j >= r + n.size] - r - n.size
    out = (j[j < r], n[sym], k[sym], n[anti], k[anti])
    for idx in out:
        idx.flags.writeable = False
    return out


def traceless_hermitian_basis(d: int) -> list:
    """Generalized Gell-Mann basis: d^2 - 1 HS-orthonormal traceless Hermitians.

    Ordering: symmetric family, antisymmetric family, diagonal family last;
    index-lexicographic within each family.
    """
    if d < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {d}")
    out = []
    s = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = s
            e[k, j] = s
            out.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = -1j * s
            e[k, j] = 1j * s
            out.append(e)
    for l in range(1, d):
        e = np.zeros((d, d), dtype=complex)
        norm = 1.0 / math.sqrt(l * (l + 1))
        for j in range(l):
            e[j, j] = norm
        e[l, l] = -l * norm
        out.append(e)
    return out


def hermitian_basis(d: int) -> list:
    """Full HS-orthonormal Hermitian basis: I/sqrt(d) followed by the traceless family."""
    return [np.eye(d, dtype=complex) / math.sqrt(d)] + traceless_hermitian_basis(d)
