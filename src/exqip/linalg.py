"""Dense complex linear-algebra kernel.

Everything downstream (combs, instruments, testers, channels) is built on the
handful of primitives in this module: Hermitian eigendecompositions, partial
traces, Hermitian operator bases and the partial traces of support bases, and
the real vectorization that turns operator-independence questions into
matrix-rank questions.  The pooled rank test of extremality is
:mod:`exqip.gqi`'s; :func:`complex_family_rank` serves the Kraus-product
criterion.

Operators are plain complex ``numpy`` arrays.  All functions are pure.
:func:`hermitian_eig` is the program's one ``eigh``: it checks the
Hermiticity of an operator or of a stack of them and decomposes the
symmetrized operators in one batched call.
:func:`kron` takes two matrices, or two stacks of them, and forms their
products with one broadcast multiplication, each the same to the bit as
``np.kron``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, ToleranceError


@dataclass(frozen=True)
class TolerancePolicy:
    """Single-knob tolerance policy.

    ``eps_rel``, which must lie in (0, 1), scales every threshold coherently:

    * Hermiticity:  ``eps_rel * max(1, |A|_max)``
    * rank cutoff:  ``max(m, n) * sigma_max * eps_rel``
    * support cutoff: ``dim * max(lambda_max, 1) * eps_rel``
    * normalization residuals: ``comb_factor * eps_rel`` (two partial traces
      of eigendecomposition-accurate operators), ``comb_factor`` a constant
    """

    eps_rel: float = 1e-10
    comb_factor: ClassVar[float] = 10.0

    def __post_init__(self):
        if not 0.0 < self.eps_rel < 1.0:
            raise ToleranceError(f"tolerance must lie in (0, 1), got {self.eps_rel}")

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
        return (w > tau).sum(axis=-1)

    def require_support(self, w: np.ndarray) -> None:
        """:class:`ToleranceError` when every support is empty, for the
        operators with d eigenvalues along the last axis of ``w`` (M, d), or
        any GQI of a stack (K, M, d): when each largest eigenvalue lambda has
        lambda <= supp_tol(d, lambda), as :meth:`support_rank` counts it."""
        top = w.max(axis=-1)
        if (top <= self.supp_tol(w.shape[-1], top)).all(axis=-1).any():
            self._refuse_empty_support(w.shape[-1])

    def _refuse_empty_support(self, dim: int):
        raise ToleranceError(f"tolerance {self.eps_rel:g} leaves every support empty at dimension {dim}")

    def _support_pass(self, w: np.ndarray) -> tuple:
        """:meth:`require_support`, :meth:`psd` and :meth:`support_rank` in
        one pass over a stack (K, M, d) of spectra sorted descending along
        the last axis: lambda_max is the first eigenvalue and lambda_min the
        last, and one supp_tol serves all three.  Returns (psd, support
        ranks), each (K, M) and the same to the bit as its method's."""
        top = w[..., 0]
        tol = self.supp_tol(w.shape[-1], top)
        if (top <= tol).all(axis=-1).any():
            self._refuse_empty_support(w.shape[-1])
        return w[..., -1] >= -tol, (w > tol[..., None]).sum(axis=-1)


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
    adjoint = a.conj().transpose(0, 2, 1)
    dev = np.abs(a[:k] - adjoint[:k]).max(axis=(-2, -1), initial=0.0)
    bad = dev > pol.herm_tols(scale[:k])
    if bad.any():
        raise NotHermitianError(f"not Hermitian: |A - A^dagger|_max = {dev[bad.argmax()]:.3e}")
    if k < len(a):
        raise NotHermitianError("matrix contains non-finite entries")
    return (a + adjoint) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, from one broadcast product.
    These are the multiplications ``np.kron`` makes, on operands of the same
    layout, so every entry is the same to the bit.  Stacks (..., m, n) and
    (..., p, q) whose leading axes broadcast give the stack of the products
    of their matrices, each the same to the bit as from its own call."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatchError(f"kron takes two matrices or stacks of them, got shapes {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    try:
        x = a[..., :, None, :, None] * b[..., None, :, None, :]
    except ValueError as err:
        raise DimensionMismatchError(f"kron stacks of shapes {a.shape} and {b.shape} do not broadcast") from err
    return x.reshape(*x.shape[:-4], m * p, n * q)


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


def hermitian_eig(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator, checked by
    :func:`check_hermitian`, or of each operator of a stack (k, d, d),
    checked by :func:`check_hermitian_stack`, from one (batched) ``eigh`` of
    the symmetrized operators; eigenvalues descending."""
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(check_hermitian_stack(a, pol) if a.ndim == 3 else check_hermitian(a, pol))
    # eigh returns the eigenvalues ascending.
    return EigenDecomposition(values=w[..., ::-1], vectors=v[..., ::-1])


def sqrt_psd(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Square root of a Hermitian operator with negative eigenvalues clipped to 0."""
    return eig_sqrt(hermitian_eig(a, pol))


def eig_sqrt(eig: EigenDecomposition) -> np.ndarray:
    """:func:`sqrt_psd` of the operator, or of each operator of the stack, that ``eig`` decomposes."""
    return EigenDecomposition(np.sqrt(np.clip(eig.values, 0.0, None)), eig.vectors).reconstruct()


def complex_family_rank(mats, pol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Rank over the complex field of a family of matrices of equal shape,
    given as a sequence or as one stack (k, a, b)."""
    x = np.asarray(mats, dtype=complex)
    if len(x) == 0:
        return 0
    x = x.reshape(len(x), -1)
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
    """Inverse of :func:`vectorize_hermitian`: a vector of length d^2 to a
    d x d operator, or a stack (..., d^2) to (..., d, d)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (d * d,):
        raise DimensionMismatchError(f"vector length {v.shape[-1] if v.ndim else v.size} != {d}^2")
    n_off = d * (d - 1) // 2
    re = v[..., d : d + n_off] / math.sqrt(2.0)
    im = v[..., d + n_off :] / math.sqrt(2.0)
    out = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    out.reshape(*v.shape[:-1], d * d)[..., :: d + 1] = v[..., :d]
    iu = _upper_indices(d)
    im = 1j * im
    out[..., iu[0], iu[1]] = re + im
    out[..., iu[1], iu[0]] = re - im
    return out


def support_operators(u: np.ndarray, traced: int = 1) -> np.ndarray:
    """Support basis of the column span of ``u``, leading factor traced out.

    ``u`` (D x r) has orthonormal columns.  Returns the stack (r^2, m, m),
    m = D / traced, of Tr_0 q_j, where factor 0, the leading Kronecker factor
    of dimension ``traced``, is traced out and q_j runs over the HS-orthonormal
    basis of Hermitian operators supported on span(u): the projectors
    u_n u_n^dagger, then the symmetric pairs, then the antisymmetric pairs
    (n < k, lexicographic).  In these coordinates sum_j c_j q_j = u H u^dagger
    with H = unvectorize_hermitian(c, r).  ``traced = 1`` gives the basis
    itself.  The projected support coordinates of the comb rank test are built
    from these partial traces without forming any q_j.  A stack ``u``
    (..., D, r) gives (..., r^2, m, m), each operator the same to the bit as
    from its own call.
    """
    *lead, d, r = u.shape
    m = d // traced
    stack = math.prod(lead)
    w = u.reshape(stack, traced, m * r)
    # g[:, a, b] = Tr_0 |u_a><u_b|
    g = (w.transpose(0, 2, 1) @ w.conj()).reshape(stack, m, r, m, r).transpose(0, 2, 4, 1, 3)
    diag, (n, k) = np.arange(r), _upper_indices(r)
    diag, upper, lower = g[:, diag, diag], g[:, n, k], g[:, k, n]
    s = 1.0 / math.sqrt(2.0)
    rows = np.concatenate([diag, s * (upper + lower), 1j * s * (upper - lower)], axis=1)
    return rows.reshape(*lead, r * r, m, m)


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
