"""Dense complex linear-algebra kernel.

Everything downstream (combs, instruments, testers, channels) is built on the
handful of primitives in this module: Hermitian eigendecompositions, partial
traces, Hermitian operator bases and the partial traces of support bases, and
the real vectorization that turns operator-independence questions into
matrix-rank questions.  The pooled rank test of extremality is
:mod:`exqip.gqi`'s.  :class:`Record` is the base of every immutable record
of the package.  :class:`TolerancePolicy` holds the one support rule,
:meth:`TolerancePolicy.support`, which gives positivity and the support
ranks of sorted spectra, beside its refusal of a tolerance that leaves
every support empty, and the one rank cutoff,
:meth:`TolerancePolicy.rank_tol`.

Operators are plain complex ``numpy`` arrays.  All functions are pure.
:func:`hermitian_eig` is the program's one ``eigh``: it checks the
Hermiticity of an operator or of a stack of them and decomposes the
symmetrized operators in one batched call.  Its check,
:func:`check_hermitian_stack`, which every operator passes first, also
holds the entry rule (:func:`_entry_rule`), which :mod:`exqip.fileio`
applies to every matrix it reads.
:func:`kron` takes two matrices, or two stacks of them, and forms each
product with the broadcast multiplication of ``np.kron``, the same to the
bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, ToleranceError


class Record:
    """Base of the package's immutable records.  A record's own
    ``__init__`` sets its fields with ``object.__setattr__``, and assigning
    or deleting an attribute raises :class:`AttributeError`.  Writing to
    ``__dict__`` instead would give each instance a dict of its own, whose
    attributes read about twice as slowly.  The records are plain classes
    rather than frozen dataclasses, whose generated methods cost a fresh
    process more to create than it spends deciding."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TolerancePolicy(Record):
    """Single-knob tolerance policy.

    ``eps_rel``, which must lie in (0, 1), scales every threshold coherently:

    * Hermiticity:  ``eps_rel * max(1, |A|_max)``
    * rank cutoff:  ``max(m, n) * sigma_max * eps_rel``
    * support cutoff: ``dim * max(lambda_max, 1) * eps_rel``
    * normalization residuals: ``comb_factor * eps_rel`` (two partial traces
      of eigendecomposition-accurate operators), ``comb_factor`` a constant
    * unitarity of a xi map's U: ``d_1 * (eps_rel + 4 eps_machine)`` on
      |U^dagger U - I|_max
    """

    comb_factor = 10.0

    def __init__(self, eps_rel: float = 1e-10):
        if not 0.0 < eps_rel < 1.0:
            raise ToleranceError(f"tolerance must lie in (0, 1), got {eps_rel}")
        object.__setattr__(self, "eps_rel", eps_rel)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.eps_rel == other.eps_rel

    def __hash__(self):
        return hash((self.eps_rel,))

    def __repr__(self):
        return f"TolerancePolicy(eps_rel={self.eps_rel!r})"

    @property
    def eps_comb(self) -> float:
        return self.comb_factor * self.eps_rel

    def herm_tols(self, scale: np.ndarray) -> np.ndarray:
        """Hermiticity tolerance for an array of largest magnitudes |A|_max."""
        return self.eps_rel * np.maximum(1.0, scale)

    def rank_tol(self, n_rows: int, n_cols: int, sigma_max: float | np.ndarray) -> float | np.ndarray:
        """Rank cutoff for a largest singular value, or elementwise for an array of them."""
        return max(n_rows, n_cols) * sigma_max * self.eps_rel

    def supp_tol(self, dim: int, lambda_max: float | np.ndarray) -> float | np.ndarray:
        """Support cutoff for a largest eigenvalue, or elementwise for an array of them."""
        # The max(., 1) floor keeps near-zero outcomes (a legal degenerate
        # case) from tripping the negativity check on float dust.
        return dim * np.maximum(lambda_max, 1.0) * self.eps_rel

    def support(self, w: np.ndarray) -> tuple:
        """The support rule, on the d eigenvalues along the last axis of
        ``w``, sorted descending (lambda_max first, lambda_min last; one
        spectrum per stacked operator): positivity is lambda_min >=
        -supp_tol(d, lambda_max), and the support rank is the count of the
        eigenvalues above supp_tol(d, lambda_max).  Returns (psd, support
        ranks), each of the shape of ``w`` without its last axis; with no
        eigenvalue, positive and of rank 0."""
        tol = self.supp_tol(w.shape[-1], w[..., :1])
        return (w[..., -1:] >= -tol).all(axis=-1), (w > tol).sum(axis=-1)

    def require_support(self, ranks: np.ndarray, dim: int) -> None:
        """:class:`ToleranceError` when every support of some object is
        empty: ``ranks`` (..., M) are :meth:`support` ranks of its M
        operators of dimension ``dim``, along the last axis."""
        if (ranks == 0).all(axis=-1).any():
            raise ToleranceError(f"tolerance {self.eps_rel:g} leaves every support empty at dimension {dim}")


DEFAULT_TOL = TolerancePolicy()

# The largest modulus of an entry of any operator, read from a file or built
# in memory.  An entry of a valid object is at most its dimension D in
# modulus.  With every entry at most 1e100, the symmetrized outcomes, their
# eigenvalues (at most D 1e100), the outcome sum of M outcomes (M 1e100),
# its partial traces, the support cutoffs and the squares of entries all
# stay finite while D^2 M < 1e200, far beyond any object that fits in
# memory.
MAX_ENTRY = 1e100


class EigenDecomposition(Record):
    """Eigenvalues sorted descending; eigenvectors as matching columns.

    A stack of k operators carries values (k, d) and vectors (k, d, d).
    """

    def __init__(self, values: np.ndarray, vectors: np.ndarray):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ np.swapaxes(self.vectors.conj(), -2, -1)

    def __getitem__(self, k) -> "EigenDecomposition":
        """The decomposition of operator ``k`` of a stack."""
        return EigenDecomposition(self.values[k], self.vectors[k])


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.trace(a.conj().T @ b))


def _entry_rule(a: np.ndarray) -> tuple:
    """The entry rule on a stack (k, d, d): every entry finite and of
    modulus at most :data:`MAX_ENTRY`.  Returns the largest entry modulus of
    each matrix, the index of the first matrix that breaks the rule (k when
    none does) and why it breaks it (None when none does)."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    # A NaN modulus compares False, an infinite one is above the bound.
    kept = scale <= MAX_ENTRY
    if kept.all():
        return scale, len(a), None
    k = int(np.argmin(kept))
    if np.isfinite(scale[k]):
        return scale, k, f"matrix entry of modulus above {MAX_ENTRY:g}"
    return scale, k, "matrix contains non-finite entries"


def check_hermitian(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Check Hermiticity within tolerance and return the symmetrized operator."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return check_hermitian_stack(a[None], pol)[0]


def check_hermitian_stack(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """:func:`check_hermitian` on each matrix of a stack (k, d, d) at once.

    Every operator the program decomposes passes here, so this is where the
    entry rule (:func:`_entry_rule`) holds for objects built in memory.  The
    first failing matrix raises the error :func:`check_hermitian` raises
    for it, Hermiticity or entry rule; the symmetrized stack is returned.
    """
    a = np.asarray(a, dtype=complex)
    scale, k, fault = _entry_rule(a)
    adjoint = a.conj().transpose(0, 2, 1)
    dev = np.abs(a[:k] - adjoint[:k]).max(axis=(-2, -1), initial=0.0)
    bad = dev > pol.herm_tols(scale[:k])
    if bad.any():
        raise NotHermitianError(f"not Hermitian: |A - A^dagger|_max = {dev[bad.argmax()]:.3e}")
    if fault:
        raise NotHermitianError(fault)
    return (a + adjoint) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, from one broadcast product.
    These are the multiplications ``np.kron`` makes, on operands of the same
    layout, so every entry is the same to the bit.  Stacks (..., m, n) and
    (..., p, q) whose leading axes broadcast give the stack of the products
    of their matrices, each from the multiplication of its own call: numpy's
    complex products give NaNs and underflowed zeros different bits in
    different loops, and which loop runs depends on the shape of the whole
    product."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatchError(f"kron takes two matrices or stacks of them, got shapes {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    x, y = a[..., :, None, :, None], b[..., None, :, None, :]
    if a.ndim == b.ndim == 2:
        return (x * y).reshape(m * p, n * q)
    try:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as err:
        raise DimensionMismatchError(f"kron stacks of shapes {a.shape} and {b.shape} do not broadcast") from err
    x, y = np.broadcast_to(x, lead + x.shape[-4:]), np.broadcast_to(y, lead + y.shape[-4:])
    products = [x[idx] * y[idx] for idx in np.ndindex(lead)]
    return np.array(products, dtype=np.result_type(a, b)).reshape(*lead, m * p, n * q)


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


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=128)
def _upper_indices(d: int) -> tuple:
    """``np.triu_indices(d, k=1)``, built once per dimension and read-only."""
    return _read_only(*np.triu_indices(d, k=1))


@functools.lru_cache(maxsize=128)
def _support_pairs(r: int) -> tuple:
    """The (a, b) index pairs of the r^2 support operators
    :func:`support_operators` forms, as two arrays: (n, n), then (n, k), then
    (k, n), n < k lexicographic.  Built once per rank and read-only."""
    diag = np.arange(r)
    n, k = _upper_indices(r)
    return _read_only(np.concatenate([diag, n, k]), np.concatenate([diag, k, n]))


@functools.lru_cache(maxsize=128)
def _vector_indices(d: int) -> np.ndarray:
    """The :func:`vectorize_hermitian` layout as indices into the 2 d^2
    floats of a complex d x d matrix viewed as real: the real parts of the
    diagonal, then the real and the imaginary parts of the upper triangle,
    row-major.  Built once per dimension and read-only."""
    n, k = _upper_indices(d)
    upper = 2 * (n * d + k)
    return _read_only(np.concatenate([2 * (d + 1) * np.arange(d), upper, upper + 1]))[0]


def vectorize_hermitian(a: np.ndarray) -> np.ndarray:
    """Real vector of length d^2, isometric for the HS inner product.

    Layout: diagonal (real), then sqrt(2)*Re(upper triangle) row-major, then
    sqrt(2)*Im(upper triangle) row-major.  A stack (..., d, d) maps to
    (..., d^2), by one gather from the floats of each matrix.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    d = a.shape[-1]
    out = a.reshape(*a.shape[:-2], d * d).view(float)[..., _vector_indices(d)]
    out[..., d:] *= math.sqrt(2.0)
    return out


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
    first, second = _support_pairs(r)
    # One gather: the (n, n), then the (n, k) and then the (k, n) entries, n < k.
    rows = g[:, first, second]
    if r > 1:
        p = r * (r - 1) // 2
        upper, lower = rows[:, r : r + p], rows[:, r + p :]
        s = 1.0 / math.sqrt(2.0)
        symmetric, antisymmetric = upper + lower, upper - lower
        np.multiply(s, symmetric, out=upper)
        np.multiply(1j * s, antisymmetric, out=lower)
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
