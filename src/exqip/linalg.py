"""Dense complex linear-algebra kernel.

Everything downstream (combs, instruments, testers, channels) is built on the
handful of primitives in this module: Hermitian eigendecompositions, SVD-based
numerical rank with nullvector extraction, partial traces, Hermitian operator
bases, and the real vectorization that turns operator-independence questions
into matrix-rank questions.

Operators are plain complex ``numpy`` arrays.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotPositiveError


@dataclass(frozen=True)
class TolerancePolicy:
    """Single-knob tolerance policy.

    ``eps_rel`` scales every threshold coherently:

    * Hermiticity:  ``eps_rel * max(1, |A|_max)``
    * rank cutoff:  ``max(m, n) * sigma_max * eps_rel``
    * support cutoff: ``dim * max(lambda_max, 1) * eps_rel``
    * normalization residuals: ``comb_factor * eps_rel`` (two partial traces
      of eigendecomposition-accurate operators)
    """

    eps_rel: float = 1e-10
    comb_factor: float = 10.0

    @property
    def eps_comb(self) -> float:
        return self.comb_factor * self.eps_rel

    def herm_tol(self, a: np.ndarray) -> float:
        scale = float(np.abs(a).max()) if a.size else 0.0
        return self.eps_rel * max(1.0, scale)

    def rank_tol(self, n_rows: int, n_cols: int, sigma_max: float) -> float:
        return max(n_rows, n_cols) * sigma_max * self.eps_rel

    def supp_tol(self, dim: int, lambda_max: float) -> float:
        # The max(., 1) floor keeps near-zero outcomes (a legal degenerate
        # case) from tripping the negativity check on float dust.
        return dim * max(lambda_max, 1.0) * self.eps_rel

    def supp_tols(self, dim: int, lambda_max: np.ndarray) -> np.ndarray:
        """:meth:`supp_tol` for an array of largest eigenvalues."""
        return dim * np.maximum(lambda_max, 1.0) * self.eps_rel

    def scaled(self, eps_rel: float) -> "TolerancePolicy":
        return TolerancePolicy(eps_rel=eps_rel, comb_factor=self.comb_factor)


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors as matching columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


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
    if not np.all(np.isfinite(a)):
        raise NotHermitianError("matrix contains non-finite entries")
    dev = max_abs(a - a.conj().T)
    if dev > pol.herm_tol(a):
        raise NotHermitianError(f"not Hermitian: |A - A^dagger|_max = {dev:.3e}")
    return (a + a.conj().T) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


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
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""
    h = check_hermitian(a, pol)
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    return EigenDecomposition(values=w[order].copy(), vectors=v[:, order].copy())


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
    exactly when they are dependent.
    """

    rank: int
    singular_values: np.ndarray
    nullvector: np.ndarray | None


def rank_decision(
    x: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL, known: int = 0, ambient: int | None = None
) -> RankDecision:
    """Rank of the rows of ``x`` pooled with ``known`` orthonormal vectors.

    The rows of ``x`` (m x n) are coordinates of family members in the
    orthogonal complement of ``known`` orthonormal vectors of an
    ``ambient``-dimensional space (by default n, with nothing known).  The
    pooled family has rank ``rank(x) + known`` and the pooled cutoff

        tau = max(m + known, ambient) * sigma * eps_rel,

    with sigma = sigma_max(x), floored at 1 when ``known > 0`` because the
    orthonormal members alone have unit singular values.  A dependent family
    gets a null vector c with ``|c^T x| <= tau``.  The rows span at most
    ``ambient - known`` dimensions, so beyond that c is taken from the first
    ``ambient - known + 1`` rows.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    ambient = n if ambient is None else ambient
    s = np.linalg.svd(x, compute_uv=False)
    sigma = float(s[0]) if s.size else 0.0
    if known:
        sigma = max(1.0, sigma)
    tau = pol.rank_tol(m + known, ambient, sigma)
    rank = int(np.count_nonzero(s > tau))
    if rank == m:
        return RankDecision(rank + known, s, None)
    head = x[: min(ambient - known, n) + 1]
    u = np.linalg.svd(head, full_matrices=head.shape[0] > n)[0]
    c = np.zeros(m)
    c[: head.shape[0]] = u[:, -1]
    return RankDecision(rank + known, s, _fix_sign(c))


def numerical_rank(vectors, pol: TolerancePolicy = DEFAULT_TOL):
    """Rank of a family of real vectors, with a nullvector when deficient.

    Returns ``(rank, nullvector)``.  The nullvector ``c`` (unit norm) satisfies
    ``|sum_j c_j x_j| <= tau`` with ``tau = max(m, n) * sigma_max * eps_rel``.
    """
    rows = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not rows:
        return 0, None
    lengths = {r.size for r in rows}
    if len(lengths) != 1:
        raise DimensionMismatchError(f"vectors of mixed lengths {sorted(lengths)}")
    decision = rank_decision(np.vstack(rows), pol)
    return decision.rank, decision.nullvector


def complex_family_rank(mats, pol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Rank over the complex field of a family of matrices of equal shape."""
    rows = [np.asarray(m, dtype=complex).ravel() for m in mats]
    if not rows:
        return 0
    x = np.vstack(rows)
    s = np.linalg.svd(x, compute_uv=False)
    tau = pol.rank_tol(*x.shape, float(s[0]) if s.size else 0.0)
    return int(np.count_nonzero(s > tau))


def vectorize_hermitian(a: np.ndarray) -> np.ndarray:
    """Real vector of length d^2, isometric for the HS inner product.

    Layout: diagonal (real), then sqrt(2)*Re(upper triangle) row-major, then
    sqrt(2)*Im(upper triangle) row-major.  A stack (..., d, d) maps to
    (..., d^2).
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[-1]
    iu = np.triu_indices(d, k=1)
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
    iu = np.triu_indices(d, k=1)
    out[iu] = re + 1j * im
    out[(iu[1], iu[0])] = re - 1j * im
    return out


def psd_check(a: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Smallest eigenvalue; raises if below the (negative) support cutoff."""
    eig = hermitian_eig(a, pol)
    lam_max = float(eig.values[0]) if eig.values.size else 0.0
    lam_min = float(eig.values[-1]) if eig.values.size else 0.0
    if lam_min < -pol.supp_tol(a.shape[0], lam_max):
        raise NotPositiveError(f"negative eigenvalue {lam_min:.3e}")
    return lam_min


def support_projector(t: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    eig = hermitian_eig(t, pol)
    lam_max = float(eig.values[0]) if eig.values.size else 0.0
    tau = pol.supp_tol(t.shape[0], lam_max)
    cols = eig.vectors[:, eig.values > tau]
    return cols @ cols.conj().T


def support_vectors(t: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal eigenvectors (columns, eigenvalues descending) spanning Supp(t).

    ``t`` must be positive semidefinite within tolerance.
    """
    eig = hermitian_eig(t, pol)
    lam_max = float(eig.values[0]) if eig.values.size else 0.0
    tau = pol.supp_tol(t.shape[0], lam_max)
    if eig.values.size and float(eig.values[-1]) < -tau:
        raise NotPositiveError(f"negative eigenvalue {eig.values[-1]:.3e}")
    return eig.vectors[:, eig.values > tau]


def support_operators(u: np.ndarray, traced: int = 1) -> np.ndarray:
    """Support basis of the column span of ``u``, leading factor traced out.

    ``u`` (D x r) has orthonormal columns.  Returns the stack (r^2, m, m),
    m = D / traced, of Tr_0 q_j, where q_j runs over the HS-orthonormal
    Hermitian basis of :func:`support_basis` and factor 0, the leading
    Kronecker factor of dimension ``traced``, is traced out.  ``traced = 1``
    gives the basis itself.  The projected support coordinates of the comb
    rank test are built from these partial traces without forming any q_j.
    """
    d, r = u.shape
    m = d // traced
    w = u.reshape(traced, m * r)
    # g[a, b] = Tr_0 |u_a><u_b|
    g = (w.T @ w.conj()).reshape(m, r, m, r).transpose(1, 3, 0, 2)
    diag = np.arange(r)
    n, k = np.triu_indices(r, k=1)
    s = 1.0 / math.sqrt(2.0)
    return np.concatenate(
        [g[diag, diag], s * (g[n, k] + g[k, n]), 1j * s * (g[n, k] - g[k, n])]
    )


def support_basis(t: np.ndarray, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """HS-orthonormal basis of Hermitian operators supported on Supp(t).

    ``t`` must be positive semidefinite within tolerance; returns r^2 elements
    for eigen-rank r: the projectors ``v_n v_n^dagger``, then the symmetric
    pairs, then the antisymmetric pairs (n < m, lexicographic).  In these
    coordinates, sum_j c_j q_j = V H V^dagger with
    H = unvectorize_hermitian(c, r).
    """
    return list(support_operators(support_vectors(t, pol)))


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
