"""Deterministic quantum N-combs.

A deterministic N-comb is a positive operator on the 2N alternating
input/output spaces H_0 .. H_{2N-1} whose partial traces obey the recursive
normalization cascade

    Tr_{2n-1} R^(n) = I_{2n-2} (x) R^(n-1),      Tr_1 R^(1) = I_0.

Convention: the comb operator lives on H_{2N-1} (x) ... (x) H_0, i.e. space 0
is the LAST Kronecker factor.  A signature lists dimensions in label order
(d_0, ..., d_{2N-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError
from .linalg import DEFAULT_TOL, TolerancePolicy


@dataclass(frozen=True)
class CombSignature:
    """Hilbert-space dimensions (d_0, ..., d_{2N-1}) of a comb's teeth."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) % 2 != 0:
            raise DimensionMismatchError(f"signature length must be even, got {dims}")
        if any(d < 1 for d in dims):
            raise DimensionMismatchError(f"dimensions must be >= 1, got {dims}")

    @property
    def n(self) -> int:
        return len(self.dims) // 2

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims) if self.dims else 1

    @property
    def kron_dims(self) -> tuple:
        """Factor dimensions in Kronecker order: (d_{2N-1}, ..., d_0)."""
        return tuple(reversed(self.dims))

    @property
    def odd_product(self) -> int:
        return math.prod(self.dims[1::2]) if self.dims else 1

    def truncated(self, level: int) -> "CombSignature":
        """Signature of the reduced comb R^(level)."""
        return CombSignature(self.dims[: 2 * level])


@dataclass(frozen=True)
class DeterministicComb:
    signature: CombSignature
    operator: np.ndarray

    @property
    def outcomes(self) -> tuple:
        return (self.operator,)


@dataclass(frozen=True)
class CombVerdict:
    ok: bool
    level_residuals: tuple
    min_eigenvalue: float

    @property
    def max_residual(self) -> float:
        return max(self.level_residuals) if self.level_residuals else 0.0


def central_comb(sig: CombSignature) -> DeterministicComb:
    """The maximally mixed deterministic comb I / (product of output dims)."""
    op = np.eye(sig.total_dim, dtype=complex) / sig.odd_product
    return DeterministicComb(signature=sig, operator=op)


def _reduce_once(op: np.ndarray, sig: CombSignature, level: int) -> np.ndarray:
    """Extract R^(level-1) as Tr_{2n-1,2n-2} R^(level) / d_{2n-2}."""
    sub = sig.truncated(level)
    reduced = linalg.partial_trace(op, sub.kron_dims, {0, 1})
    return reduced / sub.dims[-2]


def is_deterministic_comb(
    r: np.ndarray,
    sig: CombSignature,
    tol: float | None = None,
    pol: TolerancePolicy = DEFAULT_TOL,
) -> CombVerdict:
    """Validate the normalization cascade, reporting one residual per level."""
    r = linalg.check_hermitian(r, pol)
    if r.shape[0] != sig.total_dim:
        raise DimensionMismatchError(
            f"operator dimension {r.shape[0]} != signature total {sig.total_dim}"
        )
    if tol is None:
        tol = pol.eps_comb
    w = np.linalg.eigvalsh(r)
    lam_min = float(w[0])
    psd_ok = lam_min >= -pol.supp_tol(r.shape[0], float(w[-1]))

    residuals = []
    current = r
    for level in range(sig.n, 0, -1):
        sub = sig.truncated(level)
        lhs = linalg.partial_trace(current, sub.kron_dims, {0})
        if level == 1:
            rhs = np.eye(sub.dims[0], dtype=complex)
            current = np.array([[np.trace(current).real / sub.dims[0]]], dtype=complex)
        else:
            nxt = _reduce_once(current, sig, level)
            rhs = linalg.kron(np.eye(sub.dims[-2], dtype=complex), nxt)
            current = nxt
        residuals.append(linalg.max_abs(lhs - rhs))
    ok = psd_ok and all(res <= tol for res in residuals)
    return CombVerdict(ok=ok, level_residuals=tuple(residuals), min_eigenvalue=lam_min)


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
        raise ValidationError(
            f"not a deterministic comb: residuals {verdict.level_residuals}, "
            f"min eigenvalue {verdict.min_eigenvalue:.3e}"
        )
    op = comb.operator
    for lev in range(sig.n, level, -1):
        op = _reduce_once(op, sig, lev)
    return DeterministicComb(signature=sig.truncated(level), operator=op)


def _level_blocks(sig: CombSignature):
    """Per-level (top identity dim, odd dim, lower dim) for the variable basis."""
    dims = sig.dims
    for n in range(sig.n, 0, -1):
        odd = dims[2 * n - 1]
        top = math.prod(dims[2 * n :]) if 2 * n < len(dims) else 1
        low = math.prod(dims[: 2 * n - 1])
        yield top, odd, low


def comb_variable_basis(sig: CombSignature) -> list:
    """The HS-orthonormal variable-direction basis of the deterministic-comb family.

    Listed level by level from the last tooth down: traceless operators on each
    odd (output) space tensored with a full Hermitian basis of everything
    below, padded with identity above.  Adding any combination of these to the
    central comb preserves the normalization cascade exactly; only positivity
    can fail.
    """
    out = []
    for top, odd, low in _level_blocks(sig):
        eye_top = np.eye(top, dtype=complex) / math.sqrt(top)
        for e in linalg.traceless_hermitian_basis(odd):
            for f in linalg.hermitian_basis(low):
                out.append(linalg.kron(eye_top, linalg.kron(e, f)))
    return out


def comb_variable_count(sig: CombSignature) -> int:
    """Closed-form size of the variable basis (independent of enumeration)."""
    total = 0
    dims = sig.dims
    for n in range(1, sig.n + 1):
        odd = dims[2 * n - 1]
        low = math.prod(dims[: 2 * n - 1])
        total += (odd * odd - 1) * low * low
    return total


def _forbidden_levels(sig: CombSignature):
    """Per-level (top, even, low) of the forbidden directions: the identity
    dimension on spaces >= 2n-1, the even space 2n-2 and everything below it."""
    dims = sig.dims
    for n in range(sig.n, 0, -1):
        yield math.prod(dims[2 * n - 1 :]), dims[2 * n - 2], math.prod(dims[: 2 * n - 2])


def comb_forbidden_directions(sig: CombSignature) -> list:
    """Directions excluded by the cascade: identity on an odd space times a
    traceless operator on the even space directly below it.

    Together with the identity they span the orthogonal complement of
    :func:`comb_variable_basis`.
    """
    out = []
    for top, even, low in _forbidden_levels(sig):
        eye_top = np.eye(top, dtype=complex) / math.sqrt(top)
        for e in linalg.traceless_hermitian_basis(even):
            for f in linalg.hermitian_basis(low):
                out.append(linalg.kron(eye_top, linalg.kron(e, f)))
    return out


def _traceless_part(y: np.ndarray, even: int, low: int) -> np.ndarray:
    """y - I/even (x) Tr_even y for a stack (k, even*low, even*low): the part
    of each operator that is traceless on its leading factor."""
    t = np.trace(y.reshape(-1, even, low, even, low), axis1=1, axis2=3)
    eye = np.eye(even) / even
    return y - np.einsum("ef,kij->keifj", eye, t).reshape(y.shape)


def complement_coordinates(
    u: np.ndarray, sig: CombSignature, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Support basis of span(u) projected off the comb variable directions.

    ``u`` (D x r) has orthonormal columns.  Row j is an isometric image of
    (1 - P_V) q_j, where q_j is the j-th element of the support basis
    (:func:`linalg.support_operators` order) and P_V projects onto the span of
    :func:`comb_variable_basis`.  The complement of V is spanned by the
    identity and :func:`comb_forbidden_directions`, so the coordinates are
    Tr q / sqrt(D) and then, per level n with Y_n = Tr_{spaces >= 2n-1} q /
    sqrt(top_n), the vectorized part of Y_n traceless on space 2n-2.  They
    come from partial traces of ``u`` alone: no D^2-long operator is built.
    Levels with a trivial even space contribute nothing and are skipped.
    Only the rows ``start`` to ``stop`` (by default all r^2) are built.
    """
    r = u.shape[1]
    trace = np.zeros((r * r, 1))
    trace[:r] = 1.0 / math.sqrt(sig.total_dim)
    cols = [trace[start:stop]]
    for top, even, low in _forbidden_levels(sig):
        if even == 1:
            continue
        y = linalg.support_operators(u, top, start, stop) / math.sqrt(top)
        cols.append(linalg.vectorize_hermitian(_traceless_part(y, even, low)))
    return np.hstack(cols)


def forbidden_part(op: np.ndarray, sig: CombSignature) -> np.ndarray:
    """(1 - P_V) op: the component of ``op`` along the identity and the
    forbidden directions, by trace-and-replace on each level."""
    dim = sig.total_dim
    out = np.trace(op) / dim * np.eye(dim, dtype=complex)
    for top, even, low in _forbidden_levels(sig):
        y = linalg.partial_trace(op, (top, even * low), {0})
        y = _traceless_part(y[None], even, low)[0]
        out = out + linalg.kron(np.eye(top, dtype=complex) / top, y)
    return out


def random_deterministic_comb(
    sig: CombSignature,
    seed=None,
    spread: float = 0.5,
    pol: TolerancePolicy = DEFAULT_TOL,
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
