"""Helpers that only the tests use.

The program decides extremality without any of these: it never ranks a
whole stack in one call, takes supports from the eigenpairs of validation,
reads a tester's rho from the cascade of its GQI verdict, and never builds
the comb variable basis V or the dense normalization family of Theorem 1.
The tests keep them as oracles and to build inputs.
"""

import math

import numpy as np

from exqip import channels, combs, linalg
from exqip.errors import NotPositiveError
from exqip.linalg import DEFAULT_TOL


def rank_decision(x, pol=DEFAULT_TOL, known=0, ambient=None):
    """``linalg.block_rank_decision`` on the whole of ``x`` at once: the rank
    from a values-only SVD of every row, with the same rank, cutoff and null
    vector."""
    x = np.asarray(x, dtype=float)
    return linalg.block_rank_decision([x], x.shape[0], pol, known, ambient)


def support_vectors(t, pol=DEFAULT_TOL):
    """Orthonormal eigenvectors (columns, eigenvalues descending) spanning
    Supp(t); ``t`` must be positive semidefinite within tolerance."""
    eig = linalg.hermitian_eig(t, pol)
    if not pol.psd(eig.values):
        raise NotPositiveError(f"negative eigenvalue {eig.values[-1]:.3e}")
    return eig.vectors[:, : eig.support_ranks(pol)]


def tester_normalization(t, pol=DEFAULT_TOL):
    """rho = Tr_2(sum T_i) / d_2 and the product-form residual, from the comb
    check of the sum."""
    comb = combs.is_deterministic_comb(sum(t.outcomes), t.signature, pol=pol)
    return comb.reduced[0], comb.level_residuals[0]


def comb_variable_basis(sig):
    """The HS-orthonormal variable-direction basis V of the deterministic-comb
    family, level by level from the last tooth down: traceless operators on
    each odd (output) space tensored with a Hermitian basis of everything
    below, padded with the identity above."""
    out = []
    for top, odd, even, low in combs._levels(sig):
        eye_top = np.eye(top, dtype=complex) / math.sqrt(top)
        for e in linalg.traceless_hermitian_basis(odd):
            for f in linalg.hermitian_basis(even * low):
                out.append(linalg.kron(eye_top, linalg.kron(e, f)))
    return out


def theorem1_dense(c, pol=DEFAULT_TOL):
    """Theorem 1 on the dense family: the Kraus outer products
    {|K_m>><<K_n|} pooled with {sigma_a (x) I} and {sigma_a (x) sigma_b},
    ranked over the complex field in one SVD."""
    vs = [channels.vec_op(k) for k in channels.channel_kraus(c, pol)]
    family = [np.outer(vm, vn.conj()) for vm in vs for vn in vs]
    eye0 = np.eye(c.d0, dtype=complex)
    for sa in linalg.traceless_hermitian_basis(c.d1):
        family.append(linalg.kron(sa, eye0))
        family.extend(linalg.kron(sa, sb) for sb in linalg.traceless_hermitian_basis(c.d0))
    return linalg.complex_family_rank(family, pol) == len(family)
