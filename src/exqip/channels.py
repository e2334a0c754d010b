"""Channels and instruments via Choi-Jamiolkowski operators.

Conventions: ``|A>> = (A (x) I)|I>>`` with ``|I>> = sum_i |i>|i>``, so the
operator-to-vector map is a plain row-major reshape and Choi operators live on
H_1 (x) H_0 (output factor first).  Minimal Kraus representations come from the
Choi spectral decomposition.

A channel is the one-outcome instrument whose operator is the Choi
operator, so its validity and its criteria are the instrument's, under the
channel names.  Every criterion refuses an invalid object through the one
gate of :mod:`exqip.gqi`, with its message; :func:`instrument_extremal` and
:func:`instrument_rank_bound` also take the caller's validation verdict,
which the suites pass on.  Extremality routes: the pooled Kraus-product
criterion (Choi's criterion, the independence of {K_m^dagger K_n}, for a
channel), the paper's independent criterion; the master criterion (Theorem 1
for a channel), decided by :func:`gqi.is_extremal` as for every other kind
(that the two routes agree is a test oracle); and the square-root / Lueders
constructions.  The appendix fixtures exercise all seven attainable
(instrument, channel, POVM) extremality combinations.  The classes
:class:`Instrument` and :class:`Channel` are defined in :mod:`exqip.gqi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gqi as gqi_mod, linalg, testers
from .errors import NotPositiveError, ValidationError
from .gqi import Channel, Instrument, Povm
from .linalg import DEFAULT_TOL, TolerancePolicy


def vec_op(a: np.ndarray) -> np.ndarray:
    """|A>> as a vector on H_1 (x) H_0 (row-major reshape)."""
    return np.asarray(a, dtype=complex).ravel()


def unvec_op(v: np.ndarray, d1: int, d0: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d1, d0)


def kraus_to_choi(kraus) -> np.ndarray:
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    vs = [vec_op(k) for k in ks]
    dim = vs[0].size
    out = np.zeros((dim, dim), dtype=complex)
    for v in vs:
        out += np.outer(v, v.conj())
    return out


def _kraus_stack(eig: linalg.EigenDecomposition, d1: int, d0: int, pol: TolerancePolicy) -> np.ndarray:
    """sqrt(lambda_m) unvec(v_m) over the r eigenpairs above the support
    cutoff, as a stack (r, d1, d0)."""
    r = eig.support_ranks(pol)
    return np.sqrt(eig.values[:r])[:, None, None] * eig.vectors[:, :r].T.reshape(r, d1, d0)


def choi_to_kraus(choi: np.ndarray, d1: int, d0: int, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Minimal Kraus list from the Choi spectral form; count = eigen-rank."""
    eig = linalg.hermitian_eig(choi, pol)
    if not pol.psd(eig.values):
        raise NotPositiveError(f"Choi operator has negative eigenvalue {eig.values[-1]:.3e}")
    return list(_kraus_stack(eig, d1, d0, pol))


def instrument_kraus(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Per-outcome minimal Kraus lists."""
    return [choi_to_kraus(n, ins.d1, ins.d0, pol) for n in ins.operators]


def channel_kraus(c: Channel, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    return instrument_kraus(c, pol)[0]


def channel_from_kraus(kraus, d1: int | None = None, d0: int | None = None) -> Channel:
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    if d1 is None or d0 is None:
        d1, d0 = ks[0].shape
    return Channel(d1=d1, d0=d0, choi=kraus_to_choi(ks))


def instrument_from_kraus(outcome_kraus, d1: int | None = None, d0: int | None = None) -> Instrument:
    """Build an instrument from one Kraus list per outcome."""
    ops = []
    for ks in outcome_kraus:
        ks = [np.asarray(k, dtype=complex) for k in ks]
        if d1 is None or d0 is None:
            d1, d0 = ks[0].shape
        ops.append(kraus_to_choi(ks))
    return Instrument(d1=d1, d0=d0, operators=tuple(ops))


def is_valid_instrument(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return gqi_mod.is_valid_gqi(ins, pol=pol).ok


def _kraus_products(kraus: np.ndarray) -> np.ndarray:
    """The r^2 products K_m^dagger K_n of a Kraus stack (r, d1, d0), m-major,
    from one broadcast ``matmul``: (r^2, d0, d0)."""
    k = np.asarray(kraus)
    r, _, d0 = k.shape
    return (k.conj().transpose(0, 2, 1)[:, None] @ k[None]).reshape(r * r, d0, d0)


def instrument_extremal(
    ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL, validation: gqi_mod.GqiVerdict | None = None
) -> bool:
    """Kraus-product criterion: the pooled per-outcome families
    {K_m^(i)dagger K_n^(i)} must be linearly independent.  ``validation`` is
    the caller's :func:`gqi.is_valid_gqi` verdict on the instrument at
    ``pol``, when it has one; each outcome's minimal Kraus stack comes from
    its eigenpairs.  An invalid instrument raises the error of
    :func:`gqi._require_valid`."""
    spectra = gqi_mod._require_valid(ins, pol, validation).spectra
    products = np.concatenate(
        [_kraus_products(_kraus_stack(spectra[i], ins.d1, ins.d0, pol)) for i in range(len(spectra.values))]
    )
    return linalg.complex_family_rank(products, pol) == len(products)


def instrument_extremal_rank_test(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """The master criterion, decided by :func:`gqi.is_extremal`: the support
    bases pooled with the comb variable directions of the signature
    (d_0, d_1) must be linearly independent."""
    return gqi_mod.is_extremal(ins, pol=pol).extremal


# A channel is the one-outcome instrument, so its criteria are the
# instrument's.  Validity; Choi's criterion, the independence of
# {K_m^dagger K_n} over the minimal Kraus family; and Theorem 1, the master
# criterion {|K_m>><<K_n|} pooled with {sigma_a (x) I} and
# {sigma_a (x) sigma_b}, whose directions the rank test never builds.
is_valid_channel = is_valid_instrument
choi_condition = instrument_extremal
channel_extremal_theorem1 = instrument_extremal_rank_test


@dataclass(frozen=True)
class InstrumentRankBound:
    outcome_ranks: tuple
    lhs: int
    rhs: int
    ok: bool


def instrument_rank_bound(
    ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL, validation: gqi_mod.GqiVerdict | None = None
) -> InstrumentRankBound:
    """Necessary condition for extremality: sum of squared ranks <= d_0^2.

    The ranks are the Kraus counts, read from the validation eigenpairs:
    ``validation`` as in :func:`instrument_extremal`."""
    ranks = [int(r) for r in gqi_mod._require_valid(ins, pol, validation).spectra.support_ranks(pol)]
    lhs = sum(r * r for r in ranks)
    rhs = ins.d0 ** 2
    return InstrumentRankBound(outcome_ranks=tuple(ranks), lhs=lhs, rhs=rhs, ok=lhs <= rhs)


def sqrt_instrument(p: Povm, pol: TolerancePolicy = DEFAULT_TOL) -> Instrument:
    """The instrument rho -> sqrt(P_i) rho sqrt(P_i); extremal exactly when the
    effects are linearly independent."""
    kraus = [[linalg.sqrt_psd(e, pol)] for e in p.effects]
    return instrument_from_kraus(kraus, d1=p.d, d0=p.d)


def luders_instrument(projectors) -> Instrument:
    """Lueders instrument of an orthogonal projector decomposition."""
    ps = [np.asarray(p, dtype=complex) for p in projectors]
    d = ps[0].shape[0]
    return instrument_from_kraus([[p] for p in ps], d1=d, d0=d)


def induced_channel(ins: Instrument) -> Channel:
    return Channel(d1=ins.d1, d0=ins.d0, choi=sum(ins.operators))


def induced_povm(ins: Instrument) -> Povm:
    """P_i = (Tr_1 N_i)^T, so that Tr[P_i rho] reproduces the Kraus-rule
    outcome probabilities under the |A>> convention."""
    effects = []
    for n in ins.operators:
        effects.append(linalg.partial_trace(n, (ins.d1, ins.d0), {0}).T)
    return Povm(d=ins.d0, effects=tuple(effects))


@dataclass(frozen=True)
class CombinationTriple:
    instrument: bool
    channel: bool
    povm: bool

    def as_signs(self) -> tuple:
        return tuple("+" if flag else "-" for flag in (self.instrument, self.channel, self.povm))


def classify_combination(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> CombinationTriple:
    """Extremality of an instrument, its induced channel, and its induced POVM."""
    return CombinationTriple(
        instrument=instrument_extremal(ins, pol),
        channel=choi_condition(induced_channel(ins), pol),
        povm=testers.povm_is_extremal(induced_povm(ins), pol),
    )


APPENDIX_TABLE = {
    1: ("+", "+", "+"),
    2: ("+", "+", "-"),
    3: ("+", "-", "+"),
    4: ("+", "-", "-"),
    6: ("-", "+", "-"),
    7: ("-", "-", "+"),
    8: ("-", "-", "-"),
}

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _commuting_independent_povm() -> Povm:
    p0 = np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex)
    p1 = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)
    return Povm(d=2, effects=(p0, p1))


def combination_fixture(k: int) -> Instrument:
    """Concrete instrument realizing row ``k`` of the extremality table.

    Row 5 (non-extremal instrument with extremal channel and POVM) is an open
    problem and has no fixture.
    """
    if k == 5:
        raise ValidationError(
            "combination 5 is an open problem: no instrument with a non-extremal "
            "instrument but extremal induced channel and POVM is known"
        )
    if k == 1:
        return instrument_from_kraus([[np.eye(2, dtype=complex)]], d1=2, d0=2)
    if k == 2:
        povm = _commuting_independent_povm()
        sp0 = linalg.sqrt_psd(povm.effects[0], DEFAULT_TOL)
        sp1 = linalg.sqrt_psd(povm.effects[1], DEFAULT_TOL)
        w = np.outer(_KET0, _KET1.conj()) - np.outer(_KET1, _KET0.conj())
        plus = (_KET0 + _KET1) / math.sqrt(2.0)
        m0 = linalg.kron(sp0, plus[:, None])
        m1 = (
            linalg.kron(sp1, _KET0[:, None]) + linalg.kron(w @ sp1, _KET1[:, None])
        ) / math.sqrt(2.0)
        return instrument_from_kraus([[m0], [m1]], d1=4, d0=2)
    if k == 3:
        return luders_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    if k == 4:
        return sqrt_instrument(_commuting_independent_povm())
    if k == 6:
        gamma = 0.5
        k1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
        k2 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        a = instrument_from_kraus([[k1], [k2]], d1=2, d0=2)
        b = instrument_from_kraus([[k2], [k1]], d1=2, d0=2)
        return gqi_mod.mix(a, b)
    if k == 7:
        pi = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        a = instrument_from_kraus([[p] for p in pi], d1=2, d0=2)
        b = instrument_from_kraus([[sx @ p] for p in pi], d1=2, d0=2)
        return gqi_mod.mix(a, b)
    if k == 8:
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        comp = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        had = [h @ p @ h.conj().T for p in comp]
        a = luders_instrument(comp)
        b = luders_instrument(had)
        return gqi_mod.mix(a, b)
    raise ValidationError(f"unknown combination {k}; valid rows are 1,2,3,4,6,7,8")


def random_unitary(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_channel(d0: int, d1: int, kraus_count: int, rng) -> Channel:
    """Random channel via a Haar-ish random Stinespring isometry.

    ``kraus_count`` is clamped up to ceil(d0/d1), the minimum for an isometry
    to exist."""
    kraus_count = max(kraus_count, -(-d0 // d1))
    g = rng.standard_normal((d1 * kraus_count, d0)) + 1j * rng.standard_normal(
        (d1 * kraus_count, d0)
    )
    q, _ = np.linalg.qr(g)
    ks = [q[m * d1 : (m + 1) * d1, :] for m in range(kraus_count)]
    return channel_from_kraus(ks, d1=d1, d0=d0)


def random_instrument(d0: int, d1: int, outcome_kraus_counts, rng) -> Instrument:
    """Random instrument: random channel Kraus family partitioned per outcome."""
    total = sum(outcome_kraus_counts)
    chan = random_channel(d0, d1, total, rng)
    ks = channel_kraus(chan)
    # Channel rank may collapse below the requested count; pad the partition.
    while len(ks) < total:
        ks.append(np.zeros((d1, d0), dtype=complex))
    groups = []
    pos = 0
    for count in outcome_kraus_counts:
        groups.append(ks[pos : pos + count])
        pos += count
    return instrument_from_kraus(groups, d1=d1, d0=d0)
