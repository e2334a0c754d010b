"""Channels and instruments via Choi-Jamiolkowski operators.

Conventions: ``|A>> = (A (x) I)|I>>`` with ``|I>> = sum_i |i>|i>``, so the
operator-to-vector map is a plain row-major reshape and Choi operators live on
H_1 (x) H_0 (output factor first).  Minimal Kraus representations come from the
Choi spectral decomposition, cut by one kernel, :func:`_kraus_stack`, from
one decomposition or a stack of them and its support ranks.  The ranks are
those of :meth:`TolerancePolicy.support`: the criteria read them off their
validation verdicts, whose gate has decided positivity by the same rule,
and :func:`choi_to_kraus` reads them with the rule's positivity, the one
refusal of a Choi operator that is not PSD.

A channel is the one-outcome instrument whose operator is the Choi
operator, so its validity and its criteria are the instrument's, under the
channel names.  Every criterion refuses an invalid object through the one
gate of :mod:`exqip.gqi`, with its message; :func:`instrument_rank_bound`
also takes the caller's validation verdict, which the bounds suite reads
off :func:`gqi.validate_all`.  The Kraus-product criterion is one kernel
over a population, :func:`_kraus_criterion`, and :func:`instrument_extremal`
is that kernel on a stack of one.
Extremality routes: the pooled Kraus-product criterion (Choi's criterion,
the independence of {K_m^dagger K_n}, for a channel), the paper's
independent criterion; the master criterion (Theorem 1 for a channel),
decided by :func:`gqi.is_extremal` as for every other kind (that the two
routes agree is a test oracle); and the square-root / Lueders
constructions.  The appendix fixtures exercise all seven attainable
(instrument, channel, POVM) extremality combinations, which
:func:`classify_combinations` decides in three stacked passes, one per
object of the rows, each criterion called once; a fault names the first
instrument whose own passes raise (:func:`gqi._first_fault`).  The classes :class:`Instrument` and
:class:`Channel` are defined in :mod:`exqip.gqi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gqi as gqi_mod, linalg
from .errors import DimensionMismatchError, NotPositiveError, ValidationError
from .gqi import Channel, Instrument, Povm
from .linalg import DEFAULT_TOL, TolerancePolicy


def vec_op(a: np.ndarray) -> np.ndarray:
    """|A>> as a vector on H_1 (x) H_0 (row-major reshape)."""
    return np.asarray(a, dtype=complex).ravel()


def unvec_op(v: np.ndarray, d1: int, d0: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d1, d0)


def kraus_to_choi(kraus) -> np.ndarray:
    """sum_m |K_m>><<K_m| of a Kraus family (n, d1, d0), the outer products
    added in order, or of each family of a stack (..., n, d1, d0)."""
    v = np.asarray(kraus, dtype=complex)
    v = v.reshape(v.shape[:-2] + (v.shape[-2] * v.shape[-1],))
    out = np.zeros(v.shape[:-2] + 2 * v.shape[-1:], dtype=complex)
    for m in range(v.shape[-2]):
        out += v[..., m, :, None] * v[..., m, None, :].conj()
    return out


def _kraus_stack(eig: linalg.EigenDecomposition, d1: int, d0: int, ranks) -> np.ndarray:
    """sqrt(lambda_m) unvec(v_m) over the D eigenpairs of a positive Choi
    operator, as a stack (D, d1, d0) that is zero past its support rank
    ``ranks``, so that its first r operators are the minimal Kraus family.
    A stack of decompositions (..., D) with ranks (...) gives
    (..., D, d1, d0), each the same to the bit as its own call."""
    kept = np.arange(eig.values.shape[-1]) < np.asarray(ranks)[..., None]
    vectors = np.swapaxes(eig.vectors, -2, -1).reshape(*eig.values.shape, d1, d0)
    return np.sqrt(np.where(kept, eig.values, 0.0))[..., None, None] * vectors


def choi_to_kraus(choi: np.ndarray, d1: int, d0: int, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Minimal Kraus list from the Choi spectral form; count = eigen-rank.
    The Choi operator must be (d1 d0) x (d1 d0) and positive by the support
    rule, or :class:`NotPositiveError` names its lowest eigenvalue."""
    dim = np.shape(choi)[-1] if np.ndim(choi) else 0
    if d1 * d0 != dim:
        raise DimensionMismatchError(f"Choi operator of dimension D = {dim} is not d1 d0 = {d1} x {d0}")
    eig = linalg.hermitian_eig(choi, pol)
    positive, r = pol.support(eig.values)
    if not positive:
        raise NotPositiveError(f"Choi operator has negative eigenvalue {eig.values[-1]:.3e}")
    return list(_kraus_stack(eig, d1, d0, r)[:r])


def instrument_kraus(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Per-outcome minimal Kraus lists."""
    return [choi_to_kraus(n, ins.d1, ins.d0, pol) for n in ins.operators]


def channel_kraus(c: Channel, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    return instrument_kraus(c, pol)[0]


def _checked_kraus(kraus) -> list:
    """The Kraus operators of one list as complex matrices, each refused with
    :class:`ValidationError` and the message of the entry rule of
    :mod:`exqip.linalg` when an entry breaks it, before any Choi operator
    is formed."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ks:
        fault = linalg._entry_rule(k.reshape(1, 1, -1))[2]
        if fault:
            raise ValidationError(fault)
    return ks


def channel_from_kraus(kraus, d1: int | None = None, d0: int | None = None) -> Channel:
    ks = _checked_kraus(kraus)
    if d1 is None or d0 is None:
        d1, d0 = ks[0].shape
    return Channel(d1=d1, d0=d0, choi=kraus_to_choi(ks))


def instrument_from_kraus(outcome_kraus, d1: int | None = None, d0: int | None = None) -> Instrument:
    """Build an instrument from one Kraus list per outcome."""
    ops = []
    for ks in outcome_kraus:
        ks = _checked_kraus(ks)
        if d1 is None or d0 is None:
            d1, d0 = ks[0].shape
        ops.append(kraus_to_choi(ks))
    return Instrument(d1=d1, d0=d0, operators=tuple(ops))


def is_valid_instrument(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return gqi_mod.is_valid_gqi(ins, pol=pol).ok


def _kraus_products(kraus: np.ndarray) -> np.ndarray:
    """The r^2 products K_m^dagger K_n of a Kraus stack (r, d1, d0), m-major,
    from one broadcast ``matmul``: (r^2, d0, d0); a stack of families
    (K, r, d1, d0) gives (K, r^2, d0, d0)."""
    k = np.asarray(kraus)
    *lead, r, _, d0 = k.shape
    kh = np.swapaxes(k.conj(), -2, -1)
    return (kh[..., :, None, :, :] @ k[..., None, :, :, :]).reshape(*lead, r * r, d0, d0)


def instrument_extremal(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Kraus-product criterion: the pooled per-outcome families
    {K_m^(i)dagger K_n^(i)} must be linearly independent.  Each outcome's
    minimal Kraus stack comes from the eigenpairs and support ranks of the
    instrument's :func:`gqi.is_valid_gqi` verdict.  An invalid instrument
    raises the error of :func:`gqi._require_valid`.  This is
    :func:`_kraus_criterion` on ``ins`` alone."""
    return _kraus_criterion([ins], [None], pol)[0]


def _kraus_criterion(instruments: list, verdicts: list, pol: TolerancePolicy) -> list:
    """:func:`instrument_extremal` of each instrument, given its verdict at
    ``pol`` or None.  The gate refuses the first invalid instrument, in
    order.  The instruments are then grouped by (d1, d0, support ranks),
    and each group runs one :func:`_kraus_stack` on the spectra record of
    its verdicts (:meth:`gqi._Supports.of`), one batched product
    K_m^dagger K_n and one values-only ``svd``, whose rank is counted at
    :meth:`TolerancePolicy.rank_tol` of each member; each result is that of
    the instrument's own call."""
    verdicts = [gqi_mod._require_valid(x, pol, v) for x, v in zip(instruments, verdicts)]

    def run(members):
        first = instruments[members[0]]
        spectra = gqi_mod._Supports.of([verdicts[i] for i in members])
        kraus = _kraus_stack(spectra, first.d1, first.d0, spectra.ranks)
        products = np.concatenate([_kraus_products(kraus[:, i, :r]) for i, r in enumerate(spectra.ranks)], axis=1)
        x = products.reshape(len(members), products.shape[1], -1)
        s = np.linalg.svd(x, compute_uv=False)
        return ((s > pol.rank_tol(*x.shape[1:], s[:, :1])).sum(axis=1) == x.shape[1]).tolist()

    return gqi_mod._grouped(
        [(x.signature, v.support_ranks) for x, v in zip(instruments, verdicts)],
        lambda key: 16 * len(key[1]) * key[0].total_dim ** 2,
        run,
    )


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

    The ranks are the Kraus counts, the support ranks of the
    :func:`gqi.is_valid_gqi` verdict: ``validation``, the caller's verdict on
    ``ins`` at ``pol`` when it has one."""
    ranks = gqi_mod._require_valid(ins, pol, validation).support_ranks
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


def classify_combinations(instruments, pol: TolerancePolicy = DEFAULT_TOL) -> list:
    """:func:`classify_combination` of every instrument, in stacked passes.
    A fault is named by :func:`gqi._first_fault` over the instruments: the
    first instrument whose own :func:`classify_combination` raises, its
    index leading that error."""
    instruments = list(instruments)
    return gqi_mod._first_fault(
        lambda members: _classify([instruments[i] for i in members], pol), range(len(instruments))
    )


def _classify(instruments: list, pol: TolerancePolicy) -> list:
    """The triples of the instruments from three stacked passes, in the
    order of the per-row chain: one validation pass of the instruments and
    the Kraus-product criterion on their verdicts, the same for their induced
    channels, then one decision pass of their induced POVMs."""
    instrument = _kraus_criterion(instruments, gqi_mod._validate_grouped(instruments, pol), pol)
    chans = [induced_channel(x) for x in instruments]
    channel = _kraus_criterion(chans, gqi_mod._validate_grouped(chans, pol), pol)
    povms = gqi_mod._decide_grouped([induced_povm(x) for x in instruments], pol)
    return [CombinationTriple(instrument=a, channel=b, povm=p.extremal) for a, b, p in zip(instrument, channel, povms)]


def classify_combination(ins: Instrument, pol: TolerancePolicy = DEFAULT_TOL) -> CombinationTriple:
    """Extremality of an instrument, its induced channel, and its induced
    POVM: the passes of :func:`classify_combinations` on ``ins`` alone,
    which raise the per-row chain's first error, with no index."""
    return _classify([ins], pol)[0]


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

    Row 5 (non-extremal instrument with extremal channel and POVM) is empty
    and has no fixture: when the induced channel is extremal, the instrument
    is extremal exactly when its environment POVM is, and a non-extremal
    environment POVM makes the induced POVM non-extremal (README, "The
    appendix table").
    """
    if k == 5:
        raise ValidationError(
            "combination 5 has no instrument: row 5 of the appendix table is empty, "
            "since an instrument whose induced channel and POVM are extremal is extremal"
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


# The random generators draw in two steps.  The draw consumes the rng: a
# complex Gaussian matrix, its real part first.  The build turns a stack of
# such Gaussians into objects with one stacked QR, and, for an instrument,
# one stacked eigh.  The generators here are the build of their own draw
# alone; :mod:`exqip.suites` builds the draws of a whole pass at once.


def _gaussian(rng, shape: tuple) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stinespring_gaussian(d0: int, d1: int, kraus_count: int, rng) -> np.ndarray:
    """The Gaussian (d1 n, d0) of a channel with n Kraus operators, n the
    count clamped up to ceil(d0/d1), the minimum for an isometry to exist."""
    return _gaussian(rng, (d1 * max(kraus_count, -(-d0 // d1)), d0))


def _unitaries(g: np.ndarray) -> np.ndarray:
    """The unitaries of a stack (K, d, d) of complex Gaussians: Q of one
    stacked QR, each column's phase fixed by the diagonal of R."""
    q, r = np.linalg.qr(g)
    phase = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phase / np.abs(phase))[..., None, :]


def _channel_chois(g: np.ndarray, d1: int) -> np.ndarray:
    """The Choi operators of the channels whose Stinespring isometries are
    Q of one stacked QR of Gaussians (K, d1 n, d0): Kraus operator m is rows
    m d1 to (m + 1) d1 of Q."""
    q = np.linalg.qr(g)[0]
    return kraus_to_choi(q.reshape(len(q), -1, d1, q.shape[-1]))


def _instrument_operators(g: np.ndarray, d1: int, outcome_kraus_counts) -> np.ndarray:
    """The operators (K, len(counts), d1 d0, d1 d0) of :func:`random_instrument`
    for a stack of Gaussians (K, d1 n, d0).  Each channel's Kraus stack, from
    one stacked ``eigh`` as :func:`channel_kraus` takes it, is cut into
    consecutive groups of ``counts``.  It is zero past the channel's rank,
    which may fall below sum(counts); a group that reaches past its D
    operators is cut short, since zero operators add nothing to a Choi
    operator."""
    eig = linalg.hermitian_eig(_channel_chois(g, d1), DEFAULT_TOL)
    kraus = _kraus_stack(eig, d1, g.shape[-1], DEFAULT_TOL.support(eig.values)[1])
    bounds = np.cumsum((0, *outcome_kraus_counts))
    return np.stack([kraus_to_choi(kraus[:, a:b]) for a, b in zip(bounds[:-1], bounds[1:])], axis=1)


def random_unitary(d: int, rng) -> np.ndarray:
    return _unitaries(_gaussian(rng, (d, d))[None])[0]


def random_channel(d0: int, d1: int, kraus_count: int, rng) -> Channel:
    """Random channel via a Haar-ish random Stinespring isometry.

    ``kraus_count`` is clamped up to ceil(d0/d1), the minimum for an isometry
    to exist."""
    choi = _channel_chois(_stinespring_gaussian(d0, d1, kraus_count, rng)[None], d1)[0]
    return Channel(d1=d1, d0=d0, choi=choi)


def random_instrument(d0: int, d1: int, outcome_kraus_counts, rng) -> Instrument:
    """Random instrument: random channel Kraus family partitioned per outcome."""
    g = _stinespring_gaussian(d0, d1, sum(outcome_kraus_counts), rng)
    return Instrument(d1=d1, d0=d0, operators=tuple(_instrument_operators(g[None], d1, outcome_kraus_counts)[0]))
