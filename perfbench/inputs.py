"""Benchmark inputs, built with numpy alone from a seed.

Nothing here imports exqip: every object the benchmark hands to the program
is constructed from its own Kraus operators and isometries, so a change to
the program's own generators cannot change what is measured.

Conventions follow the operator-file format of the program:

* ``|A>> = A.ravel()`` (row-major), so a Choi operator lives on
  H_out (x) H_in;
* a comb on spaces 0..2N-1 is an operator on H_{2N-1} (x) ... (x) H_0
  (space 0 is the last Kronecker factor) and its signature lists
  (d_0, ..., d_{2N-1});
* a tester lives on H_2 (x) H_1 and its file signature is [d_1, d_2].
"""

from __future__ import annotations

import json
import math

import numpy as np

LADDER = {
    "ladder-d4": (2, 2),
    "ladder-d16": (2, 2, 2, 2),
    "ladder-d36": (2, 3, 3, 2),
    "ladder-d64": (2, 2, 2, 2, 2, 2),
}

# Rows of the paper's appendix table: (instrument, channel, POVM) extremality.
# Row 5 is the open problem and has no fixture.
APPENDIX_TABLE = {
    1: ("+", "+", "+"),
    2: ("+", "+", "-"),
    3: ("+", "-", "+"),
    4: ("+", "-", "-"),
    6: ("-", "+", "-"),
    7: ("-", "-", "+"),
    8: ("-", "-", "-"),
}


def haar_unitary(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def isometry(d_in: int, d_out: int, rng) -> np.ndarray:
    """Random d_out x d_in matrix with orthonormal columns."""
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, _ = np.linalg.qr(g)
    return q


def kraus_to_choi(kraus) -> np.ndarray:
    vs = np.array([np.asarray(k, dtype=complex).ravel() for k in kraus])
    return vs.T @ vs.conj()


def network_comb(dims, rng, memory: int = 1, env: int = 1) -> np.ndarray:
    """Choi operator of a chain of random isometries with memory.

    Tooth k maps H_{2k} (x) A_k to H_{2k+1} (x) A_{k+1} (x) E_k; A_0 and A_N
    are trivial, every other memory has dimension ``memory`` and every
    environment E_k at least dimension ``env`` (traced out; enlarged where the
    tooth needs it to be an isometry).  The result satisfies the comb
    normalization cascade exactly up to rounding.
    """
    n = len(dims) // 2
    mems = [1] + [memory] * (n - 1) + [1]
    t = np.ones(1, dtype=complex)
    labels = [0]  # memory label of the open memory leg
    outs, ins, envs = [], [], []
    next_label = 1
    for k in range(n):
        d_in, d_out = dims[2 * k], dims[2 * k + 1]
        a_in, a_out = mems[k], mems[k + 1]
        e_dim = max(env, -(-(d_in * a_in) // (d_out * a_out)))
        v = isometry(d_in * a_in, d_out * a_out * e_dim, rng)
        v = v.reshape(d_out, a_out, e_dim, d_in, a_in)
        o, m, e, i = next_label, next_label + 1, next_label + 2, next_label + 3
        next_label += 4
        mem_in = labels[0]
        rest = labels[1:]
        t = np.einsum(v, [o, m, e, i, mem_in], t, labels, [m] + rest + [o, e, i])
        labels = [m] + rest + [o, e, i]
        outs.append(o)
        ins.append(i)
        envs.append(e)
    order = envs + [lab for k in reversed(range(n)) for lab in (outs[k], ins[k])]
    t = t.reshape(t.shape[1:])  # drop the trivial final memory leg
    labels = labels[1:]
    t = np.transpose(t, [labels.index(lab) for lab in order])
    total = math.prod(dims)
    w = t.reshape(-1, total)
    return w.T @ w.conj()


def central_comb(dims) -> np.ndarray:
    odd = math.prod(dims[1::2])
    return np.eye(math.prod(dims), dtype=complex) / odd


def minimal_comb(dims, rng) -> np.ndarray:
    """Extremal comb of least rank for the ladder signature.

    Where every tooth is square this is a product of unitary-channel Choi
    vectors (rank one).  A rank-one comb needs d_{2k+1} >= d_{2k} * (rank of
    the lower comb), which (2,3,3,2) violates, so there the last tooth is a
    channel with two Kraus operators built from a random isometry; the comb is
    then an extremal channel tensored with an isometry Choi vector.
    """
    n = len(dims) // 2
    op = np.ones((1, 1), dtype=complex)
    for k in range(n):
        d_in, d_out = dims[2 * k], dims[2 * k + 1]
        env = 1 if d_out >= d_in else -(-d_in // d_out)
        v = isometry(d_in, d_out * env, rng).reshape(d_out, env, d_in)
        kraus = [v[:, e, :] for e in range(env)]
        op = np.kron(kraus_to_choi(kraus), op)
    return op


def full_rank_comb(dims, rng) -> np.ndarray:
    """Half the central comb plus half a random memory network: full rank."""
    net = network_comb(dims, rng, memory=2, env=2)
    return 0.5 * central_comb(dims) + 0.5 * net


# Independent draws of each object kind per rung: the cost of the epsilon*
# search varies from draw to draw, so small rungs average over several.
LADDER_DRAWS = {4: 48, 16: 4, 36: 1, 64: 1}


def ladder_objects(dims, seed: int) -> list:
    """(name, outcomes, expected verdict, midpoint partner or None) for one
    ladder rung: per draw the midpoint of two minimal combs and, below
    D = 64, the first of those minimal combs and a two-outcome GQI whose
    outcomes are halves of two full-rank combs.  At D = 64 one verdict takes
    about 30 s, so only the midpoint, which runs every stage of a verdict,
    is decided there."""
    total = math.prod(dims)
    rng = np.random.default_rng([seed, total])
    objs = []
    for k in range(LADDER_DRAWS[total]):
        a = minimal_comb(dims, rng)
        b = minimal_comb(dims, rng)
        if total < 64:
            objs.append((f"minimal-comb-{k}", (a,), "extremal", None))
        objs.append((f"midpoint-{k}", (0.5 * a + 0.5 * b,), "not_extremal", (a, b)))
        if total < 64:
            ca = full_rank_comb(dims, rng)
            cb = full_rank_comb(dims, rng)
            objs.append((f"full-rank-gqi-{k}", (0.5 * ca, 0.5 * cb), "not_extremal", None))
    return objs


# ---------------------------------------------------------------------------
# Instruments, testers and the appendix combinations
# ---------------------------------------------------------------------------


def instrument_choi(outcome_kraus) -> tuple:
    return tuple(kraus_to_choi(ks) for ks in outcome_kraus)


def random_instrument(d: int, counts, rng) -> tuple:
    """Random d -> d instrument: a Stinespring isometry's Kraus operators
    partitioned into outcomes of the given sizes."""
    total = sum(counts)
    v = isometry(d, d * total, rng)
    ks = [v[m * d : (m + 1) * d, :] for m in range(total)]
    groups, pos = [], 0
    for c in counts:
        groups.append(ks[pos : pos + c])
        pos += c
    return instrument_choi(groups)


def schmidt_tester(angle: float, u2: np.ndarray, u1: np.ndarray) -> tuple:
    """{|phi><phi|/2, (I - |phi><phi|)/2}, phi = (u2 (x) u1)(cos a|00> + sin a|11>)."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = math.cos(angle)
    phi[3] = math.sin(angle)
    phi = np.kron(u2, u1) @ phi
    proj = np.outer(phi, phi.conj())
    return (proj / 2.0, (np.eye(4, dtype=complex) - proj) / 2.0)


def _sqrt_diag(values) -> np.ndarray:
    return np.diag(np.sqrt(np.asarray(values, dtype=float))).astype(complex)


def combination_kraus(k: int) -> tuple:
    """Kraus operators, one list per outcome, and (d_out, d_in) for row k."""
    ket0 = np.array([[1.0], [0.0]], dtype=complex)
    ket1 = np.array([[0.0], [1.0]], dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    if k == 1:
        return [[np.eye(2, dtype=complex)]], (2, 2)
    if k == 2:
        s0 = _sqrt_diag([1 / 3, 2 / 3])
        s1 = _sqrt_diag([2 / 3, 1 / 3])
        w = ket0 @ ket1.T - ket1 @ ket0.T
        plus = (ket0 + ket1) / math.sqrt(2.0)
        m0 = np.kron(s0, plus)
        m1 = (np.kron(s1, ket0) + np.kron(w @ s1, ket1)) / math.sqrt(2.0)
        return [[m0], [m1]], (4, 2)
    if k == 3:
        return [[p0], [p1]], (2, 2)
    if k == 4:
        return [[_sqrt_diag([1 / 3, 2 / 3])], [_sqrt_diag([2 / 3, 1 / 3])]], (2, 2)
    raise ValueError(f"row {k} is a mixture; use combination_choi")


def combination_choi(k: int) -> tuple:
    """Choi operators of the instrument for appendix row k, with (d_out, d_in).

    Rows 6-8 are midpoints of two instruments:
      6: amplitude damping (gamma = 1/2) Kraus pair {K1},{K2} and its swap {K2},{K1};
      7: Lueders {P0},{P1} and {X P0},{X P1};
      8: Lueders in the computational basis and in the Hadamard basis.
    """
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    if k in (1, 2, 3, 4):
        kraus, dims = combination_kraus(k)
        return instrument_choi(kraus), dims
    if k == 6:
        k1 = np.diag([1.0, math.sqrt(0.5)]).astype(complex)
        k2 = np.array([[0.0, math.sqrt(0.5)], [0.0, 0.0]], dtype=complex)
        a, b = instrument_choi([[k1], [k2]]), instrument_choi([[k2], [k1]])
    elif k == 7:
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        a, b = instrument_choi([[p0], [p1]]), instrument_choi([[x @ p0], [x @ p1]])
    elif k == 8:
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        a = instrument_choi([[p0], [p1]])
        b = instrument_choi([[h @ p0 @ h.conj().T], [h @ p1 @ h.conj().T]])
    else:
        raise ValueError(f"no fixture for row {k}")
    return tuple(0.5 * x + 0.5 * y for x, y in zip(a, b)), (2, 2)


def tree_inputs(seed: int) -> list:
    """(name, kind, file signature, outcomes, depth) for the trees workload."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for k, depth in ((6, 6), (7, 6), (8, 8)):
        ops, _ = combination_choi(k)
        out.append((f"combination-{k}", "instrument", [2, 2], ops, depth))
    u = [haar_unitary(2, rng) for _ in range(6)]
    out.append(("product-tester", "tester", [2, 2], schmidt_tester(0.0, u[0], u[1]), 6))
    ta = schmidt_tester(rng.uniform(0.2, math.pi / 4), u[2], u[3])
    tb = schmidt_tester(rng.uniform(0.2, math.pi / 4), u[4], u[5])
    out.append(
        ("midpoint-tester", "tester", [2, 2], tuple(0.5 * x + 0.5 * y for x, y in zip(ta, tb)), 6)
    )
    for d, counts, depth in ((2, (1, 2), 6), (3, (1, 3), 5)):
        a = random_instrument(d, counts, rng)
        b = random_instrument(d, counts, rng)
        ops = tuple(0.5 * x + 0.5 * y for x, y in zip(a, b))
        out.append((f"midpoint-instrument-d{d}", "instrument", [d, d], ops, depth))
    return out


def cli_gqi(seed: int) -> tuple:
    """The (2,2,2,2) two-outcome GQI used by the cold-process workloads."""
    dims = (2, 2, 2, 2)
    rng = np.random.default_rng([seed, 16, 2])
    return dims, (0.5 * full_rank_comb(dims, rng), 0.5 * full_rank_comb(dims, rng))


# ---------------------------------------------------------------------------
# Operator files
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def json_to_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def write_operator_file(path, kind: str, signature, outcomes, metadata=None) -> None:
    payload = {
        "format": "exqip-operator-file",
        "version": 1,
        "kind": kind,
        "signature": [int(d) for d in signature],
        "outcomes": [matrix_to_json(t) for t in outcomes],
        "metadata": dict(metadata or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_operator_file(path) -> tuple:
    """(kind, signature, outcomes, metadata) from an operator file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    outcomes = tuple(json_to_matrix(m) for m in payload["outcomes"])
    return payload["kind"], list(payload["signature"]), outcomes, payload.get("metadata", {})
