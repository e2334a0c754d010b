"""What several test modules share: the populations they decide, the
builders of their inputs, the golden fixtures and the assertion helpers.

A population is rebuilt on every call from fixed seeds, so that each test
decides its own copy.  The benchmark's modules (``perfbench/inputs.py``,
``perfbench/checker.py``) are loaded from their files under names of their
own, since they import no exqip and tier-1 puts ``perfbench`` on
``sys.path`` beside ``tests``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import exqip
from exqip import channels, cli, combs, fileio, gqi, linalg, suites, testers
from exqip.combs import CombSignature
from exqip.gqi import Gqi

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# The benchmark's inputs
# ---------------------------------------------------------------------------


def perfbench_module(name):
    """The benchmark's module ``perfbench/NAME.py``, which imports no exqip."""
    path = os.path.join(HERE, os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = perfbench_module("inputs")
TREE_NAMES = [name for name, *_ in BENCH.tree_inputs(1)]


def bench_ladder(seed):
    """Every object of every rung of the benchmark's ladder at ``seed``."""
    return [
        Gqi(CombSignature(dims), ops)
        for dims in BENCH.LADDER.values()
        for _, ops, _, _ in BENCH.ladder_objects(dims, seed)
    ]


def bench_tree(seed, name, tmp_path):
    """The path and depth of the benchmark's ``trees`` input ``name``,
    written into ``tmp_path``."""
    for tree, kind, signature, ops, depth in BENCH.tree_inputs(seed):
        if tree == name:
            path = str(tmp_path / f"{name}.json")
            BENCH.write_operator_file(path, kind, signature, ops)
            return path, depth
    raise KeyError(name)


def bench_tree_roots(seed):
    """The roots of the benchmark's ``trees`` workload, read as the CLI reads them."""
    out = []
    for _, kind, signature, ops, _ in BENCH.tree_inputs(seed):
        obj = fileio.payload_to_object(
            {
                "format": "exqip-operator-file",
                "version": 1,
                "kind": kind,
                "signature": signature,
                "outcomes": [BENCH.matrix_to_json(t) for t in ops],
            }
        )
        out.append(Gqi(obj.signature, obj.outcomes))
    return out


def tree_nodes(seed):
    """The ``trees`` roots of ``seed``, their children and grandchildren."""
    out, level = [], bench_tree_roots(seed)
    for _ in range(3):
        out += level
        level = [
            child
            for g in level
            if not (cert := gqi.is_extremal(g)).extremal
            for child in gqi.decompose_step(g, certificate=cert)
        ]
    return out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def product_comb(sig, rng):
    """Rank-one comb of independent unitary teeth (every tooth square)."""
    op = np.eye(1, dtype=complex)
    for n in range(sig.n):
        v = channels.random_unitary(sig.dims[2 * n], rng).ravel()
        op = np.kron(np.outer(v, v.conj()), op)
    return op


def ladder_inputs(dims, rng):
    """A rank-one comb, the midpoint of two, and a full-rank two-outcome GQI."""
    sig = CombSignature(dims)
    a, b = product_comb(sig, rng), product_comb(sig, rng)
    full = combs.random_deterministic_comb(sig, seed=rng.integers(1 << 30), spread=0.5)
    other = combs.random_deterministic_comb(sig, seed=rng.integers(1 << 30), spread=0.5)
    return [
        Gqi(signature=sig, outcomes=(a,)),
        Gqi(signature=sig, outcomes=((a + b) / 2.0,)),
        Gqi(signature=sig, outcomes=(full.operator / 2.0, other.operator / 2.0)),
    ]


def random_povm(rng, d, m):
    """m effects: a random projective measurement coarse-grained or mixed."""
    u = channels.random_unitary(d, rng)
    labels = rng.integers(0, m, size=d)
    effects = []
    for i in range(m):
        cols = u[:, labels == i]
        effects.append(cols @ cols.conj().T)
    if rng.random() < 0.5:
        mix = rng.random()
        effects = [mix * e + (1.0 - mix) * np.eye(d) / m for e in effects]
    return effects


def measure_and_prepare(rng, d0, d1):
    """N_i = rho_i (x) |u_i><u_i|^T over an orthonormal basis u_i of the
    input, with full-rank output states rho_i.

    The projected rows of each outcome have rank 1, so the head is deficient
    and the rank comes from the full stack."""
    u = channels.random_unitary(d0, rng)
    return Gqi(
        CombSignature((d0, d1)),
        tuple(
            np.kron(suites.random_full_rank_state(d1, rng), np.outer(u[:, i], u[:, i].conj()).T)
            for i in range(d0)
        ),
    )


def split_comb(sig, rng):
    """Two outcomes sum_k a_k P_k and sum_k (lambda_k - a_k) P_k of a full-rank
    comb C = sum_k lambda_k P_k, with a_0 = 0 and a_1 = lambda_1.

    Each outcome misses one eigenvector of C, so neither has full support,
    while their 2 (D - 1)^2 rows outnumber the span D^2 - |V|: the rank is
    decided on the head."""
    w, v = np.linalg.eigh(combs.random_deterministic_comb(sig, seed=rng, spread=0.5).operator)
    a = w * rng.uniform(0.2, 0.8, w.size)
    a[0], a[1] = 0.0, w[1]
    return Gqi(sig, tuple((v * x) @ v.conj().T for x in (a, w - a)))


def full_rank_split(sig, weights, rng, spread):
    """Outcomes w_i C_i of random full-rank combs C_i.  With three weights
    the third outcome is only a rank-deficient part b P C_3 P of w_3 C_3,
    whose rest joins the second, so that exactly two outcomes have full
    support."""
    c = [combs.random_deterministic_comb(sig, seed=rng, spread=spread).operator for _ in weights]
    ops = [w * x for w, x in zip(weights, c)]
    if len(ops) == 3:
        u = channels.random_unitary(sig.total_dim, rng)[:, : sig.total_dim // 2]
        part = u @ u.conj().T @ c[2] @ u @ u.conj().T
        lam = np.linalg.eigvalsh(c[2])
        cut = 0.5 * weights[2] * lam[0] / lam[-1]
        ops[1], ops[2] = ops[1] + ops[2] - cut * part, cut * part
    return Gqi(sig, tuple(ops))


def drawn_object(seed, kind, d, n_outcomes, n_tiny):
    """A POVM on C^d or an instrument C^d -> C^2 with ``n_outcomes``
    outcomes, the first ``n_tiny`` of them (all but one at most) scaled down
    by 1e-3 to 1e-12 before normalization.  The last outcome is an isometry,
    so the sum it normalizes by is at least the identity and well
    conditioned, and the object is valid at eps_rel = 1e-12 too."""
    rng = np.random.default_rng(seed)
    d_out = 1 if kind == "povm" else 2
    ops = []
    for x in range(n_outcomes):
        rank = -(-d // d_out) if x == n_outcomes - 1 else int(rng.integers(1, -(-d // d_out) + 1))
        g = rng.standard_normal((d_out * rank, d)) + 1j * rng.standard_normal((d_out * rank, d))
        if x == n_outcomes - 1:
            g = np.linalg.qr(g)[0]
        scale = 10.0 ** -rng.uniform(3.0, 12.0) if x < min(n_tiny, n_outcomes - 1) else 1.0
        ops.append(scale * g)
    s = sum(g.conj().T @ g for g in ops)
    w, v = np.linalg.eigh(s)
    root = (v / np.sqrt(w)) @ v.conj().T
    if kind == "povm":
        effects = [root @ (g.conj().T @ g) @ root for g in ops]
        return gqi.Povm(d=d, effects=tuple((e + e.conj().T) / 2 for e in effects))
    kraus = [[g[r : r + 2] @ root for r in range(0, len(g), 2)] for g in ops]
    return channels.instrument_from_kraus(kraus, d1=2, d0=d)


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------


def ladder_population():
    """Non-extremal GQIs of the signature ladder: midpoints of two comb
    draws, and two-outcome GQIs whose outcomes are halves of two combs."""
    out = []
    for dims, draws in (((2, 2), 12), ((2, 2, 2, 2), 3), ((2, 3, 3, 2), 1)):
        sig = CombSignature(dims)
        square = all(dims[2 * n] == dims[2 * n + 1] for n in range(sig.n))
        rng = np.random.default_rng([sig.total_dim, 4])
        for _ in range(draws):
            if square:
                a, b = product_comb(sig, rng), product_comb(sig, rng)
            else:
                a = combs.random_deterministic_comb(sig, rng, spread=1.0).operator
                b = combs.random_deterministic_comb(sig, rng, spread=1.0).operator
            out.append(Gqi(signature=sig, outcomes=(0.5 * (a + b),)))
            c = combs.random_deterministic_comb(sig, rng, spread=0.9).operator
            e = combs.random_deterministic_comb(sig, rng, spread=0.9).operator
            out.append(Gqi(signature=sig, outcomes=(0.5 * c, 0.5 * e)))
    return out


def acceptance_07_population():
    return [suites.random_nonextremal_gqi(np.random.default_rng(70_000 + s)) for s in range(50)]


def identity_exchange_population():
    """GQIs with M = 2 and 3 and two full-support outcomes, from (3,1) to
    (2,3,3,2), and two written out: a binding outcome whose lambda_max stays
    above 1 after the step, and POVM halves, whose lambda_max is below 1."""
    out = []
    for dims in ((3, 1), (2, 2), (2, 2, 2, 2), (2, 3, 3, 2)):
        sig = CombSignature(dims)
        rng = np.random.default_rng([sig.total_dim, 13])
        for m in (2, 3):
            for spread in (0.3, 0.7):
                out.append(full_rank_split(sig, rng.dirichlet(np.ones(m)), rng, spread))
    phi = np.eye(2).ravel()
    near_identity = 0.95 * np.outer(phi, phi) + 0.05 * np.eye(4) / 2
    out.append(Gqi(CombSignature((2, 2)), (0.8 * near_identity, 0.2 * np.eye(4) / 2)))
    out.append(Gqi(CombSignature((2, 1)), (np.eye(2) / 2, np.eye(2) / 2)))
    return out


def fallback_population():
    rng = np.random.default_rng(11)
    return [measure_and_prepare(rng, d0, d1) for d0, d1 in ((2, 2), (2, 3), (3, 2))]


def mixed_population():
    """Several signatures and support-rank tuples, each group of several
    members: full-support and identity-exchange exits, head-first exits, the
    fallback, extremal and dependent members."""
    rng = np.random.default_rng(21)
    out = []
    out += [split_comb(CombSignature((2, 2)), rng) for _ in range(3)]
    out += fallback_population() + fallback_population()
    out += identity_exchange_population()[:4]
    for seed in range(4):
        out += [g for g in bench_ladder(seed + 1) if g.signature.total_dim <= 16]
    for seed in range(6):
        r = np.random.default_rng(4000 + seed)
        out.append(suites.random_rank22_qubit_tester(r, nonextremal=bool(seed % 2)))
        out.append(channels.random_instrument(2, 2, (1, 1), r))
    # A full-support outcome beside one of rank 2: the projector exchange.
    for seed in range(3):
        u = channels.random_unitary(4, np.random.default_rng(50 + seed))[:, :2]
        x = 0.5 * u @ u.conj().T
        out.append(Gqi(CombSignature((1, 2, 2, 1)), (np.eye(4) / 2 - x / 2, x / 2)))
    order = np.random.default_rng(5).permutation(len(out))
    return [out[i] for i in order]


def suite_channels(seeds=200):
    """The channels the equivalence suite draws at seeds 0 to ``seeds`` - 1."""
    out = []
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        for d0, d1 in suites.EQUIVALENCE_DIMS:
            out.append(channels.random_channel(d0, d1, int(rng.integers(-(-d0 // d1), d0 * d1 + 1)), rng))
    return out


def suite_testers(seeds=200, xi=False, interleaved=True):
    """The testers the xi-invariance and bounds suites draw at seeds 0 to
    ``seeds`` - 1: per seed, xi-invariance's tester, followed by its xi
    transform when ``xi``, and bounds' three.  ``interleaved`` takes one
    seed of each suite at a time; otherwise every xi-invariance seed comes
    first."""
    first, last = [], []
    for seed in range(seeds):
        rng = np.random.default_rng(2000 + seed)
        t = (suites.random_extremal_qubit_tester if seed % 2 == 0 else suites.random_nonextremal_qubit_tester)(rng)
        first.append(t)
        if xi:
            rho = suites.random_full_rank_state(2, rng)
            first.append(testers.xi_transform(t, rho, channels.random_unitary(2, rng)))
        rng = np.random.default_rng(3000 + seed)
        (first if interleaved else last).extend(
            [
                suites.random_extremal_qubit_tester(rng),
                suites.random_nonextremal_qubit_tester(rng),
                suites.random_rank22_qubit_tester(rng, nonextremal=bool(rng.integers(0, 2))),
            ]
        )
    return first + last


# ---------------------------------------------------------------------------
# The golden fixtures
# ---------------------------------------------------------------------------

GOLDEN = os.path.join(HERE, "golden_cli")
# The operator files, in the order of their file names.
GOLDEN_NAMES = [name[: -len(".json")] for name in sorted(os.listdir(GOLDEN)) if name != "expected.json"]
# Testers on a pure normalization rho = |phi><phi| (d1 = 2, r = 1).
RANK_DEFICIENT = {"pure-normalization-tester", "pure-normalization-tester-mixed"}

with open(os.path.join(GOLDEN, "expected.json"), encoding="utf-8") as _fh:
    # The `exqip validate` and `exqip extremal` exit code and JSON of each fixture.
    EXPECTED = json.load(_fh)

with open(os.path.join(HERE, "golden_decompose.json"), encoding="utf-8") as _fh:
    # `exqip decompose FIXTURE --steps 4` on the not-extremal golden fixtures:
    # the summary and the SHA-256 of each leaf file.  The mixed tester on a
    # rank-deficient rho is left out: its null space has dimension 4, so the
    # LAPACK build picks its witness (tests/test_kinds.py).
    GOLDEN_TREES = json.load(_fh)


def fixture_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def golden(name):
    """The golden fixture ``name``, as ``fileio`` reads it."""
    return fileio.load_object(fixture_path(name))


def golden_objects():
    return [golden(name) for name in GOLDEN_NAMES]


def golden_payload(name):
    """The JSON payload of the golden fixture ``name``."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def assert_matches_golden(name, command, code, out):
    """`exqip COMMAND` on the fixture ``name`` exited with ``code`` and
    printed ``out`` as recorded, except epsilon*: within 1e-12 relative,
    and only positive for the mixed tester on a rank-deficient rho.  Its
    null space has dimension 4, so the LAPACK build decides which null
    vector the SVD returns, and so which (sound) witness and epsilon*."""
    want = EXPECTED[name][command]
    assert code == want["exit"]
    got, want = json.loads(out), dict(want["stdout"])
    if command == "extremal":
        eps, want_eps = got.pop("epsilon_star"), want.pop("epsilon_star")
        assert (eps is None) == (want_eps is None)
        if name in RANK_DEFICIENT:
            assert eps is None or eps > 0.0
        elif eps is not None:
            assert abs(eps - want_eps) <= 1e-12 * abs(want_eps)
    assert got == want


def tree_files(out_dir) -> dict:
    if not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def golden_tree_argv(name, out_dir) -> list:
    return ["decompose", fixture_path(name), "--steps", "4", "--out", str(out_dir)]


def assert_golden_tree(name, code, out, err, out_dir):
    """The tree of ``golden_tree_argv(name, out_dir)``, its summary, stdout
    and every leaf, is the recorded one to the byte."""
    assert (code, err) == (0, "")
    want = GOLDEN_TREES[name]
    assert json.loads(out) == want["summary"]
    files = tree_files(out_dir)
    assert files.pop("summary.json").decode() == out
    assert {leaf: hashlib.sha256(data).hexdigest() for leaf, data in files.items()} == want["leaf_sha256"]


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_certificate(a, b):
    assert (a.extremal, a.family_size, a.rank, a.support_ranks) == (b.extremal, b.family_size, b.rank, b.support_ranks)
    assert (a.normalization_basis_size, a.margin) == (b.normalization_basis_size, b.margin)
    assert (a.perturbation is None) == (b.perturbation is None)
    if a.perturbation is not None:
        assert all(same_bits(x, y) for x, y in zip(a.perturbation.directions, b.perturbation.directions, strict=True))
        assert same_bits(a.perturbation.delta, b.perturbation.delta)
        assert a.perturbation.epsilon_star == b.perturbation.epsilon_star


def assert_same_verdict(a, b):
    assert a == b
    assert all(same_bits(x, y) for x, y in zip(a.comb_verdict.reduced, b.comb_verdict.reduced, strict=True))
    assert same_bits(a.spectra.values, b.spectra.values) and same_bits(a.spectra.vectors, b.spectra.vectors)


def validation_calls(record):
    """The comb cascade, ``partial_trace``, ``check_hermitian_stack``,
    ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` calls, in one log of the
    ``record`` fixture."""
    calls = record(combs, "_cascade")
    record(linalg, "partial_trace", "check_hermitian_stack", log=calls)
    return record(np.linalg, "eigh", "eigvalsh", log=calls)


def shapes(calls, name):
    """The shape of the first argument of each call of ``name`` in ``calls``."""
    return [np.shape(c.args[0]) for c in calls if c.name == name]


# ---------------------------------------------------------------------------
# The command line, in this process and in a fresh one
# ---------------------------------------------------------------------------


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main`` on ``argv``, each argument
    as a string."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# The directory that holds the exqip under test: the checkout's src, or
# site-packages when the tests run against the installed package.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(exqip.__file__)))
# The console script, when one is on PATH.
EXQIP = shutil.which("exqip")


def package_env(**extra) -> dict:
    """The environment of a fresh process that imports the exqip under test:
    ``PACKAGE_PARENT`` leads PYTHONPATH, and ``extra`` is set too."""
    path = os.pathsep.join(filter(None, [PACKAGE_PARENT, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_exqip(*argv, **env) -> subprocess.CompletedProcess:
    """`exqip ARGV` in a fresh process, with ``package_env(**env)``: the
    console script on PATH when there is one, as after ``pip install``, and
    ``python -m exqip.cli`` otherwise.  stdout and stderr are text."""
    command = [EXQIP] if EXQIP else [sys.executable, "-m", "exqip.cli"]
    return subprocess.run([*command, *argv], capture_output=True, text=True, env=package_env(**env), timeout=300)
