#!/usr/bin/env python3
"""Extremality benchmark for exqip, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md for the exact inputs):

* ``ladder-d4``, ``ladder-d16``, ``ladder-d36``, ``ladder-d64``: in-process
  ``exqip.is_extremal`` verdicts at one rung of the signature ladder;
* ``trees``: ``exqip decompose`` through ``exqip.cli.main``, in-process;
* ``suites``: the four ``exqip suite`` commands through ``exqip.cli.main``;
* ``cli-cold``: fresh ``exqip validate`` and ``exqip extremal`` processes.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, which repeats the untraced rounds under the span wrappers of
``tracer.py``.  Every output of the program is checked by ``checker.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

_t_main = time.perf_counter()

# One BLAS thread for this process and every child.  With the 2-thread
# default on a 2-core host, small-matrix verdicts ran in one of two speeds
# per process (2.6 or 4.1 ms on the same input), which no median removes.
BLAS_DEFAULTS = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
for _var in BLAS_DEFAULTS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Verdicts per object per round at each rung (total dimension -> repeats).
LADDER_REPEATS = {4: 1, 16: 2, 36: 1, 64: 1}
# Suite seed counts; appendix-c has a fixed population.
SUITE_SEEDS = (("equivalence", 40), ("xi-invariance", 40), ("bounds", 40), ("appendix-c", 0))
# Child processes that repeat the set-up, so that setup_s is a median of five.
SETUP_CHILDREN = 4
# Rounds repeated under the tracer (at most as many as the untraced run made).
TRACED_ROUNDS = 3
# Samples of bare interpreter start and of a fresh `import exqip.cli`.
IMPORT_SAMPLES = 5

WORKLOADS = (
    "ladder-d4",
    "ladder-d16",
    "ladder-d36",
    "ladder-d64",
    "trees",
    "suites",
    "cli-cold",
)


class OpFailed(Exception):
    """The program raised or exited non-zero on a benchmark operation."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_timed_process(cmd, stdout_path, stderr_path):
    """Run a child to completion; return (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


@contextlib.contextmanager
def _captured():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


# ---------------------------------------------------------------------------
# Workloads.  ops() yields (name, op); op() runs the program once and returns
# (seconds, work units, check) where check() verifies the output afterwards.
# ---------------------------------------------------------------------------


class Workload:
    reference = "compute"

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.child_spans = []

    def setup(self) -> None:
        raise NotImplementedError

    def check_inputs(self) -> None:
        """Independent checks of the inputs themselves (not timed)."""

    def ops(self):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ladder(Workload):
    def setup(self) -> None:
        import numpy as np

        import exqip
        import inputs

        self.np = np
        self.exqip = exqip
        self.dims = inputs.LADDER[self.name]
        if np.prod(self.dims) >= 36:
            self.reference = "svd"
        self.objects = [
            (name, exqip.Gqi(signature=exqip.CombSignature(self.dims), outcomes=outs), outs, expect, pair)
            for name, outs, expect, pair in inputs.ladder_objects(self.dims, self.seed)
        ]
        # Warm-up: one verdict at (2,2,2,2) (first BLAS use, first calls of each path).
        warm = inputs.minimal_comb((2, 2, 2, 2), np.random.default_rng([self.seed, 0]))
        exqip.is_extremal(exqip.Gqi(signature=exqip.CombSignature((2, 2, 2, 2)), outcomes=(warm,)))

    def check_inputs(self) -> None:
        import checker

        for name, _, outs, expect, pair in self.objects:
            checker.check_valid(outs, self.dims, f"input {name}")
            if expect == "extremal":
                checker.require(
                    checker.kraus_product_extremal([checker.comb_channel_kraus(outs[0], self.dims)]),
                    f"input {name} fails the Kraus-product criterion",
                )
            if pair is not None:
                a, b = pair
                checker.check_valid((a,), self.dims, f"input {name} first end")
                checker.check_valid((b,), self.dims, f"input {name} second end")
                checker.require(float(self.np.abs(a - b).max()) > 1e-6, f"input {name}: identical ends")

    def ops(self):
        import checker

        repeats = LADDER_REPEATS[int(self.np.prod(self.dims))]
        for name, g, outs, expect, _ in self.objects:
            for _ in range(repeats):

                def op(g=g, outs=outs, expect=expect, name=name):
                    start = time.perf_counter()
                    cert = self.exqip.is_extremal(g)
                    seconds = time.perf_counter() - start
                    pert = cert.perturbation
                    data = {
                        "verdict": cert.verdict,
                        "family_size": cert.family_size,
                        "support_ranks": list(cert.support_ranks),
                        "normalization_basis_size": cert.normalization_basis_size,
                        "directions": None if pert is None else pert.directions,
                        "epsilon_star": None if pert is None else pert.epsilon_star,
                    }
                    return seconds, 1, lambda: checker.check_certificate(outs, self.dims, data, expect, name)

                yield name, op


class Trees(Workload):
    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        # Nodes that needed a verdict: inner nodes and leaves found extremal
        # (leaves at the depth limit are never decided).
        self.decided = 0

    def setup(self) -> None:
        import exqip.cli

        import inputs

        self.exqip = exqip
        self.inputs = inputs
        self.trees = []
        os.makedirs(os.path.join(self.workdir, "inputs"), exist_ok=True)
        for name, kind, sig, outs, depth in inputs.tree_inputs(self.seed):
            path = os.path.join(self.workdir, "inputs", f"{name}.json")
            inputs.write_operator_file(path, kind, sig, outs)
            self.trees.append((name, kind, sig, outs, depth, path))
        # Warm-up: a one-step tree of the first input.
        with _captured():
            exqip.cli.main(["decompose", self.trees[0][5], "--steps", "1", "--out", os.path.join(self.workdir, "warm")])

    def check_inputs(self) -> None:
        import checker

        for name, kind, sig, outs, _, _ in self.trees:
            checker.check_valid(outs, checker.comb_dims(kind, sig), f"input {name}")

    def ops(self):
        import checker

        for name, kind, sig, outs, depth, path in self.trees:

            def op(name=name, kind=kind, sig=sig, outs=outs, depth=depth, path=path):
                out_dir = os.path.join(self.workdir, "trees", name)
                shutil.rmtree(out_dir, ignore_errors=True)
                argv = ["decompose", path, "--steps", str(depth), "--out", out_dir]
                with _captured() as (_, err):
                    start = time.perf_counter()
                    code = self.exqip.cli.main(argv)
                    seconds = time.perf_counter() - start
                if code != 0:
                    raise OpFailed(f"decompose {name} exited {code}: {err.getvalue().strip()}")
                with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                nodes = 2 * len(summary["leaves"]) - 1
                extremal = sum(e["status"] == "extremal" for e in summary["leaves"])
                self.decided += len(summary["leaves"]) - 1 + extremal

                def check():
                    leaves = [
                        self.inputs.read_operator_file(os.path.join(out_dir, e["file"]))[:3]
                        for e in summary["leaves"]
                    ]
                    dims = checker.comb_dims(kind, sig)
                    checker.check_tree(outs, dims, kind, summary, leaves, f"tree {name}")

                return seconds, nodes, check

            yield name, op


class Suites(Workload):
    def setup(self) -> None:
        import exqip.cli

        self.exqip = exqip
        # Warm-up: one seed of each seeded suite.
        with _captured():
            for name, seeds in SUITE_SEEDS:
                if seeds:
                    exqip.cli.main(["suite", name, "--seeds", "1"])

    def check_inputs(self) -> None:
        """The program's rank test must reproduce the paper's appendix table on
        the benchmark's own fixtures, and so must the checker's criteria."""
        import checker
        import inputs

        exqip = self.exqip
        for k, expected in sorted(inputs.APPENDIX_TABLE.items()):
            ops, (d_out, d_in) = inputs.combination_choi(k)
            own = checker.appendix_signs(ops, d_out, d_in)
            checker.require(own == expected, f"appendix row {k}: checker gives {own}, paper {expected}")
            effects = tuple(checker.partial_trace(n, (d_out, d_in), {0}).T for n in ops)
            views = [
                ((d_in, d_out), tuple(ops)),
                ((d_in, d_out), (sum(ops),)),
                ((d_in, 1), effects),
            ]
            got = tuple(
                "+" if exqip.is_extremal(exqip.Gqi(signature=exqip.CombSignature(sig), outcomes=outs)).extremal else "-"
                for sig, outs in views
            )
            checker.require(got == expected, f"appendix row {k}: program gives {got}, paper {expected}")

    def ops(self):
        import checker

        for name, seeds in SUITE_SEEDS:

            def op(name=name, seeds=seeds):
                argv = ["suite", name] + (["--seeds", str(seeds)] if seeds else [])
                with _captured() as (out, err):
                    start = time.perf_counter()
                    code = self.exqip.cli.main(argv)
                    seconds = time.perf_counter() - start
                if code != 0:
                    raise OpFailed(f"suite {name} exited {code}: {err.getvalue().strip()}")
                report = json.loads(out.getvalue())
                return seconds, report["total"], lambda: checker.check_suite(name, seeds, report)

            yield name, op


class Cli(Workload):
    reference = "process"
    commands = ("validate", "extremal")

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        self.peak_kib = 0

    def setup(self) -> None:
        import inputs

        self.inputs = inputs
        self.dims, self.outcomes = inputs.cli_gqi(self.seed)
        self.path = os.path.join(self.workdir, "gqi.json")
        inputs.write_operator_file(self.path, "gqi", self.dims, self.outcomes)
        self.cert_path = os.path.join(self.workdir, "certificate.json")
        # Warm-up: one untimed process per command (byte-code cache, page cache).
        for command in self.commands:
            self._run(command, ["-m", "exqip.cli"])

    def check_inputs(self) -> None:
        import checker

        checker.check_valid(self.outcomes, self.dims, "input gqi")

    def _run(self, command, prefix):
        args = ["validate", self.path] if command == "validate" else ["extremal", self.path, "--certificate", self.cert_path]
        stdout = os.path.join(self.workdir, "stdout.txt")
        stderr = os.path.join(self.workdir, "stderr.txt")
        seconds, code, peak = _run_timed_process([sys.executable] + prefix + args, stdout, stderr)
        with open(stdout, encoding="utf-8") as fh:
            text = fh.read()
        if code != 0:
            with open(stderr, encoding="utf-8") as fh:
                raise OpFailed(f"exqip {command} exited {code}: {fh.read().strip()}")
        return seconds, text, peak

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024.0

    def ops(self):
        for command in self.commands:

            def op(command=command):
                if self.tracer is None:
                    prefix = ["-m", "exqip.cli"]
                else:
                    spans = os.path.join(self.workdir, "spans.jsonl")
                    prefix = [os.path.join(HERE, "launch.py"), spans, "--"]
                if os.path.exists(self.cert_path):
                    os.remove(self.cert_path)
                seconds, text, peak = self._run(command, prefix)
                self.peak_kib = max(self.peak_kib, peak)
                if self.tracer is not None:
                    import tracer as tracer_mod

                    group = tracer_mod.read_spans(spans)
                    for rec in group:
                        rec[tracer_mod.OP] = self.tracer.op
                    self.child_spans.append(group)
                report = json.loads(text)
                return seconds, 1, lambda: self._check(command, report)

            yield command, op

    def _check(self, command, report) -> None:
        import checker

        if command == "validate":
            checker.require(report["valid"] is True, f"validate says invalid: {report}")
            checker.require(report["kind"] == "gqi" and report["outcomes"] == 2, f"validate report {report}")
            checker.require(list(report["signature"]) == list(self.dims), f"validate signature {report['signature']}")
            return
        with open(self.cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        checker.require(cert["verdict"] == report["verdict"], "certificate and report disagree")
        checker.require(cert["family_size"] == report["family_size"], "certificate and report disagree")
        pert = cert["perturbation"]
        data = dict(cert)
        if pert is not None:
            data["directions"] = [self.inputs.json_to_matrix(d) for d in pert["directions"]]
            data["epsilon_star"] = pert["epsilon_star"]
        checker.check_certificate(self.outcomes, self.dims, data, "not_extremal", "cli certificate")


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    if name.startswith("ladder-"):
        return Ladder(name, seed, workdir)
    return {"trees": Trees, "suites": Suites, "cli-cold": Cli}[name](name, seed, workdir)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Reference:
    """A fixed piece of work of the benchmark's own, timed between operations.

    The host's speed drifts by up to 40% over tens of seconds, and not by the
    same share for every kind of work, so operation times are reported
    divided by the latest time of a reference that resembles what dominates
    the workload:

    * ``compute``: four times over, 40 Hermitian 8x8 eigenvalue problems, an
      SVD of a 160x96 matrix and a 10 000-step Python loop (about 16 ms),
      timed at most every 0.5 s;
    * ``svd``: the median of five SVDs with full matrices of a 1000x800
      matrix (about 0.45 s each), timed before every operation and once
      after the last.  Each operation is divided by the mean of the
      timings just before and just after it.  A single SVD jitters by up to
      50% from one call to the next, which a 30 s verdict at D = 64 averages
      out and one 0.45 s sample does not;
    * ``process``: a fresh interpreter that imports numpy, timed before every
      operation.

    Operations never run while the reference does.  ``measure`` records the
    index of the sample each operation is divided by.
    """

    EVERY_S = {"compute": 0.5, "svd": 0.0, "process": 0.0}

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(20110125)
        self.np = np
        self.kind = kind
        if kind == "compute":
            g = rng.standard_normal((40, 8, 8)) + 1j * rng.standard_normal((40, 8, 8))
            self.herm = g + g.conj().transpose(0, 2, 1)
            self.matrix = rng.standard_normal((160, 96))
        elif kind == "svd":
            self.matrix = rng.standard_normal((1000, 800))
        self.at = None
        self.samples = []

    def _time(self) -> float:
        np = self.np
        start = time.perf_counter()
        if self.kind == "process":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=_child_env(), cwd=ROOT)
        elif self.kind == "svd":
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                np.linalg.svd(self.matrix)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)
        else:
            for _ in range(4):
                for h in self.herm:
                    np.linalg.eigvalsh(h)
                np.linalg.svd(self.matrix)
                acc = 0.0
                for i in range(10000):
                    acc += (i % 7) * 0.5
        return time.perf_counter() - start

    def current(self) -> float:
        """The latest reference time, timed afresh once its interval has passed."""
        if self.at is None or time.perf_counter() - self.at >= self.EVERY_S[self.kind]:
            self.samples.append(self._time())
            self.at = time.perf_counter()
        return self.samples[-1]


class Measurement:
    def __init__(self):
        self.samples = []  # (operation name, seconds, units, reference seconds)
        self.reference_s = []  # reference timings between operations
        self.round_seconds = []  # program time per round
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def correct(self) -> bool:
        return not any(kind == "check" for kind, _ in self.problems)


def measure(w: Workload, seconds: float | None, rounds: int | None = None) -> Measurement:
    """Run whole rounds until ``seconds`` have passed (at least one round), or
    exactly ``rounds`` rounds."""
    import checker

    m = Measurement()
    ref = Reference(w.reference)
    start = time.perf_counter()
    r = 0
    while True:
        program = 0.0
        for name, op in w.ops():
            m.attempted += 1
            if w.tracer is not None:
                w.tracer.op = f"{r}:{name}"
            ref.current()
            ref_i = len(ref.samples) - 1
            try:
                secs, units, check = op()
            except Exception as exc:  # a failing operation is counted, not fatal
                m.failed += 1
                m.problems.append(("failed", f"{name}: {type(exc).__name__}: {exc}"))
                traceback.print_exc(file=sys.stderr)
                continue
            program += secs
            m.samples.append((name, secs, units, ref_i))
            try:
                check()
            except checker.CheckError as exc:
                m.problems.append(("check", f"{name}: {exc}"))
        m.round_seconds.append(program)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if ref.kind == "svd":
        ref.samples.append(ref._time())
        m.samples = [(n, s, u, 0.5 * (ref.samples[i] + ref.samples[i + 1])) for n, s, u, i in m.samples]
    else:
        m.samples = [(n, s, u, ref.samples[i]) for n, s, u, i in m.samples]
    m.reference_s = ref.samples
    return m


def run_setup(w: Workload) -> float:
    """Imports, input construction and warm-up, timed from process start."""
    import numpy  # noqa: F401  (counted in set-up)

    sys.path.insert(0, SRC)
    import exqip  # noqa: F401

    w.setup()
    return time.perf_counter() - _t_main


def child_setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import platform

    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "blas_thread_env_before": {k: v for k, v in BLAS_DEFAULTS.items() if v is not None},
    }
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            env["blas_threads"] = int(fn())
            break
    return env


def _summary(m: Measurement, scale) -> tuple:
    """(mean over inputs of each input's median time per unit, units per unit
    of time, per-input times) with each operation's time divided by
    ``scale(reference seconds)``."""
    per_input = {}
    for name, secs, units, ref_s in m.samples:
        per_input.setdefault(name, []).append(secs / units / scale(ref_s))
    op = statistics.fmean(statistics.median(v) for v in per_input.values())
    rate = sum(u for _, _, u, _ in m.samples) / sum(s / scale(r) for _, s, _, r in m.samples)
    return op, rate, per_input


def end_to_end(m: Measurement, setup_s: float, peak_mb: float) -> dict:
    """Bounded metrics; operation times are in reference units (see Reference)."""
    op, _, _ = _summary(m, lambda ref_s: ref_s)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "op_ref": {"value": op, "unit": "ref"},
    }


def figures(workload: str, m: Measurement) -> dict:
    """The same figures in seconds, under the names the README uses."""
    op, rate, per_input = _summary(m, lambda ref_s: 1.0)
    ref = statistics.median(m.reference_s)
    named = {"reference_s": (ref, "s"), "op_s": (op, "s"), "work_per_s": (rate, "1/s")}
    if workload.startswith("ladder-"):
        named[f"verdict_s.{workload.split('-')[1]}"] = (op, "s")
    elif workload == "trees":
        named["nodes_per_s"] = (rate, "nodes/s")
    elif workload == "suites":
        named["checks_per_s"] = (rate, "checks/s")
    else:
        for command in Cli.commands:
            named[f"cli_{command}_s"] = (statistics.median(per_input[command]), "s")
    return named


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------


def import_seconds() -> tuple:
    """Median wall time of a bare interpreter and of a fresh `import exqip.cli`."""

    def median_run(code):
        times = []
        for _ in range(IMPORT_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=_child_env(), cwd=ROOT)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    bare = median_run("pass")
    return bare, median_run("import exqip.cli") - bare


def layer_metrics(agg: dict, rounds: int, decided: int, overhead_s: float, untraced_round_s: float) -> dict:
    def get(name):
        return agg.get(name, {"calls": 0, "self": 0.0, "extra": 0, "extra_max": 0})

    def module_self(prefix):
        return sum(a["self"] for n, a in agg.items() if n.startswith(prefix))

    out = {}
    not_seen = []

    def put(metric, unit, value, seen=True):
        # The result line holds only value and unit; a layer with no calls
        # reads 0 there and is named in the returned not-seen list.
        out[metric] = {"value": float(value) if seen else 0.0, "unit": unit}
        if not seen:
            not_seen.append(metric)

    def self_s(fn):
        a = get(fn)
        put(f"{fn}.self_s", "s", a["self"] / rounds, a["calls"] > 0)

    def calls(fn):
        a = get(fn)
        put(f"{fn}.calls", "count", a["calls"] / rounds, a["calls"] > 0)

    for fn in ("linalg.numerical_rank", "linalg.vectorize_hermitian", "linalg.support_basis"):
        self_s(fn)
    calls("linalg.numerical_rank")
    nr = get("linalg.numerical_rank")
    put("linalg.numerical_rank.bytes", "B", nr["extra_max"], nr["calls"] > 0)
    calls("linalg.vectorize_hermitian")
    sb = get("linalg.support_basis")
    put("linalg.support_basis.elements", "count", sb["extra"] / rounds, sb["calls"] > 0)
    calls("linalg.hermitian_eig")
    self_s("linalg.complex_family_rank")
    self_s("combs.comb_variable_basis")
    cvb = get("combs.comb_variable_basis")
    put("combs.comb_variable_basis.elements", "count", cvb["extra"] / rounds, cvb["calls"] > 0)
    self_s("combs.is_deterministic_comb")
    self_s("gqi.is_valid_gqi")
    calls("gqi.is_valid_gqi")
    self_s("gqi.is_extremal")
    ie = get("gqi.is_extremal")
    put("gqi.is_extremal.calls_per_node", "ratio", ie["calls"] / max(decided, 1), decided > 0)
    self_s("gqi.max_perturbation_step")
    calls("gqi.max_perturbation_step")
    steps = get("gqi.max_perturbation_step")["calls"]
    probes = get("gqi.perturbation_feasible")["calls"]
    put("gqi.perturbation_feasible.probes_per_step", "ratio", probes / max(steps, 1), steps > 0)
    self_s("gqi.decompose_step")
    for fn in (
        "testers.is_extremal_tester",
        "testers.xi_transform",
        "testers.xi_inverse",
        "channels.choi_condition",
        "channels.channel_extremal_theorem1",
        "channels.instrument_extremal",
    ):
        self_s(fn)
    put("suites.run_suite.self_s", "s", module_self("suites.") / rounds, get("suites.run_suite")["calls"] > 0)
    for fn in ("fileio.load_object", "fileio.save_object"):
        self_s(fn)
    so = get("fileio.save_object")
    put("fileio.save_object.bytes", "B", so["extra"] / rounds, so["calls"] > 0)
    self_s("fileio.save_certificate")
    put("cli.main.self_s", "s", module_self("cli.") / rounds, get("cli.main")["calls"] > 0)
    bare, imp = import_seconds()
    put("cli.import_s", "s", imp)
    put("cli.interpreter_s", "s", bare)
    put("trace.overhead_s", "s", overhead_s)
    put("trace.overhead_share", "ratio", overhead_s / untraced_round_s)
    return out, not_seen


def traced_run(w: Workload, seconds: float):
    import tracer as tracer_mod

    untraced = measure(w, seconds)
    rounds = min(len(untraced.round_seconds), TRACED_ROUNDS)
    t = tracer_mod.Tracer()
    decided_before = getattr(w, "decided", 0)
    if not isinstance(w, Cli):
        t.install()
    w.tracer = t
    try:
        traced = measure(w, None, rounds=rounds)
    finally:
        t.uninstall()
        w.tracer = None
    groups = [t.spans] + w.child_spans
    decided = getattr(w, "decided", 0) - decided_before
    base = statistics.median(untraced.round_seconds)
    overhead = statistics.median(traced.round_seconds) - base
    agg = tracer_mod.aggregate(groups)
    metrics, not_seen = layer_metrics(agg, rounds, decided, overhead, base)
    return untraced, traced, metrics, not_seen, groups, agg


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "exqip", "__init__.py")):
        print(f"error: no exqip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = make_workload(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": run_setup(w)}))
            return 0
        own_setup = run_setup(w)
        setups = [own_setup] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        import checker

        input_problem = None
        try:
            w.check_inputs()
        except checker.CheckError as exc:
            input_problem = f"inputs: {exc}"
        env = environment()

        if args.trace:
            m, traced, metrics, not_seen, groups, agg = traced_run(w, args.seconds)
            spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            with open(spans_path, "w", encoding="utf-8") as fh:
                for g, group in enumerate(groups):
                    for rec in group:
                        fh.write(json.dumps(rec + [g]) + "\n")
            problems = m.problems + traced.problems
            correct = m.correct and traced.correct
            attempted, failed = m.attempted + traced.attempted, m.failed + traced.failed
            named = {}
        else:
            m = measure(w, args.seconds)
            agg, not_seen = None, []
            peak = w.peak_rss_mb()
            if not m.samples:
                raise RuntimeError("every operation failed; no metric can be computed")
            metrics = end_to_end(m, statistics.median(setups), peak)
            problems, correct = m.problems, m.correct
            attempted, failed = m.attempted, m.failed
            named = figures(args.workload, m)
        if input_problem:
            problems.append(("check", input_problem))
            correct = False

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "rounds": len(m.round_seconds),
            "setup_samples_s": setups,
            "figures": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "metrics": metrics,
            "not_seen": not_seen,
            "functions": agg,
            "problems": problems,
        }
        with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)

        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(f"# rounds {len(m.round_seconds)} attempted {attempted} failed {failed} correct {correct}")
        for kind, text in problems:
            print(f"# {kind}: {text}")
        for name, (value, unit) in named.items():
            print(f"{name} {value:.6g} {unit}")
        for name, entry in metrics.items():
            seen = "  (not seen)" if name in not_seen else ""
            print(f"{name} {entry['value']:.6g} {entry['unit']}{seen}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
