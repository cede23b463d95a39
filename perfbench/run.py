"""mimospectra benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
``src/`` there. Every operation is a fresh process started with
MIMOSPECTRA_WORKERS and the BLAS thread variables unset, so the program's
default thread settings apply whatever the caller's shell holds.

``--trace 0`` (gated) measures, with tracing off:
  setup_s      median over SETUP_SAMPLES fresh processes of
               ``import mimospectra`` + config load/validation;
  wall_s       one full pass of the workload: the sum over its operations of
               each operation's median wall time, with operations repeated
               round-robin for ``--seconds``;
  peak_rss_mb  the largest per-operation median peak resident memory.
``--trace 1`` runs one traced pass and reports per-layer busy/self times and
counts (see tracer.py), the tracing overhead against an untraced pass, and an
ungated single-threaded reference pass (BLAS threads 1, serial workers). It
makes these three passes whatever ``--seconds`` is.

Every operation's output is checked against ``references/`` (checks.py).
The report lists each metric with its unit, the checks and the environment;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Op, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OP_PY = BENCH_DIR / "op.py"
THREAD_VARS = ("MIMOSPECTRA_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
SINGLE_THREAD = {"MIMOSPECTRA_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
HARD_LIMIT_S = 170.0

SETUP_CODE = ("import sys\nfrom mimospectra import cli\n"
              "cli.load_config(None, sys.argv[1], 'paper', {})\n")

ENV_CODE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    try:
        fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        continue
    fn.restype = ctypes.c_int
    threads = fn()
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""

PER_LAYER_SPAN_METRICS = {
    "channel.realize_channel": ("calls", "busy_s"),
    "channel.crandn": ("busy_s",),
    "rmt.support_onesided": ("busy_s",),
    "rmt.support_double_sided": ("busy_s",),
    "rmt.support_iid": ("busy_s",),
    "rmt.support_distinct": ("busy_s",),
    "rmt.stieltjes": ("busy_s", "points"),
    "rmt.density_from_stieltjes": ("busy_s",),
    "estimation.estimate_subspace_channel": ("calls", "busy_s"),
    "estimation.pilot_based_detect": ("busy_s",),
    "estimation.mf_detect": ("busy_s",),
    "estimation.data_block": ("busy_s",),
    "estimation.count_bit_errors": ("busy_s",),
    "sim.eigen": ("self_s",),
    "sim.ber": ("self_s",),
    "sim.trial_rng": ("busy_s",),
    "cli.load_config": ("busy_s",),
    "cli.run_preset": ("self_s",),
}


@dataclass
class OpResult:
    wall: float
    rss_mb: float
    bytes_written: int = 0
    spans: dict | None = None
    digest: dict | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path,
                 reference: dict | None):
        """``reference`` None runs the operations without output checks."""
        self.workload = workload
        self.seed = seed
        self.work = work
        self.t_start = time.perf_counter()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sha_matches: list[bool] = []
        self.runs = 0
        self.configs = {}
        for op in workload.ops:
            if op.is_cli:
                path = work / f"{op.name}.json"
                path.write_text(json.dumps(op.config))
                self.configs[op.name] = path

    def env(self, single_thread: bool = False) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(ROOT / "src")
        if single_thread:
            env.update(SINGLE_THREAD)
        return env

    def child(self, argv: list[str], env: dict) -> tuple[float, float, int, str]:
        """Run one process; wall seconds, peak RSS in MB, exit code, stderr tail."""
        self.runs += 1
        err_path = self.work / f"stderr-{self.runs}.txt"
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.t_start))
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, " ".join(tail)

    def run_op(self, op: Op, *, traced: bool = False, single_thread: bool = False
               ) -> OpResult:
        """Run one operation in a fresh process and check its output."""
        self.runs += 1
        out = self.work / f"out-{self.runs}"
        out.mkdir()
        spans_path = self.work / f"spans-{self.runs}.json"
        op_args = (["cli", "run", "--config", str(self.configs[op.name]),
                    "--seed", str(self.seed), "--out", str(out)] if op.is_cli
                   else ["laws", str(self.seed), str(out / "laws.json")])
        if traced:
            argv = [str(OP_PY), "--trace", str(spans_path)] + op_args
        elif op.is_cli:
            argv = ["-m", "mimospectra.cli"] + op_args[1:]
        else:
            argv = [str(OP_PY)] + op_args
        wall, rss, code, err = self.child([sys.executable] + argv, self.env(single_thread))
        res = OpResult(wall, rss)
        if op.is_cli:
            res.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        if traced and spans_path.exists():
            res.spans = json.loads(spans_path.read_text())
        problems = [f"exit code {code}: {err}"] if code != 0 else []
        if not problems:
            try:
                res.digest = (checks.digest_cli(out) if op.is_cli
                              else checks.digest_laws(out / "laws.json"))
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out)
        if res.digest is not None and self.reference is not None:
            bad, sha = checks.check(op.name, res.digest, self.reference, self.seed)
            problems += bad
            if sha is not None:
                self.sha_matches.append(sha)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{op.name}: {p}" for p in problems]
        return res

    def setup_sample(self) -> float:
        cfg = self.configs[next(op.name for op in self.workload.ops if op.is_cli)]
        wall, _, code, err = self.child([sys.executable, "-c", SETUP_CODE, str(cfg)],
                                        self.env())
        if code != 0:
            raise RuntimeError(f"setup process failed: {err}")
        return wall

    def timed_passes(self, seconds: float
                     ) -> tuple[dict[str, list[tuple[float, float]]], list[float]]:
        """Round-robin over the operations for ``seconds``; the first pass
        always completes and later operations start only if their median so
        far fits before the deadline.

        Setup samples are taken between operations, at most one per
        ``seconds / SETUP_SAMPLES`` and outside the ``seconds`` budget, and
        topped up to SETUP_SAMPLES at the end, so they spread over the run.
        """
        samples = {op.name: [] for op in self.workload.ops}
        setup = []
        self.setup_sample()  # warms the file cache
        next_setup = time.perf_counter()
        deadline = next_setup + seconds
        i = 0
        while True:
            op = self.workload.ops[i % len(self.workload.ops)]
            if i >= len(self.workload.ops):
                est = statistics.median(w for w, _ in samples[op.name])
                if time.perf_counter() + est > deadline:
                    break
            if time.perf_counter() >= next_setup:
                t0 = time.perf_counter()
                setup.append(self.setup_sample())
                deadline += time.perf_counter() - t0
                next_setup = time.perf_counter() + seconds / SETUP_SAMPLES
            res = self.run_op(op)
            samples[op.name].append((res.wall, res.rss_mb))
            i += 1
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.setup_sample())
        return samples, setup


def environment_record(bench: Bench) -> dict:
    rec = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": None, "git_commit": None,
           # unset in every operation's process, whatever the caller had
           "mimospectra_workers": None,
           "caller_thread_vars": {k: os.environ.get(k) for k in THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    proc = subprocess.run([sys.executable, "-c", ENV_CODE], env=bench.env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        rec.update(json.loads(proc.stdout))
    if (ROOT / ".git").exists():
        try:
            rec["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return rec


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def gated(bench: Bench, seconds: float) -> dict:
    samples, setup = bench.timed_passes(seconds)
    wall = 0.0
    rss = 0.0
    for name, runs in samples.items():
        walls = [w for w, _ in runs]
        q1, med, q3 = _quartiles(walls)
        wall += med
        rss = max(rss, statistics.median(r for _, r in runs))
        print(f"  op {name}: n={len(walls)} median={med:.4f} s q1={q1:.4f} q3={q3:.4f}")
    q1, med, q3 = _quartiles(setup)
    print(f"  setup: n={len(setup)} median={med:.4f} s q1={q1:.4f} q3={q3:.4f}")
    return {"wall_s": (wall, "s"), "setup_s": (med, "s"), "peak_rss_mb": (rss, "MB")}


def traced(bench: Bench) -> dict:
    # each operation runs traced, untraced and single-threaded back to back,
    # so drift in machine speed hits the three passes alike
    results, default_wall, single_wall = [], 0.0, 0.0
    for op in bench.workload.ops:
        results.append(bench.run_op(op, traced=True))
        default_wall += bench.run_op(op).wall
        single_wall += bench.run_op(op, single_thread=True).wall
    traced_wall = sum(r.wall for r in results)

    data = [r.spans for r in results if r.spans is not None]
    totals = tracer.aggregate([d["spans"] for d in data])
    counts = {name: 0 for name in (*tracer.COUNTS, *tracer.WARNINGS)}
    for d in data:
        for name, n in {**d["counts"], **d["warnings"]}.items():
            counts[name] += n
    import_s = sum(d["import_s"] for d in data)

    bench.attempted += 1
    calls = {**{name: rec["calls"] for name, rec in totals.items()}, **counts}
    missing = [name for name in bench.workload.expected_spans if calls[name] == 0]
    if missing:
        bench.failed += 1
        bench.failures.append(f"traced pass: no calls recorded for {missing}")

    metrics = {}
    for name, keys in PER_LAYER_SPAN_METRICS.items():
        for key in keys:
            unit = "s" if key.endswith("_s") else "count"
            metrics[f"{name}.{key}"] = (totals[name][key], unit)
    metrics["rmt.inverse_coeffs.calls"] = (counts["rmt.inverse_coeffs"], "count")
    metrics["rmt.support.warnings"] = (counts["rmt.support.warnings"], "count")
    metrics["estimation.degenerate_warnings"] = (
        counts["estimation.degenerate_warnings"], "count")
    metrics["sim.blocks"] = (totals["sim.trial_rng"]["calls"], "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.bytes_written"] = (sum(r.bytes_written for r in results), "B")
    metrics["trace.overhead_s"] = (traced_wall - default_wall, "s")
    metrics["reference.default.wall_s"] = (default_wall, "s")
    metrics["reference.single_thread.wall_s"] = (single_wall, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mimospectra" / "cli.py").is_file():
        print(f"no mimospectra source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    work = BENCH_DIR / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reference = json.loads(
            (BENCH_DIR / "references" / f"{args.workload}.json").read_text())
        bench = Bench(WORKLOADS[args.workload], args.seed, work, reference)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment " + json.dumps(environment_record(bench), sort_keys=True))
        metrics = traced(bench) if args.trace else gated(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"checks: {bench.attempted} operations, {len(bench.failures)} failed checks")
    for failure in bench.failures:
        print(f"  FAIL {failure}")
    if bench.sha_matches:
        print(f"  info: payload sha256 matches reference in "
              f"{sum(bench.sha_matches)}/{len(bench.sha_matches)} operations")
    failed = bench.failed
    print(f"error_rate = {failed}/{bench.attempted} = {failed / bench.attempted}")
    print(json.dumps({
        "correct": not bench.failures, "attempted": bench.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
