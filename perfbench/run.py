"""Closed-loop benchmark of the mcprep command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 25 --trace 0

One client runs one invocation at a time. Untraced (``--trace 0``), every
invocation is a fresh interpreter running ``python -m mcprep.cli`` on the
seeded inputs, and the end-to-end metrics come out; their timings are CPU
time (user + system), which the load of other processes on the machine does
not inflate, and wall time is printed beside them. Traced (``--trace 1``),
the same invocations call ``mcprep.cli.main`` in this process with spans
around each layer, and the per-layer metrics come out. Every outcome is
checked; the last line of stdout is one JSON result object.
"""
from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child.
THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = str(THREADS)

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402

# Set-up is timed in CPU time of this process. The first set-up writes the
# inputs the run uses. Untraced runs repeat it into a side directory after
# each invocation, until the repeats' CPU time reaches SETUP_SHARE of the
# invocation wall time measured so far, so that setup_s samples the machine over
# the whole run rather than over one moment of it.
SETUP_SHARE = 0.05
SETUP_MIN_REPEATS = 5
IMPORT_PAIRS = 5
INVOCATION_TIMEOUT_S = 120
END_TO_END = (
    ("run_cpu_s", "s"),
    ("invocation_cpu_p50_s", "s"),
    ("invocation_cpu_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("two_qubit_total", "count"),
    ("gate_total", "count"),
    ("depth_total", "count"),
)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": THREADS,
    }


def child_env(workdir: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(cmd, env: dict) -> tuple[float, float, checks.Result]:
    """Wall time, CPU time and outcome of one child process."""
    cpu = children_cpu_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, env=env,
                              timeout=INVOCATION_TIMEOUT_S)
        result = checks.Result(proc.returncode, proc.stdout.decode(errors="replace"),
                               proc.stderr.decode(errors="replace"))
    except subprocess.TimeoutExpired:
        result = checks.Result(-9, "", f"perfbench: killed after {INVOCATION_TIMEOUT_S} s\n")
    return time.perf_counter() - start, children_cpu_s() - cpu, result


class Ledger:
    """Outcomes of every invocation attempted in one run."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.outcomes = {inv.name: [] for inv in invocations}
        self.mismatches: list[str] = []

    def record(self, inv, outcome: checks.Outcome) -> None:
        seen = self.outcomes[inv.name]
        if seen and seen[0].signature != outcome.signature:
            self.mismatches.append(f"{inv.name}: outcome, counts or digests changed between repeats")
        seen.append(outcome)

    def signatures(self) -> dict:
        return {name: list(seen[0].signature) for name, seen in self.outcomes.items() if seen}

    def check_repeat(self, path: pathlib.Path, current: dict) -> None:
        """Compare this run's signatures and exact counts with those an
        earlier run of the same workload and seed left at ``path``; keep the
        earliest value of each."""
        current = json.loads(json.dumps(current))
        earlier = json.loads(path.read_text()) if path.exists() else {}
        for section, values in current.items():
            before = earlier.setdefault(section, {})
            for key, value in values.items():
                if key in before and before[key] != value:
                    self.mismatches.append(f"{key}: {section} differ from an earlier run of this seed")
                before.setdefault(key, value)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(earlier, indent=1))

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.outcomes.values())

    def misses(self, known: bool) -> list[tuple[str, str]]:
        """Every attempt that missed its expected outcome, among the listed
        known defects or among the rest."""
        return [
            (inv.name, o.reason)
            for inv in self.invocations
            if (inv.known_defect is not None) == known
            for o in self.outcomes[inv.name]
            if not o.ok
        ]

    @property
    def failed(self) -> int:
        return len(self.misses(known=False)) + len(self.mismatches)

    def quality(self) -> dict:
        """Counts and digests of one pass; each invocation counted once."""
        totals = {"two_qubit_total": 0, "gate_total": 0, "depth_total": 0}
        digests = []
        for inv in self.invocations:
            o = self.outcomes[inv.name][0]
            totals["two_qubit_total"] += o.two_qubit
            totals["gate_total"] += o.gates
            totals["depth_total"] += o.depth
            digests += [f"{inv.name}/{label} {digest}" for label, digest in o.digests]
        combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
        return {**totals, "circuits": digests, "circuits_sha256": combined}

    def print_outcomes(self) -> None:
        for inv in self.invocations:
            if inv.known_defect is None:
                continue
            o = self.outcomes[inv.name][0]
            if o.ok:
                print(f"known defect no longer reproduces: {inv.name} ({inv.known_defect})")
            else:
                print(f"known defect still present: {inv.name}: {inv.known_defect}; {o.reason}")
        for name, reason in self.misses(known=False):
            print(f"FAILED {name}: {reason}")
        for line in self.mismatches:
            print(f"FAILED {line}")
        known = len(self.misses(known=True))
        print(f"failed_share: {self.failed}/{self.attempted} excluding listed known defects, "
              f"{self.failed + known}/{self.attempted} counting them")


class Setup:
    """Timed set-ups of one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: pathlib.Path):
        self.workload, self.seed = workload, seed
        self.side = workdir.with_name(workdir.name + "-setup")
        self.times: list[float] = []
        self.invocations = self.build(workdir)

    def build(self, workdir: pathlib.Path):
        shutil.rmtree(workdir, ignore_errors=True)  # not timed
        start = time.process_time()
        invocations = workloads.build(self.workload, self.seed, ROOT, workdir)
        self.times.append(time.process_time() - start)
        return invocations

    def repeat(self, budget_s: float) -> float:
        """Set up again until SETUP_MIN_REPEATS samples and ``budget_s`` of
        set-up CPU time are reached; returns the wall time this took."""
        start = time.perf_counter()
        while len(self.times) < SETUP_MIN_REPEATS or sum(self.times) < budget_s:
            self.build(self.side)
        return time.perf_counter() - start

    def close(self) -> None:
        shutil.rmtree(self.side, ignore_errors=True)


def pass_summary(samples: dict) -> tuple[float, float, float]:
    """Sum, median and 90th percentile over the pass's invocations of each
    one's median sample. Each invocation counts once, so a run whose last
    pass is partial weighs every invocation of the pass alike."""
    typical = sorted(statistics.median(v) for v in samples.values())
    p90 = statistics.quantiles(typical, n=10, method="inclusive")[8]
    return sum(typical), statistics.median(typical), p90


def measure_untraced(setup: Setup, seconds: float, env: dict):
    """Cycle through the pass until the next invocation would overrun.
    Set-up repeats between invocations do not count against ``seconds``."""
    invocations = setup.invocations
    ledger = Ledger(invocations)
    wall = {inv.name: [] for inv in invocations}
    cpu = {inv.name: [] for inv in invocations}
    deadline = time.perf_counter() + seconds
    measured = 0.0
    for inv in itertools.cycle(invocations):
        if all(wall.values()) and time.perf_counter() + statistics.median(wall[inv.name]) > deadline:
            break
        for path in inv.writes:
            path.unlink(missing_ok=True)
        elapsed, used, result = run_child([sys.executable, "-m", "mcprep.cli", *inv.argv], env)
        wall[inv.name].append(elapsed)
        cpu[inv.name].append(used)
        ledger.record(inv, checks.evaluate(inv.expect, result))
        measured += elapsed
        deadline += setup.repeat(SETUP_SHARE * measured)
    setup.close()
    for inv in invocations:
        print(f"invocation {inv.name}: n={len(cpu[inv.name])} "
              f"median_cpu_s={statistics.median(cpu[inv.name]):.4f} "
              f"median_wall_s={statistics.median(wall[inv.name]):.4f}")
    run_cpu, p50_cpu, p90_cpu = pass_summary(cpu)
    run_wall, p50_wall, p90_wall = pass_summary(wall)
    print(f"invocation samples: {sum(map(len, cpu.values()))} over {len(cpu)} invocations")
    print(f"wall time, not bounded: run_s={run_wall:.4f} invocation_p50_s={p50_wall:.4f} "
          f"invocation_p90_s={p90_wall:.4f}")
    metrics = {
        "run_cpu_s": run_cpu,
        "invocation_cpu_p50_s": p50_cpu,
        "invocation_cpu_p90_s": p90_cpu,
        # Every child of this process has ended: this is the largest of them.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    wall_metrics = {"run_s": run_wall, "invocation_p50_s": p50_wall, "invocation_p90_s": p90_wall}
    return ledger, metrics, {"cpu_samples": cpu, "wall_samples": wall, "wall": wall_metrics}


def call_main(cli, argv) -> checks.Result:
    """One in-process CLI call, with an uncaught exception reported the way
    the interpreter would: a traceback on stderr and exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return checks.Result(code, out.getvalue(), err.getvalue())


def in_process_pass(cli, invocations, ledger: Ledger, tracer=None) -> float:
    busy = 0.0
    for index, inv in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = index
        for path in inv.writes:
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        result = call_main(cli, inv.argv)
        busy += time.perf_counter() - start
        ledger.record(inv, checks.evaluate(inv.expect, result))
    return busy


def measure_import(env: dict) -> float:
    """CPU time of a fresh-interpreter ``import mcprep.cli`` minus a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(run_child([sys.executable, "-c", "pass"], env)[1])
        full.append(run_child([sys.executable, "-c", "import mcprep.cli"], env)[1])
    return statistics.median(full) - statistics.median(bare)


def measure_traced(invocations, seconds: float, env: dict):
    """Alternate untraced and traced in-process passes; at least one each."""
    deadline = time.perf_counter() + seconds
    import_s = measure_import(env)
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("mcprep")
    cli = importlib.import_module("mcprep.cli")
    importlib.import_module("scipy.sparse.linalg")  # imported lazily by the program
    ledger = Ledger(invocations)
    plain, traced, per_pass = [], [], []
    while True:
        plain.append(in_process_pass(cli, invocations, ledger))
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, package)
        try:
            traced.append(in_process_pass(cli, invocations, ledger, tracer))
        finally:
            tracing.remove(patches)
        per_pass.append(tracing.layer_metrics(tracer))
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    units = dict(tracing.METRICS)
    metrics = {"cli.import_s": import_s, "trace.overhead_s": statistics.median(traced) - statistics.median(plain)}
    for name, value in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if units[name] in tracing.EXACT_UNITS:
            if any(v != value for v in values):
                ledger.mismatches.append(f"{name}: {values} differ between traced passes")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    print(f"in-process passes: {len(plain)} untraced, median {statistics.median(plain):.4f} s; "
          f"{len(traced)} traced, median {statistics.median(traced):.4f} s; "
          f"{len(tracer.spans)} spans in the last traced pass")
    return ledger, metrics, {"untraced_pass_s": plain, "traced_pass_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mcprep" / "cli.py").is_file():
        print(f"perfbench: no mcprep source tree at {ROOT / 'src' / 'mcprep'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = ROOT / ".perfbench" / args.workload
    env_info = {**environment(), "seed": args.seed}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env_info))

    setup = Setup(args.workload, args.seed, workdir)
    invocations = setup.invocations
    env = child_env(workdir)
    # Compile bytecode once so the first measured invocation starts like the rest.
    run_child([sys.executable, "-c", "import mcprep.cli"], env)

    if args.trace:
        ledger, metrics, detail = measure_traced(invocations, args.seconds, env)
        names = tracing.METRICS
        exact = {name: metrics[name] for name, unit in names if unit in tracing.EXACT_UNITS}
    else:
        ledger, metrics, detail = measure_untraced(setup, args.seconds, env)
        metrics["setup_s"] = statistics.median(setup.times)
        print(f"set-up: {len(setup.times)} samples")
        quality = ledger.quality()
        metrics.update({k: quality[k] for k in ("two_qubit_total", "gate_total", "depth_total")})
        detail["circuits"] = quality["circuits"]
        print(f"circuits: {len(quality['circuits'])} files, combined sha256 {quality['circuits_sha256']}")
        names = END_TO_END
        exact = {name: metrics[name] for name in ("two_qubit_total", "gate_total", "depth_total")}
    ledger.check_repeat(
        ROOT / ".perfbench" / "repeat" / f"{args.workload}-seed{args.seed}.json",
        {"outcomes": ledger.signatures(), f"counts-trace{args.trace}": exact},
    )
    ledger.print_outcomes()

    result_metrics = {}
    for name, unit in names:
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
    failed = ledger.failed
    (workdir / f"report-trace{args.trace}.json").write_text(json.dumps({
        "environment": env_info,
        "setup_s": setup.times,
        "metrics": result_metrics,
        **detail,
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
