"""hoferlab benchmark: one workload, one process, one JSON result line.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sphere_cli --seed 1 --seconds 36 --trace 0

The workload's inputs come from --seed alone.  After an untimed warm-up
scenario, the run repeats whole passes over the workload's scenario set
while the next pass still fits in --seconds (at least one pass), times each
scenario, and checks every outcome against the workload's oracle outside
the timed region.  Set-up (importing hoferlab, then building the workload's
objects or scenario files from the drawn inputs) is measured in
SETUP_PROBES fresh processes and reported as the median.

Times are host-adjusted.  On a shared machine the speed of a core changes
by up to 2x within minutes, with every other process on the host.  While
scenarios run, a timer signal every SAMPLE_INTERVAL_S runs a short fixed
calibration block of small numpy solves and products, the same kind of
work as the package's own.  A scenario's host factor is the mean block
time during it over CALIBRATION_REF_S; its latency is its wall time minus
the blocks' time, divided by that factor.  Set-up probes do the same
during the import and the build with a block of plain Python arithmetic
(numpy is not imported yet, and importing is mostly interpreter work),
over PY_CALIBRATION_REF_S.  Raw times and the host factor are printed next to every
adjusted figure, and --trace 1 also puts them into the JSON.

The adjustment holds only for a single-threaded program: with a second
thread, blocks overlap work still going on and the program's own load
slows them.  A run that sees a second thread, or process CPU time above
wall time, reports raw wall times instead and says so.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the traced ones (see
tracing.py).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is imported, here and in the probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# Tail percentile per workload, fixed so that commits are compared at the
# same percentile: the highest with at least 10 samples beyond it at the
# sample count of a run on the reference machine.  sampled_long gets 12 to
# 18 samples, so no percentile above the median qualifies.
TAIL_PERCENTILE = {"sphere_cli": 80, "fourier_dense": 85, "sampled_long": 50}
SAMPLE_INTERVAL_S = 0.02
CALIBRATION_STEPS = 40
# Calibration block time that counts as host speed 1: about what the block
# takes on the reference machine (nproc = 2) when its core is not contended.
CALIBRATION_REF_S = 0.4e-3
# The same for the plain Python block that samples the host during set-up.
PY_CALIBRATION_STEPS = 3000
PY_CALIBRATION_REF_S = 0.2e-3
# Process CPU time over wall time above which a run counts as multi-threaded.
CPU_OVER_WALL_LIMIT = 1.01
# Seed kept out of every run made while tuning the benchmark; a claimed gain
# must also hold on it.
HELD_OUT_SEED = 7919


def import_hoferlab():
    """Import the checkout's own hoferlab; return (module, seconds taken)."""
    if not (SRC / "hoferlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hoferlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hoferlab
    import hoferlab.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(hoferlab.__file__).resolve().parent != SRC / "hoferlab":
        raise SystemExit(f"perfbench: imported hoferlab from {hoferlab.__file__}, not {SRC}")
    return hoferlab, elapsed


def single_threaded(cpu_s: float, wall_s: float, threads: int) -> bool:
    """Whether the host adjustment holds for work that took these figures."""
    return threads == 1 and cpu_s <= CPU_OVER_WALL_LIMIT * wall_s


def calibration_s() -> float:
    """Seconds that one fixed block of 4x4 numpy solves and products takes now."""
    import numpy as np

    eye = np.eye(4)
    a = 0.01 * np.array([[0.1, -1.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0],
                         [0.0, 0.0, 0.2, -1.0], [0.0, 0.0, 1.0, 0.2]])
    m = eye
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        m = np.linalg.solve(eye - a, m @ (eye + a))
    return time.perf_counter() - start


def python_calibration_s() -> float:
    """Seconds that one fixed block of plain Python arithmetic takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(PY_CALIBRATION_STEPS):
        x += i * i % 7
    return time.perf_counter() - start


def host_factor(blocks, ref_s: float) -> float:
    """Mean block time over ref_s; a block over twice the median was
    interrupted, not slowed, and is left out."""
    limit = 2.0 * statistics.median(blocks)
    return statistics.fmean(x for x in blocks if x <= limit) / ref_s


class HostMeter:
    """Calibration blocks run from a SIGALRM handler every SAMPLE_INTERVAL_S.

    The handler runs between bytecodes of whatever is executing, so the
    blocks sample the host's speed during a scenario, not only around it.
    It also records the most Python threads seen alive, so that a thread
    started and joined within a scenario is noticed.
    """

    def __init__(self, block=calibration_s):
        self.block = block
        self.samples = [block(), block()]  # the first pays lazy set-up
        self.threads = threading.active_count()

    def _sample(self, _signum, _frame):
        self.threads = max(self.threads, threading.active_count())
        self.samples.append(self.block())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_setup(workload: str, inputs_file: str) -> None:
    """Child process: time the import and the build, print them as JSON.

    The host is sampled during both by plain Python blocks: numpy is not
    imported yet, and importing is mostly interpreter work.  Adjusted
    times leave out the blocks' time and divide by the host factor.
    """
    meter = HostMeter(python_calibration_s)
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    with meter:
        before_import = len(meter.samples)
        hoferlab, import_s = import_hoferlab()
        after_import = len(meter.samples)
        from workloads import WORKLOADS

        with open(inputs_file, "rb") as fh:
            inputs = pickle.load(fh)
        workdir = Path(inputs_file).parent / f"probe_{os.getpid()}"
        workdir.mkdir()
        before_build = len(meter.samples)
        start = time.perf_counter()
        WORKLOADS[workload][1](hoferlab, inputs, str(workdir))
        build_s = time.perf_counter() - start
        after_build = len(meter.samples)
    single = single_threaded(time.process_time() - cpu_start, time.perf_counter() - wall_start,
                             meter.threads)
    shutil.rmtree(workdir)
    samples = meter.samples
    host = host_factor(samples[before_import:] or samples, PY_CALIBRATION_REF_S)
    print(json.dumps({
        "import_s": import_s, "build_s": build_s, "host": host, "single_threaded": single,
        "import_adj_s": (import_s - sum(samples[before_import:after_import])) / host,
        "build_adj_s": (build_s - sum(samples[before_build:after_build])) / host,
    }))


def measure_setup(workload: str, inputs_file: Path) -> dict:
    """Medians over fresh processes: set-up seconds, raw and adjusted.

    The adjusted figures are raw ones when a probe was not single-threaded.
    """
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--probe-setup", str(inputs_file)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    single = all(r["single_threaded"] for r in runs)
    part = "_adj_s" if single else "_s"
    return {
        "single_threaded": single,
        "setup_s": statistics.median(r["import" + part] + r["build" + part] for r in runs),
        "import_s": statistics.median(r["import" + part] for r in runs),
        "build_s": statistics.median(r["build" + part] for r in runs),
        "raw_s": statistics.median(r["import_s"] + r["build_s"] for r in runs),
        "host": statistics.median(r["host"] for r in runs),
    }


class Sample(NamedTuple):
    seconds: float  # wall time minus the calibration blocks that ran during it
    host: float  # host factor during it
    ok: bool  # outcome checked and correct
    wall: float  # raw wall time, blocks included


class Run:
    """Runs and checks scenarios one after another under a HostMeter."""

    def __init__(self, hoferlab, run, check, meter: HostMeter):
        self.hoferlab, self.run, self.check, self.meter = hoferlab, run, check, meter
        self.attempted = 0
        self.failed = 0
        self.cpu_s = self.wall_s = 0.0

    @property
    def single_threaded(self) -> bool:
        return single_threaded(self.cpu_s, self.wall_s, self.meter.threads)

    def scenario(self, case) -> Sample:
        """Run one scenario, then check its outcome."""
        samples = self.meter.samples
        first = len(samples)
        cpu_start = time.process_time()
        start = time.perf_counter()
        outcome = error = None
        try:
            outcome = self.run(self.hoferlab, case)
        except Exception as exc:
            error = exc
        wall = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu_start
        self.wall_s += wall
        self.meter.threads = max(self.meter.threads, threading.active_count())
        during = samples[first:] or samples[-1:]
        elapsed = wall - sum(during) if len(samples) > first else wall
        host = host_factor(during, CALIBRATION_REF_S)
        if error is None:
            try:
                ok = bool(self.check(case, outcome))
            except Exception as exc:  # a report missing or changed counts as wrong
                error = exc
        if error is not None:
            traceback.print_exception(error)
            ok = False
        self.attempted += 1
        self.failed += not ok
        return Sample(elapsed, host, ok, wall)


def measure(runner: Run, cases, seconds: float, tracer=None):
    """Whole passes while the next one fits in `seconds`.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, starting untraced, and both kinds run at least once;
    each traced scenario's spans are folded with its host factor, or
    unscaled once the run is seen not to be single-threaded.  Returns the
    untraced and the traced passes, each a list of lists of `Sample`.
    """
    passes = ([], [])
    last_pass = [0.0, 0.0]
    start = time.perf_counter()
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 1
        pass_start = time.perf_counter()
        passes[traced].append([])
        with tracer.installed() if traced else nullcontext():
            for case in cases:
                passes[traced][-1].append(runner.scenario(case))
                if traced:
                    tracer.fold(1.0 / passes[traced][-1][-1].host
                                if runner.single_threaded else 1.0)
        last_pass[traced] = time.perf_counter() - pass_start
        if tracer is not None and index == 0:
            continue
        next_traced = tracer is not None and not traced
        if time.perf_counter() - start + last_pass[next_traced] > seconds:
            return passes


def duration(sample: Sample, adjusted: bool) -> float:
    return sample.seconds / sample.host if adjusted else sample.wall


def per_second(passes, adjusted: bool) -> float:
    """Median over passes of verified scenarios per second in scenarios."""
    return statistics.median(
        sum(s.ok for s in p) / sum(duration(s, adjusted) for s in p) for p in passes)


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setup, pct: int, adjusted: bool):
    """The end-to-end metrics, host-adjusted or raw; notes give the raw ones."""
    samples = [s for p in passes for s in p]
    times = [duration(s, adjusted) for s in samples]
    raw = [s.wall for s in samples]
    p_tail = percentile(times, pct)
    n = len(samples)
    where = f"p{pct}, {sum(x > p_tail for x in times)} of n={n} beyond"
    return {
        "scenarios_per_s": (per_second(passes, adjusted), "1/s",
                            f"median of {len(passes)} passes; raw {per_second(passes, False):.4g}"),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms",
                           f"n={n}; raw {1e3 * statistics.median(raw):.4g}"),
        "latency_tail_ms": (1e3 * p_tail, "ms", f"{where}; raw {1e3 * percentile(raw, pct):.4g}"),
        "setup_s": (setup["setup_s"], "s",
                    f"median of {SETUP_PROBES} fresh processes; raw {setup['raw_s']:.4g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of the measuring process, not adjusted"),
    }


RAW_METRICS = ("scenarios_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s")
UNITS = {"calls": "count", "steps": "count", "scans": "count", "found": "count",
         "us_per_step": "us", "evaluate_per_scan": "count", "refine_yield": "ratio",
         "speed_ratio": "ratio"}


def per_layer(totals, n, setup, speed_ratio, raw, runner: Run, hosts):
    """Per-scenario layer figures from the folded spans of n scenarios, then
    the untraced passes' raw end-to-end figures and the host figures."""
    def per(key):
        return totals.get(key, 0.0) / n

    def ratio(num, den):
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    m = {
        "flows.integrate.steps": per("flows.integrate.count"),
        "flows.integrate.ms": 1e3 * per("flows.integrate.s"),
        "flows.integrate.self_ms": 1e3 * per("flows.integrate.self_s"),
        "flows.integrate.us_per_step": 1e6 * ratio("flows.integrate.s", "flows.integrate.count"),
        "flows.generator.calls": per("flows.generator.calls"),
        "flows.generator.ms": 1e3 * per("flows.generator.s"),
        "flows.evaluate.calls": per("flows.evaluate.calls"),
        "flows.evaluate.ms": 1e3 * per("flows.evaluate.s"),
        "flows.sigma_min_nodes.ms": 1e3 * per("flows.sigma_min_nodes.s"),
        "symplectic.expm.calls": per("symplectic.expm.calls"),
        "symplectic.expm.ms": 1e3 * per("symplectic.expm.s"),
        "crossings.find.ms": 1e3 * per("crossings.find.s"),
        "crossings.rs_index.ms": 1e3 * per("crossings.rs_index.s"),
        "crossings.self_ms": 1e3 * (per("crossings.find.self_s") + per("crossings.rs_index.self_s")),
        "crossings.scans": per("scan.count"),
        "crossings.evaluate_per_scan": ratio("scan.evaluate.calls", "scan.count"),
        "crossings.refine.calls": per("crossings.refine.calls"),
        "crossings.refine.ms": 1e3 * per("crossings.refine.s"),
        "crossings.found": per("crossings.find.count"),
        "crossings.refine_yield": ratio("crossings.find.count", "crossings.refine.calls"),
        "morse.check_nondegenerate.ms": 1e3 * per("morse.check_nondegenerate.s"),
        "morse.self_ms": 1e3 * per("morse.verify_theorem.self_s"),
        "models.validate.calls": per("models.validate.calls"),
        "models.validate.ms": 1e3 * per("models.validate.s"),
        "models.hofer_lengths.ms": 1e3 * per("models.hofer_lengths.s"),
        "cli.self_ms": 1e3 * per("cli.main.self_s"),
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "trace.speed_ratio": speed_ratio,
    }
    out = {}
    for name, value in m.items():
        last = name.rsplit(".", 1)[-1]
        out[name] = (value, UNITS.get(last) or ("s" if last.endswith("_s") else "ms"), "")
    for name in RAW_METRICS:
        value, unit, _note = raw[name]
        out["raw." + name] = (value, unit, "")
    out["host.factor"] = (statistics.median(hosts), "ratio", "median over scenarios")
    out["host.cpu_over_wall"] = (runner.cpu_s / runner.wall_s, "ratio",
                                 f"process CPU over wall time in scenarios, threads {runner.meter.threads}")
    return out


def environment(hoferlab) -> str:
    import numpy
    import scipy

    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas_threads={BLAS_THREADS} hoferlab={hoferlab.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", metavar="INPUTS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.probe_setup)
        return 0

    hoferlab, _ = import_hoferlab()
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    make_inputs, build, run, check = WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(np.random.default_rng(args.seed))
        inputs_file = workdir / "inputs.pkl"
        with open(inputs_file, "wb") as fh:
            pickle.dump(inputs, fh)
        setup = measure_setup(args.workload, inputs_file)
        cases = build(hoferlab, inputs, str(workdir))
        tracer = Tracer() if args.trace else None
        with HostMeter() as meter:
            runner = Run(hoferlab, run, check, meter)
            runner.scenario(cases[0])  # warm-up: lazy imports and caches, not timed
            plain, traced = measure(runner, cases, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # another run may still be using it
            WORK.rmdir()

    adjusted = runner.single_threaded
    pct = TAIL_PERCENTILE[args.workload]
    hosts = [s.host for p in plain + traced for s in p]
    if args.trace:
        speed_ratio = per_second(traced, adjusted) / per_second(plain, adjusted)
        metrics = per_layer(tracer.totals, sum(map(len, traced)), setup, speed_ratio,
                            end_to_end(plain, setup, pct, adjusted=False), runner, hosts)
    else:
        metrics = end_to_end(plain, setup, pct, adjusted)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scenarios/pass={len(cases)}")
    print(f"# {environment(hoferlab)}")
    print(f"# host factor median {statistics.median(hosts):.3f} "
          f"(range {min(hosts):.3f}-{max(hosts):.3f}; set-up {setup['host']:.3f})")
    if not adjusted:
        print(f"# scenario times are raw, not host-adjusted: process cpu/wall "
              f"{runner.cpu_s / runner.wall_s:.3f}, threads {runner.meter.threads}")
    if not setup["single_threaded"]:
        print("# set-up times are raw, not host-adjusted: a probe saw a second thread "
              "or CPU time above wall time")
    if args.trace:
        for name in tracer.absent:
            print(f"# absent: {name} (its metrics read 0)")
        print(f"# traced passes {len(traced)}, untraced passes {len(plain)}; per-layer "
              f"times are {'host-adjusted' if adjusted else 'raw'}; raw.* are untraced raw")
    print(f"fail_ratio {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} attempted, warm-up included)")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
