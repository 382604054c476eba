"""Steadiness check for the benchmark in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads fourier_dense --seeds 1-5 --out a.json
    python3 perfbench/steady.py --seeds 11-20 --baseline a.json

For each workload it runs perfbench/run.py once per seed (untraced, one run
at a time) and reports, for every end-to-end metric, the median and the
spread (third minus first quartile, over the median) against the metric's
bound.  Every spread must stay within its bound; below a third of it is
the target.  With --baseline, each median is also compared
with the baseline's and may not be worse by more than the bound.

It then makes two traced runs of seed COUNTER_SEED per workload and
requires the deterministic counters to match exactly.  Every run measures
for BENCHMARK.json's run_seconds.  Exit status 1 on any breach.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNTER_SEED = 1
COUNTERS = (
    "flows.integrate.steps", "symplectic.expm.calls", "flows.generator.calls",
    "flows.evaluate.calls", "crossings.scans", "crossings.refine.calls",
    "crossings.found", "models.validate.calls",
)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the medians here as JSON")
    parser.add_argument("--baseline", help="medians written by an earlier --out")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    medians: dict[str, dict[str, float]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload:14s} seed {seed:<6d} " + " ".join(
                f"{name}={runs[-1][name]:.6g}" for name in metrics), flush=True)
        medians[workload] = {}
        for name, m in metrics.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians[workload][name] = med
            line = (f"{workload:14s} {name:16s} median {med:12.6g} {m['unit']:4s} "
                    f"spread {spread:6.3f} bound {m['bound']:.3f}")
            if spread > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif spread > m["bound"] / 3:
                line += "  (over a third of the bound)"
            base = baseline.get(workload, {}).get(name)
            if base is not None:
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                line += f"  vs baseline {worse:+.3f}"
                if worse > m["bound"]:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line, flush=True)

        first, second = (run_once(workload, COUNTER_SEED, spec["run_seconds"], 1)
                         for _ in range(2))
        for name in COUNTERS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:14s} counter {name:24s} {first[name]:.6g} "
                  f"{'repeats' if same else 'DIFFERS: %.6g' % second[name]}", flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(medians, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
