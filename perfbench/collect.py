"""Run the benchmark over several seeds; report each metric's median and spread.

    python3 perfbench/collect.py [--workload exact-250 ...] [--out perfbench/BENCH_1.json]

Each run is ``perfbench/run.py`` in its own process, one after another, for
``run_seconds`` from BENCHMARK.json: per workload, RUNS untraced runs
(end-to-end metrics), then TRACE_RUNS traced ones (per-layer metrics), with
seeds counting up from FIRST_SEED.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) over the
median.  ``--out`` writes every value, with the machine record, as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# the settings that produced BENCH_1.json
RUNS, TRACE_RUNS, FIRST_SEED = 10, 2, 301


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    machine = next(json.loads(line[len("machine: "):]) for line in lines
                   if line.startswith("machine: "))
    return json.loads(lines[-1]), machine


def _summarize(runs, bounds):
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": spread, "values": values}
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"  {name:30s} median {median:<12.6g} {first['unit']:6s} "
              f"spread {spread:.4f}{bound}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"run_seconds": BENCH["run_seconds"], "workloads": {}}
    for workload in workloads:
        entry = report["workloads"][workload] = {"attempted": 0, "failed": 0}
        seeds = iter(range(FIRST_SEED, sys.maxsize))
        for trace, count in ((0, RUNS), (1, TRACE_RUNS)):
            runs = []
            run_seeds = [next(seeds) for _ in range(count)]
            for seed in run_seeds:
                result, machine = _run(workload, seed, BENCH["run_seconds"], trace)
                runs.append(result)
                report.setdefault("machine", machine)
            print(f"{workload}, {'traced' if trace else 'untraced'}: {count} runs, "
                  f"seeds {run_seeds[0]}..{run_seeds[-1]}")
            entry["per_layer" if trace else "end_to_end"] = _summarize(runs, bounds)
            entry["attempted"] += sum(r["attempted"] for r in runs)
            entry["failed"] += sum(r["failed"] for r in runs)
    if args.out:
        report["machine"].pop("seed")
        text = json.dumps(report, indent=1)
        # one line per list of run values
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
        Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
