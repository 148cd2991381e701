"""kronmc completion benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload exact-250 --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports kronmc from its
``src`` directory; BLAS threads are capped at the cores the process may use.
Prints the machine record and every metric with its unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` the per-layer metrics, and writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.  Exits 1 when a realization
failed its check, 2 when the run cannot start.

Workloads and their reasons are in workloads.py, the loop and the metrics
in harness.py.  ``collect.py`` repeats runs over seeds and reports spreads
(BENCH_1.json holds its output for the commit that added the benchmark);
``python3 -m pytest perfbench`` tests the benchmark itself at tiny sizes.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("exact-250", "ridge-stations", "cli-fit")


def _limit_blas_threads():
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "kronmc" / "__init__.py").is_file():
        print(f"perfbench: no kronmc source tree at {src}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    machine = harness.machine_record(args.seed)
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("machine: " + json.dumps(machine))

    workdir = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = harness.run(workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, metric in result.metrics.items():
        label = f"({result.labels[name]})" if name in result.labels else ""
        print(f"  {name:30s} {_format(metric['value']):>12s} {metric['unit']:6s} {label}")
    for name, text in result.extra.items():
        print(f"  {name:30s} {text}")
    for error in result.errors:
        print(f"  FAILED {error}")
    if tracer is not None:
        path = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write_jsonl(path, {"workload": workload.name, "machine": machine})
        print(f"spans: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
