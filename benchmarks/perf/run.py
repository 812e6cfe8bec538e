"""Entry point of the performance benchmark.

    python3 benchmarks/perf/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in this process and prints every metric by name with its
unit, then — as the last line of stdout — the JSON object the driver reads.
Without ``--workload`` it runs every workload of ``BENCHMARK.json``, each in a
fresh subprocess (so peak RSS and cold caches are per workload), ``--repeat N``
times on seeds ``S .. S+N-1``, and writes result files under ``--out``
(default ``benchmarks/perf/results/``) for ``compare.py`` to consume.
"""

import os
import sys

# One BLAS thread, pinned before NumPy is imported: nothing contends, so a
# faster layer saves its own share and no more.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no warm-up")
    parser.add_argument("--repeat", type=int, default=1, help="result sets (all-workloads mode)")
    parser.add_argument("--out", type=Path, help="directory for result files")
    args = parser.parse_args(argv)
    args.trace = int(args.trace or args.traced)
    return args


def run_one(args: argparse.Namespace) -> int:
    from benchmarks.perf import harness

    bench = harness.load_benchmark()
    names = [workload["name"] for workload in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    document, tracer = harness.run_workload(
        args.workload,
        args.seed,
        seconds,
        bool(args.trace),
        smoke=args.smoke,
        allocator=harness.pin_allocator(),
    )
    harness.validate_result(document, bench)
    if args.out is not None:
        harness.write_result(document, tracer, args.out)
    harness.print_report(document)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload x ``--repeat`` seeds, one fresh subprocess each."""
    from benchmarks.perf import harness

    out = args.out if args.out is not None else harness.PERF_DIR / "results"
    status = 0
    workloads = harness.load_benchmark()["workloads"]
    for repeat in range(args.repeat):
        for workload in workloads:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"],
                "--seed", str(args.seed + repeat),
                "--trace", str(args.trace),
                "--out", str(out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
