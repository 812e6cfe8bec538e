"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/perf/compare.py A B

``A`` (the base) and ``B`` are result files or directories of them, as
written by ``run.py --out``; only untraced runs carry end-to-end metrics.
Each row gives one end-to-end metric on one workload: median and quartiles of
both sides, B's median as a ratio of A's (the base is printed next to it) and
a verdict from the bounds in ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's quartile spread is wider than the bound, so the
  comparison cannot tell (unless every B run beats every A run);
* ``better`` — B's median is better by more than A's own quartile spread;
* ``same`` — otherwise.

Exits 1 on any ``worse`` or when a workload's failed share rose.

    python3 benchmarks/perf/compare.py --write-reference DIR

records the output fingerprints of the full-size runs under ``DIR`` in
``reference.json``, against which later runs report (never fail) a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
REFERENCE_JSON = Path(__file__).resolve().parent / "reference.json"
RESULT_SCHEMA = "perf-result/1"

#: ``{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}``
ResultSet = Dict[str, dict]


def _documents(path: Path) -> Iterator[dict]:
    """Result documents in ``path`` (a file, or a directory of them)."""
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        document = json.loads(file.read_text(encoding="utf-8"))
        if isinstance(document, dict) and document.get("schema") == RESULT_SCHEMA:
            yield document


def load_results(path: Path) -> ResultSet:
    """Untraced result documents under ``path``, grouped by workload."""
    grouped: ResultSet = defaultdict(
        lambda: {"metrics": defaultdict(list), "attempted": 0, "failed": 0}
    )
    for document in _documents(path):
        if document.get("trace"):
            continue
        entry = grouped[document["workload"]]
        entry["attempted"] += document["attempted"]
        entry["failed"] += document["failed"]
        for name, metric in document["end_to_end"].items():
            entry["metrics"][name].append(metric["value"])
    return grouped


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    if worse_by > bound:
        return "worse"
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound and not all_better:
        return "unresolved"
    if -worse_by > (a_q3 - a_q1) / abs(a_med) and -worse_by > 0:
        return "better"
    return "same"


def compare(a: ResultSet, b: ResultSet, bench: dict, stream=sys.stdout) -> int:
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload}: missing from {'A' if workload not in a else 'B'}", file=stream)
            continue
        side_a, side_b = a[workload], b[workload]
        n_a = len(next(iter(side_a["metrics"].values())))
        n_b = len(next(iter(side_b["metrics"].values())))
        print(f"{workload} (A: {n_a} runs, B: {n_b} runs)", file=stream)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values_a, values_b = side_a["metrics"][name], side_b["metrics"][name]
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(values_a), quartiles(values_b)
            result = verdict(values_a, values_b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            print(
                f"  {name:<18s} A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]  "
                f"B {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                f"B/A {b_med / a_med:.3f} of {a_med:.6g} {metric['unit']}  "
                f"({metric['better']} is better, bound {metric['bound']:.0%}): {result}",
                file=stream,
            )
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        rose = share_b > share_a
        if rose:
            status = 1
        print(
            f"  failed_share       A {side_a['failed']}/{side_a['attempted']}  "
            f"B {side_b['failed']}/{side_b['attempted']}: {'HIGHER' if rose else 'not higher'}",
            file=stream,
        )
    return status


def write_reference(path: Path, target: Path = REFERENCE_JSON) -> int:
    """Write ``{workload: {seed: sha256}}`` of the full-size runs under ``path``."""
    reference: Dict[str, Dict[str, str]] = defaultdict(dict)
    for document in _documents(path):
        if not document["smoke"]:
            digest = document["fingerprint"]["sha256"]
            reference[document["workload"]][str(document["seed"])] = digest
    target.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{target}: {sum(map(len, reference.values()))} fingerprints")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base results (file or directory)")
    parser.add_argument("b", type=Path, nargs="?", help="results to judge against the base")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the fingerprints under A in reference.json instead")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference(args.a)
    if args.b is None:
        parser.error("B is required unless --write-reference is given")
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return compare(load_results(args.a), load_results(args.b), bench)


if __name__ == "__main__":
    sys.exit(main())
