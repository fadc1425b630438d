"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are each a directory of result files (as
``run.py`` writes under ``.perfbench/results/``), or a comma-separated
list of files.  A file is either such a result record or a captured
standard output of ``run.py``.  Only untraced results are compared.

For every workload and every end-to-end metric of ``BENCHMARK.json``
it prints each side's median and quartiles, how much worse the new
median is than the base median as a share of the base median, and
whether that stays within the metric's bound.  The exit code is 1 when
any metric is out of bound or a side has no results.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_record(path: Path) -> Dict:
    """One run's result: a result record, or the last JSON line of a
    captured stdout with the workload named on its ``perfbench`` line."""
    text = path.read_text(encoding="utf-8").strip()
    lines = text.splitlines()
    record = json.loads(lines[-1])
    if "workload" not in record:
        header = next(line for line in lines if line.startswith("perfbench workload="))
        fields = dict(item.split("=", 1) for item in header.split()[1:])
        record.update(workload=fields["workload"], trace=int(fields["trace"]))
    return record


def collect(spec: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values]}}`` over every untraced result."""
    paths = [Path(p) for p in spec.split(",")]
    if len(paths) == 1 and paths[0].is_dir():
        paths = sorted(p for p in paths[0].iterdir() if p.is_file())
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = load_record(path)
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = collect(argv[0]), collect(argv[1])
    ok = True
    print(f"{'workload':<14} {'metric':<22} {'base q1/median/q3':>30} {'new q1/median/q3':>30} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for workload in config["workloads"]:
        name = workload["name"]
        for metric in config["end_to_end"]:
            a = base.get(name, {}).get(metric["name"], [])
            b = new.get(name, {}).get(metric["name"], [])
            if not a or not b:
                print(f"{name:<14} {metric['name']:<22} missing results (base {len(a)}, new {len(b)})")
                ok = False
                continue
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            within = worse <= metric["bound"]
            ok = ok and within
            print(f"{name:<14} {metric['name']:<22} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} {'/'.join(f'{v:.4g}' for v in qb):>30} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%}  {'within' if within else 'OUT OF BOUND'}"
                  f"  (n={len(a)}/{len(b)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
