#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds results files written by run.py (copy
``perfbench/results`` aside after running the parent commit). For every
workload, trace mode and metric found on both sides it prints the two
medians, their ratio and each side's quartile spread as a share of its
median. Two sets run on different backends are not compared: a compiled
kernel needs a baseline of its own.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path):
    """{(workload, trace): {metric: [values]}} and the set of backends."""
    groups: dict = {}
    backends = set()
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        backends.add(record["env"]["backend"])
        metrics = groups.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return groups, backends


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_backends = load(Path(argv[0]))
    new, new_backends = load(Path(argv[1]))
    if len(base_backends | new_backends) != 1:
        print(
            f"compare: refusing to compare backends {sorted(base_backends)} "
            f"with {sorted(new_backends)}",
            file=sys.stderr,
        )
        return 2
    print(f"{'workload':<12} {'metric':<40} {'base':>12} {'new':>12} {'new/base':>9}"
          f" {'spread':>13}")
    for key in sorted(base.keys() & new.keys()):
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9}"
            print(f"{key[0]:<12} {name:<40} {mb:12.6g} {mn:12.6g} {ratio}"
                  f" {spread(b):6.3f}/{spread(n):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
