#!/usr/bin/env python3
"""Layered benchmark for zarpair.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Each workload runs as a closed loop with one client in one process (``all``
starts one process per workload and prints a table). With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it records layer
spans from outside the library and reports the per-layer metrics, per
operation, and checks the predicted separation of the layers. Operations
run until their summed time reaches ``--seconds``, which defaults to
``run_seconds`` in ``BENCHMARK.json``; generating inputs and checking outputs happen between operations and are
not timed. Every run writes a results file, stamped with the environment,
under ``perfbench/results/``; the last line of standard output is the
summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("certify", "cli-lifted", "symmetry", "isomorphism")

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 3  # this process plus two fresh ones
MIN_OPS = 11  # the tail needs ten samples beyond it
MAX_PROBLEMS = 5  # oracle messages kept in the results file


def run_seconds() -> int:
    """The measuring time one run is given in ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/op"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    return "count/op"


@contextmanager
def scratch_dir(name: str):
    """A per-process directory under the results directory for input files."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"work-{name}-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def import_library():
    """Put the checkout's ``src`` first on the path and import zarpair from it."""
    if not (SRC / "zarpair" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zarpair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zarpair

    if Path(zarpair.__file__).resolve().parent != SRC / "zarpair":
        raise SystemExit(f"perfbench: zarpair imported from {zarpair.__file__}")
    return zarpair


def setup(name: str, seed: int, workdir: Path):
    """Import the library, build the workload and run one cold operation of
    each kind. Returns (workload, seconds taken); the cold results are
    checked afterwards, outside the timed span."""
    t0 = perf_counter()
    import_library()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    cold = []
    for k, kind in enumerate(workload.kinds):
        inp = workload.make_input(-1 - k, kind)
        cold.append((inp, workload.run(inp)))
    elapsed = perf_counter() - t0
    for inp, result in cold:
        problems = workload.check(inp, result)
        if problems:
            raise SystemExit(f"perfbench: cold {name} operation failed: {problems}")
    return workload, elapsed


def fresh_setup_time(name: str, seed: int) -> float:
    """Set-up time measured in a new interpreter, so imports are cold."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed: int) -> dict:
    import zarpair

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "backend": zarpair.BACKEND,
        "zarpair_pure": os.environ.get("ZARPAIR_PURE"),
        "git_commit": commit,
        "seed": seed,
    }


class Loop:
    """Closed loop over the seeded operation sequence."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, call=None) -> None:
        """Run operations until their summed time reaches ``seconds``.
        ``call(index, fn, input)`` runs one operation (default: directly)."""
        w = self.workload
        busy = 0.0
        index = 0
        while busy < seconds or index < MIN_OPS:
            inp = w.make_input(index)
            t0 = perf_counter()
            try:
                result = call(index, w.run, inp) if call else w.run(inp)
                error = None
            except Exception as exc:  # any failure counts against the op
                error = f"op {index} raised {exc!r}"
            dt = perf_counter() - t0
            busy += dt
            self.latencies.append(dt)
            if error is None:
                try:
                    problems = w.check(inp, result)
                except Exception as exc:
                    problems = [f"oracle raised {exc!r}"]
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.extend(f"op {index}: {p}" for p in problems)
                del self.problems[MAX_PROBLEMS:]
            index += 1

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def timing(self) -> dict:
        lat = sorted(self.latencies)
        n = len(lat)
        return {
            "throughput_ops_s": n / self.busy,
            "latency_p50_ms": statistics.median(lat) * 1000,
            # highest rank with ten samples beyond it
            "latency_tail_ms": lat[n - 11] * 1000,
            "tail_percentile": 100 * (n - 10) / n,
            "samples": n,
        }


def replay_time(workload, n_ops: int) -> float:
    """Untraced time of operations 0..n_ops-1, the start of the traced run's
    sequence."""
    total = 0.0
    for index in range(n_ops):
        inp = workload.make_input(index)
        t0 = perf_counter()
        workload.run(inp)
        total += perf_counter() - t0
    return total


def measure_end_to_end(name: str, seed: int, seconds: float, loop: Loop,
                       own_setup: float, record: dict) -> dict:
    samples = [own_setup] + [
        fresh_setup_time(name, seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    loop.run(seconds)
    timing = loop.timing()
    values = {
        "throughput_ops_s": timing["throughput_ops_s"],
        "latency_p50_ms": timing["latency_p50_ms"],
        "latency_tail_ms": timing["latency_tail_ms"],
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record["latency_tail"] = {
        "percentile": timing["tail_percentile"], "samples": timing["samples"],
    }
    record["setup_samples_s"] = samples
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def measure_layers(name: str, seed: int, seconds: float, loop: Loop,
                   record: dict) -> dict:
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        loop.run(seconds, call=tracer.run_op)
    finally:
        tracer.uninstall()
    n_ops = len(loop.latencies)
    # Replaying half the sequence untraced is enough for the ratio.
    half = (n_ops + 1) // 2
    overhead = sum(loop.latencies[:half]) / replay_time(loop.workload, half)
    values = tracer.per_layer_metrics(n_ops, overhead)
    record["separation"] = tracer.separation(name)
    spans_file = RESULTS / f"{name}-seed{seed}-spans.jsonl.gz"
    tracer.write_spans(spans_file)
    record["spans_file"] = spans_file.name
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    with scratch_dir(name) as workdir:
        workload, own_setup = setup(name, seed, workdir)
        record = {"workload": name, "seconds": seconds, "trace": int(trace)}
        record["env"] = environment(seed)
        loop = Loop(workload)
        if trace:
            metrics = measure_layers(name, seed, seconds, loop, record)
        else:
            metrics = measure_end_to_end(name, seed, seconds, loop, own_setup, record)
    attempted = len(loop.latencies)
    record.update(
        attempted=attempted,
        failed=loop.failed,
        error_rate=loop.failed / attempted,
        problems=loop.problems,
        metrics=metrics,
    )
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    if trace:
        separation = record["separation"]
        print("separation " + json.dumps(separation))
        if separation["broken"]:
            print(f"perfbench: {name} broke the predicted separation: "
                  + "; ".join(separation["broken"]), file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    print(f"{'workload':<12} {'metric':<40} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name:<12} failed:\n{proc.stderr}")
            status = 1
            continue
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(
            (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").read_text()
        )
        rows = [(k, m["value"], m["unit"]) for k, m in summary["metrics"].items()]
        rows.append(("error_rate", record["error_rate"], "ratio"))
        for key, value, unit in rows:
            print(f"{name:<12} {key:<40} {value:>14.6g}  {unit}")
        if trace:
            sep = record["separation"]
            zero = ", ".join(f"{l}={'0 calls' if z else 'CALLED'}"
                             for l, z in sep["predicted_zero"].items()) or "none predicted"
            largest = sep["largest_self"]
            if "predicted_largest" in sep:
                largest += " (as predicted)" if sep["largest_as_predicted"] else \
                    f" (predicted {sep['predicted_largest']})"
            print(f"{'':<12} (separation: zero-call layers {zero}; "
                  f"largest self time {largest})")
        else:
            tail = record["latency_tail"]
            print(f"{'':<12} (latency_tail_ms is p{tail['percentile']:.1f} "
                  f"of {tail['samples']} operations)")
        status |= not summary["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        with scratch_dir(args.workload) as workdir:
            _, elapsed = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
