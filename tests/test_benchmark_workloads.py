"""One seeded operation of each benchmark workload, judged by its own oracle.

The workloads and the tracer live in ``perfbench/`` and are loaded here by
path, so a library change that breaks a code path the benchmark times
fails this suite too. The traced operations check the tracer's layer
predictions that do not depend on timing: every required layer is reached
and no layer predicted to stay idle is called. Which layer takes the most
self time is left to the benchmark itself.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracer")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_operation_passes_its_oracle(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    inp = workload.make_input(0)
    assert workload.check(inp, workload.run(inp)) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_operation_reaches_the_predicted_layers(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    inp = workload.make_input(0)
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        result = tracer.run_op(0, workload.run, inp)
    finally:
        tracer.uninstall()
    assert workload.check(inp, result) == []
    separation = tracer.separation(name)
    assert separation["unreached"] == []
    assert [l for l, idle in separation["predicted_zero"].items() if not idle] == []
