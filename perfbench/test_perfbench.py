"""Tests of the benchmark itself: oracles, seeding, spans, and the
agreement between BENCHMARK.json and what run.py reports.

Run from the checkout root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_planted_wrong_expected_answer_raises_error_rate(tmp_path):
    honest = run.Loop(workloads.Isomorphism(3, tmp_path))
    honest.run(0)
    assert honest.failed == 0

    planted = workloads.Isomorphism(3, tmp_path)
    make_input = planted.make_input

    def wrong_negative(index, kind=None):
        (c1, c2, expect), *rest = make_input(index, kind)
        return [(c1, c2, not expect), *rest]

    planted.make_input = wrong_negative
    loop = run.Loop(planted)
    loop.run(0)
    assert loop.failed == len(loop.latencies) >= run.MIN_OPS
    assert "isomorphic=False, want True" in loop.problems[0]


def test_planted_wrong_group_order_is_caught(tmp_path):
    w = workloads.Symmetry(3, tmp_path)
    inp = w.make_input(0)
    result = w.run(inp)
    assert w.check(inp, result) == []
    w.expected[1] = (13, None, None)
    assert any("want 13" in p for p in w.check(inp, result))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(7, tmp_path), cls(7, tmp_path), cls(8, tmp_path)
    for index in (0, 1):
        assert a.describe(a.make_input(index)) == b.describe(b.make_input(index))
    assert a.describe(a.make_input(0)) != other.describe(other.make_input(0))


def test_fans_isomorphic_exactly_when_gcd_agrees():
    from zarpair.combinatorics import is_isomorphic

    base = workloads.fan(6, 1)
    assert is_isomorphic(base, workloads.fan(6, 5)) is not None
    assert is_isomorphic(base, workloads.fan(6, 3)) is None


def _traced(workload, n_ops):
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        for index in range(n_ops):
            tracer.run_op(index, workload.run, workload.make_input(index))
    finally:
        tracer.uninstall()
    return tracer


def test_spans_nest_and_self_times_fit_the_operation(tmp_path):
    tracer = _traced(workloads.Certify(5, tmp_path), 2)
    n = len(tracer.start)
    assert n > 100
    child_time = [0.0] * n
    for sid in range(n):
        start, end, parent = tracer.start[sid], tracer.end[sid], tracer.parent[sid]
        assert start <= end
        if parent < 0:
            assert tracer.span_name(sid) == tracing.ROOT
            continue
        assert parent < sid
        assert tracer.op_id[parent] == tracer.op_id[sid]
        assert tracer.start[parent] <= start and end <= tracer.end[parent]
        child_time[parent] += end - start
    for op in (0, 1):
        spans = [s for s in range(n) if tracer.op_id[s] == op]
        roots = [s for s in spans if tracer.parent[s] < 0]
        assert len(roots) == 1
        wall = tracer.end[roots[0]] - tracer.start[roots[0]]
        self_sum = sum(tracer.end[s] - tracer.start[s] - child_time[s] for s in spans)
        assert self_sum <= wall + 1e-9
    assert sum(tracer.self_s) == pytest.approx(
        sum(tracer.end[s] - tracer.start[s] - child_time[s] for s in range(n))
    )


def test_uninstall_restores_every_binding(tmp_path):
    from zarpair import cli, realization
    from zarpair.cyclotomic import CycloNum

    before = (CycloNum.__mul__, cli.derive_combinatorics, workloads.find_generic_gluing,
              realization.Arrangement.__dict__["from_obj"])
    tracer = tracing.Tracer()
    tracer.install([workloads])
    assert cli.derive_combinatorics is not before[1]
    assert cli.derive_combinatorics is realization.derive_combinatorics
    tracer.uninstall()
    after = (CycloNum.__mul__, cli.derive_combinatorics, workloads.find_generic_gluing,
             realization.Arrangement.__dict__["from_obj"])
    assert after == before


def test_unreached_required_layer_fails_the_traced_run():
    separation = tracing.Tracer().separation("symmetry")
    assert separation["unreached"] == ["automorphisms", "kernel"]
    assert "no call in kernel" in separation["broken"]


def test_broken_separation_is_reported(tmp_path):
    # The isomorphism operations, judged against symmetry's prediction.
    separation = _traced(workloads.Isomorphism(1, tmp_path), 1).separation("symmetry")
    assert separation["largest_self"] == "kernel"
    assert not separation["largest_as_predicted"]
    assert separation["broken"] == [
        "no call in automorphisms", "largest self time in kernel, not automorphisms",
    ]
    held = _traced(workloads.Isomorphism(1, tmp_path), 1).separation("isomorphism")
    assert held["broken"] == []


def test_benchmark_json_lists_what_run_reports(tmp_path):
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    tracer = _traced(workloads.Isomorphism(1, tmp_path), 1)
    reported = tracer.per_layer_metrics(1, 1.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: run.per_layer_unit(k) for k in reported
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    for side, backend in (("base", "pure-python"), ("new", "compiled")):
        (tmp_path / side).mkdir()
        record = {"workload": "symmetry", "trace": 0, "env": {"backend": backend},
                  "metrics": {"latency_p50_ms": {"value": 1.0, "unit": "ms"}}}
        (tmp_path / side / "symmetry-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    (tmp_path / "new" / "symmetry-seed1-trace0.json").write_text(
        (tmp_path / "base" / "symmetry-seed1-trace0.json").read_text()
    )
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    assert "latency_p50_ms" in capsys.readouterr().out
