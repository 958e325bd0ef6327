"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wsbench import metrics, scale
from wsbench.context import Context
from wsbench.inputs import N_VARIANTS, WORKLOADS, make_inputs, make_plan
from wsbench.ops import KNOWN_DEFECTS, Ops, expect_equal, load_references, netsim_summary
from wsbench.serve import percentile_with_tail
from wsbench.spans import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_are_runnable_and_well_formed():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_result_line_carries_every_metric_by_name_with_unit():
    values = {m.name: 1.0 for m in metrics.END_TO_END}
    line = metrics.result_metrics(metrics.END_TO_END, values)
    assert list(line) == [m.name for m in metrics.END_TO_END]
    assert line["setup_s"] == {"value": 1.0, "unit": "s"}
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.result_metrics(metrics.END_TO_END, values)


def test_seed_changes_the_generated_inputs_and_nothing_else():
    for workload in WORKLOADS:
        plan = make_plan(workload, 30)
        assert make_inputs(7, plan) == make_inputs(7, plan)
        first, second = make_inputs(7, plan), make_inputs(8, plan)
        assert first.suite_order != second.suite_order
        assert first.requests != second.requests
        assert first.variant != second.variant
        assert sorted(first.suite_order) == sorted(second.suite_order)
        assert len(first.requests) == len(second.requests) == plan.serve_requests
    # The plan (what is measured and how much) never sees the seed.
    assert make_plan("serve_mix", 30) == make_plan("serve_mix", 30)


def test_every_variant_has_references():
    refs = load_references()
    assert sorted(refs["variants"]) == [str(v) for v in range(N_VARIANTS)]
    assert set(refs["dcn_smoke"]) == {"cycle", "hybrid", "flow"}


def _context(tmp_path, refs):
    plan = make_plan("scale_sim", 30)
    return Context(plan, make_inputs(1, plan), refs, tmp_path, traced=False)


SMALL_POINT = ("netsim.small", 64, 16, 0.2, 50, 150)


def test_wrong_netsim_reference_is_a_counted_failure(tmp_path):
    from repro.netsim.network import waferscale_clos_network
    from repro.netsim.packet import reset_packet_ids
    from repro.netsim.sim import run_sim

    ctx = _context(tmp_path, {})
    network = waferscale_clos_network(64, 16)
    reset_packet_ids()
    stats = run_sim(network, "uniform", 0.2,
                    scale.netsim_config(SMALL_POINT, ctx.inputs.netsim_seed))
    right = netsim_summary(stats)

    outcome = scale._netsim_point(ctx, SMALL_POINT, right)
    assert (ctx.ops.attempted, ctx.ops.failed) == (1, 0)
    assert outcome["flits"] == right["flits_delivered"]

    wrong = dict(right, latency_sum=right["latency_sum"] + 1)
    outcome = scale._netsim_point(ctx, SMALL_POINT, wrong)
    assert (ctx.ops.attempted, ctx.ops.failed) == (2, 1)
    assert outcome["flits"] == 0 and outcome["seconds"] > 0
    assert ctx.ops.unexpected[0][0] == "netsim.small"


def test_wrong_dcn_reference_is_a_counted_failure(tmp_path):
    ctx = _context(tmp_path, {})
    ctx.use_cache_root(tmp_path)
    reference = load_references()["dcn_smoke"]["flow"]
    config = scale.smoke_config("flow")
    assert scale._dcn_run(ctx, "dcn.smoke_flow", config, "serial", reference)
    wrong = dict(reference, flits_delivered=reference["flits_delivered"] - 1)
    assert scale._dcn_run(ctx, "dcn.smoke_flow", config, "serial", wrong) is None
    assert (ctx.ops.attempted, ctx.ops.failed) == (2, 1)


def test_only_known_defects_keep_a_run_correct():
    ops = Ops()
    ops.record("netsim.radix256_uniform", "UnboundLocalError: T")
    ops.run("api.simulate_repeat", lambda: expect_equal("x", 1, 2))
    assert ops.failed == 2 and not ops.unexpected
    assert set(KNOWN_DEFECTS) == {"netsim.radix256_uniform", "api.simulate_repeat"}
    ops.record("suite.fig07", "digest differs")
    assert ops.unexpected == [("suite.fig07", "digest differs")]
    assert ops.attempted == 3


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_with_tail(list(range(1100)), 0.99) == 1088
    with pytest.raises(ValueError):
        percentile_with_tail(list(range(1000)), 0.995)


def test_self_time_subtracts_children():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert inner.parent == outer.span_id and inner.trace_id == outer.trace_id
    self_s = tracer.self_times()
    assert self_s["outer"] == pytest.approx(outer.duration - inner.duration)
    events = tracer.chrome_events()
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" for e in events)
    disabled = Tracer(enabled=False)
    with disabled.span("outer"):
        pass
    assert disabled.spans == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mix",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
