"""Paper-scale netsim load points and the DCN fidelity ladder.

Netsim points go through the public builders and ``run_sim``; DCN runs
through ``repro.dcn.run_dcn``. Each netsim operation resets the packet
id counter first, so its statistics repeat exactly and can be held to
the committed references.
"""

from __future__ import annotations

import time
from typing import Dict, List

from wsbench.context import Context, best, cpu_timed, median, timed
from wsbench.ops import CheckFailed, dcn_summary, expect_equal, netsim_summary

#: (name, terminals, SSC radix, load, warmup, measure): the 2048-port
#: radix-64 waferscale Clos idle and loaded, and a radix-256 TH-5-class
#: waferscale Clos under uniform traffic.
IDLE_POINT = ("netsim.idle", 2048, 64, 0.02, 300, 7700)
LOADED_POINT = ("netsim.loaded", 2048, 64, 0.3, 300, 1000)
RADIX256_POINT = ("netsim.radix256_uniform", 1024, 256, 0.3, 100, 200)


def smoke_shape():
    from repro.dcn import DCNShape

    return DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)


def table8_shape():
    """108 wafers (72 leaf + 36 spine), the Table-VIII leaf/spine shape."""
    from repro.dcn import DCNShape

    return DCNShape(n_hosts=2592, wafer_radix=72, ssc_radix=24)


def smoke_config(fidelity: str):
    from repro.dcn import DCNConfig

    from wsbench.inputs import DCN_SMOKE_SEED

    return DCNConfig(
        shape=smoke_shape(), pattern="uniform", duration_cycles=128,
        load=0.1, traffic_seed=DCN_SMOKE_SEED, fidelity=fidelity,
        cycle_wafers=(0, 1) if fidelity == "hybrid" else (),
    )


def table8_config(pattern: str, seed: int):
    from repro.dcn import DCNConfig

    return DCNConfig(
        shape=table8_shape(), pattern=pattern,
        load=0.05, traffic_seed=seed, fidelity="flow", duration_cycles=64,
    )


def calibrate(ctx: Context) -> None:
    """Fit the flow-model service curves (part of set-up)."""
    from repro.dcn.flow import curves_for_shape

    for label, shape in (("smoke", smoke_shape()), ("table8", table8_shape())):
        with ctx.span("dcn.calibrate", shape=label):
            _, seconds = timed(curves_for_shape, shape)
        ctx.add_layer("dcn.calibrate_s", seconds)


def netsim_config(point, seed: int):
    from repro.netsim.config import SimConfig

    _, _, _, _, warmup, measure = point
    return SimConfig(
        warmup_cycles=warmup, measure_cycles=measure, drain_cycles=3000,
        seed=seed,
    )


def _netsim_point(ctx: Context, point, reference: Dict) -> Dict[str, float]:
    """Build, (traced: compile), run and check one load point.

    Returns the CPU seconds ``run_sim`` took on this thread and the
    flits it delivered; a failed point still reports the seconds it
    took, with zero flits.
    """
    from repro.netsim import fast_core
    from repro.netsim.network import waferscale_clos_network
    from repro.netsim.packet import reset_packet_ids
    from repro.netsim.sim import run_sim

    name, terminals, radix, load, warmup, measure = point
    config = netsim_config(point, ctx.inputs.netsim_seed)
    outcome = {"seconds": 0.0, "flits": 0, "cycles": warmup + measure}

    def operation():
        with ctx.span("netsim.build", point=name):
            network, build_s = timed(waferscale_clos_network, terminals, radix)
        ctx.add_layer("netsim.build_s", build_s)
        compile_s = 0.0
        if ctx.traced:
            with ctx.span("netsim.compile", point=name):
                _, compile_s = timed(fast_core.engine_for, network)
            ctx.add_layer("netsim.compile_s", compile_s)
        reset_packet_ids()
        started = time.thread_time()
        try:
            with ctx.span("netsim.run_sim", point=name, load=load):
                with ctx.watch_engine():
                    stats = run_sim(network, "uniform", load, config)
        finally:
            outcome["seconds"] = time.thread_time() - started
        ctx.add_layer("netsim.step_s", max(0.0, outcome["seconds"] - compile_s))
        summary = netsim_summary(stats)
        expect_equal(f"{name} statistics", summary, reference)
        outcome["flits"] = summary["flits_delivered"]
        ctx.add_layer("netsim.sim_cycles", warmup + measure)
        ctx.add_layer("netsim.flits_delivered", summary["flits_delivered"])

    ctx.ops.run(name, operation)
    return outcome


def _dcn_run(ctx: Context, name: str, config, executor: str, reference: Dict):
    from repro.dcn import run_dcn

    def operation():
        with ctx.span("dcn.run_dcn", run=name, executor=executor,
                      fidelity=config.fidelity):
            if executor == "pool":  # the work runs in pool workers
                result, seconds = timed(run_dcn, config, executor=executor)
            elif config.fidelity == "flow":
                result, seconds = cpu_timed(run_dcn, config, executor=executor)
            else:
                with ctx.watch_engine():
                    result, seconds = cpu_timed(run_dcn, config, executor=executor)
        if result.flits_delivered != result.flits_offered or result.truncated:
            raise CheckFailed(
                f"{name}: {result.flits_delivered} of {result.flits_offered} "
                f"flits delivered (truncated={result.truncated})"
            )
        expect_equal(f"{name} statistics", dcn_summary(result), reference)
        ctx.add_layer("dcn.epochs", result.epochs)
        ctx.notes.append(f"{name} ({executor}): {seconds:.3f} s, {result.epochs} epochs")
        return result, seconds

    return ctx.ops.run(name, operation)


def _throughput(result) -> float:
    return result.flits_delivered / result.makespan if result.makespan else 0.0


#: Scale tasks of one round. A run repeats each ``rounds`` times, the
#: short DCN smoke runs two or three times as often; every task is one
#: sample, and the run spreads each kind's tasks evenly over its time.
ROUND_TASKS = {
    "netsim.idle": 1,
    "netsim.loaded": 1,  # the 2048-port loaded point and the radix-256 one
    "dcn.smoke_cycle": 2,
    "dcn.smoke_hybrid": 3,
    "dcn.smoke_flow": 1,
    "dcn.smoke_cycle_pool": 2,
    "dcn.table8_uniform": 1,
    "dcn.table8_dp_allreduce": 1,
}

#: The runs whose times add up to ``dcn.flow_s``.
FLOW_RUNS = ("dcn.smoke_flow", "dcn.table8_uniform", "dcn.table8_dp_allreduce")


class ScalePhase:
    """The paper-scale netsim points and the DCN ladder, one task at a
    time (:data:`ROUND_TASKS`). A timing is the best (fastest) of its
    samples; the first smoke runs give the (deterministic) flow-model
    error.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        refs = ctx.refs["variants"][str(ctx.inputs.variant)]
        smoke_refs = ctx.refs["dcn_smoke"]
        self.refs = refs
        self.dcn_ops = {
            f"dcn.smoke_{fidelity}": (smoke_config(fidelity), "serial", smoke_refs[fidelity])
            for fidelity in ("cycle", "hybrid", "flow")
        }
        self.dcn_ops["dcn.smoke_cycle_pool"] = (
            smoke_config("cycle"), "pool", smoke_refs["cycle"]
        )
        for pattern in ("uniform", "dp_allreduce"):
            self.dcn_ops[f"dcn.table8_{pattern}"] = (
                table8_config(pattern, ctx.inputs.dcn_big_seed), "serial",
                refs[f"dcn.table8_{pattern}"],
            )
        self.rates: Dict[str, List[float]] = {"netsim.idle": [], "netsim.loaded": []}
        self.seconds: Dict[str, List[float]] = {name: [] for name in self.dcn_ops}
        self.epoch_s: Dict[str, List[float]] = {"cycle": [], "hybrid": [], "flow": []}
        self.first: Dict[str, object] = {}

    def run(self, task: str) -> None:
        """One task of :data:`ROUND_TASKS`."""
        ctx, refs = self.ctx, self.refs
        with ctx.span("phase.scale", task=task):
            if task == "netsim.idle":
                idle = _netsim_point(ctx, IDLE_POINT, refs[IDLE_POINT[0]])
                if idle["flits"]:
                    self.rates[task].append(idle["cycles"] / idle["seconds"])
            elif task == "netsim.loaded":
                # A failed point adds its host time and zero flits.
                loaded = [_netsim_point(ctx, point, refs[point[0]])
                          for point in (LOADED_POINT, RADIX256_POINT)]
                loaded_s = sum(p["seconds"] for p in loaded)
                if loaded_s:
                    self.rates[task].append(sum(p["flits"] for p in loaded) / loaded_s)
            else:
                self._dcn(task)

    def _dcn(self, name: str) -> None:
        config, executor, reference = self.dcn_ops[name]
        done = _dcn_run(self.ctx, name, config, executor, reference)
        if done is None:
            return
        result, seconds = done
        self.seconds[name].append(seconds)
        self.first.setdefault(name, result)
        if executor == "serial":
            self.epoch_s[config.fidelity].append(seconds / max(1, result.epochs))

    def finish(self) -> None:
        ctx, seconds = self.ctx, self.seconds
        # Rates: the fastest sample is the highest rate.
        ctx.layers["netsim.idle_cycles_per_s"] = max(self.rates["netsim.idle"], default=0.0)
        ctx.layers["netsim.loaded_flits_per_s"] = max(
            self.rates["netsim.loaded"], default=0.0
        )
        ctx.layers["dcn.cycle_s"] = best(seconds["dcn.smoke_cycle"])
        ctx.layers["dcn.pool_s"] = best(seconds["dcn.smoke_cycle_pool"])
        ctx.layers["dcn.hybrid_s"] = best(seconds["dcn.smoke_hybrid"])
        ctx.layers["dcn.flow_s"] = sum(best(seconds[name]) for name in FLOW_RUNS)
        smoke = [self.first.get(f"dcn.smoke_{f}") for f in ("cycle", "hybrid", "flow")]
        ctx.metrics["dcn_flow_err"] = 0.0
        if all(smoke):
            reference = _throughput(smoke[0])
            hybrid_err = abs(_throughput(smoke[1]) - reference) / reference
            flow_err = abs(_throughput(smoke[2]) - reference) / reference
            ctx.metrics["dcn_flow_err"] = max(hybrid_err, flow_err)
            ctx.layers["dcn.hybrid_err"] = hybrid_err
            ctx.layers["dcn.makespan_cycles"] = smoke[0].makespan
        if ctx.layers["dcn.pool_s"]:
            ctx.layers["dcn.pool_speedup"] = ctx.layers["dcn.cycle_s"] / ctx.layers["dcn.pool_s"]
        for fidelity, values in self.epoch_s.items():
            ctx.layers[f"dcn.epoch_s.{fidelity}"] = median(values)
