"""The paper suite: all fast-mode experiments through ``run_experiments``.

A cold pass starts from an empty result cache and an empty mapping
store on a warm pool (wall time); warm passes are then answered from
the caches the cold pass filled (CPU time of this thread: they run
in-process). The runner's own profile rows give the per-unit
numbers (the units run in pool workers, outside this process).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

from wsbench.context import Context, best, cpu_timed, median
from wsbench.ops import digest

#: Experiments whose units run the cycle-accurate simulator.
SIM_EXPERIMENTS = ("fig21", "fig22", "fig23", "fig24")


def suite_digests(results) -> Dict[str, str]:
    return {result.experiment_id: digest(result.to_dict()) for result in results}


def _cold_pass(ctx: Context, rows: List[dict]):
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_experiments

    cache_dir = ctx.fresh_dir("suite")
    ctx.use_cache_root(cache_dir)
    started = time.perf_counter()
    with ctx.span("experiments.run_experiments", cache="cold"):
        results = ctx.ops.run(
            "suite.cold_pass",
            lambda: run_experiments(
                list(ctx.inputs.suite_order), fast=True, jobs=None,
                cache=ResultCache(cache_dir), profile_out=rows,
            ),
        )
    return results, time.perf_counter() - started, cache_dir


def _check_digests(ctx: Context, results) -> None:
    reference = ctx.refs["suite"]
    for experiment_id, value in suite_digests(results).items():
        want = reference.get(experiment_id)
        ctx.ops.record(
            f"suite.{experiment_id}",
            None if value == want
            else f"digest {value} differs from reference {want}",
        )


def _unit_layers(ctx: Context, rows: List[dict]) -> None:
    for row in rows:
        if row.get("unit") == "cached":
            continue
        mapped = sum(row.get(k, 0) for k in ("optimized", "store_hits", "memo_hits"))
        ctx.add_layer("experiments.units", 1)
        ctx.add_layer("experiments.unit_busy_s", row.get("seconds", 0.0))
        ctx.add_layer("experiments.dispatch_wait_s", row.get("dispatch_s", 0.0))
        if row.get("dispatch_s", 0.0) > 0.0:  # ran on a pool worker
            ctx.add_layer("parallel.tasks", 1)
        ctx.add_layer("mapping.optimize_calls", row.get("optimized", 0))
        ctx.add_layer("mapping.optimize_s", row.get("optimize_seconds", 0.0))
        ctx.add_layer("mapping.store_hits", row.get("store_hits", 0))
        ctx.add_layer("mapping.store_misses", row.get("optimized", 0))
        if not mapped and row["experiment_id"] not in SIM_EXPERIMENTS:
            ctx.add_layer("core.analytical_s", row.get("seconds", 0.0))


def store_footprint(root: Path) -> Dict[str, float]:
    files = [p for p in root.rglob("*.json") if p.is_file()]
    return {"entries": len(files), "bytes": sum(p.stat().st_size for p in files)}


class SuitePhase:
    """Cold passes and warm passes; each timing is the best (fastest) of
    its passes. Warm passes read the caches the first cold pass filled."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cold_s: List[float] = []
        self.warm_s: List[float] = []
        self.read_s: List[float] = []
        self.cache_dir = None
        self.cold_rows = None

    def cold_pass(self) -> None:
        ctx = self.ctx
        rows: List[dict] = []
        results, seconds, cache_dir = _cold_pass(ctx, rows)
        self.cold_s.append(seconds)
        if results is None:
            return
        _check_digests(ctx, results)
        if self.cache_dir is None:
            self.cache_dir = cache_dir
            self.cold_rows = [r.to_dict() for r in results]
            _unit_layers(ctx, rows)

    def warm_passes(self, count: int) -> None:
        """``count`` warm passes, each one sample."""
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import run_experiments

        ctx = self.ctx
        for _ in range(count if self.cache_dir is not None else 0):
            rows: List[dict] = []
            with ctx.span("experiments.run_experiments", cache="warm"):
                warm = ctx.ops.run(
                    "suite.warm_pass",
                    lambda: cpu_timed(
                        run_experiments, list(ctx.inputs.suite_order),
                        fast=True, jobs=None, cache=ResultCache(self.cache_dir),
                        profile_out=rows,
                    ),
                )
            if warm is None:
                continue
            self.warm_s.append(warm[1])
            if [r.to_dict() for r in warm[0]] != self.cold_rows:
                ctx.ops.fail("suite.warm_pass", "warm rows differ from cold rows")
            ctx.add_layer(
                "mapping.warm_optimize_calls",
                sum(row.get("optimized", 0) for row in rows),
            )
            self.read_s.append(
                sum(r["seconds"] for r in rows if r.get("unit") == "cached")
            )

    def finish(self) -> None:
        ctx = self.ctx
        ctx.layers["experiments.cold_pass_s"] = best(self.cold_s)
        ctx.metrics["suite_warm_s"] = best(self.warm_s)
        ctx.layers["store.read_s"] = median(self.read_s)
        if self.cache_dir is not None:
            footprint = store_footprint(self.cache_dir)
            ctx.add_layer("store.entries", footprint["entries"])
            ctx.add_layer("store.bytes", footprint["bytes"])
