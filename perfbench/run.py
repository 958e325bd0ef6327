"""Benchmark of the waferscale-switch reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale_sim --seed 1 --seconds 40 --trace 0

Workloads: ``scale_sim`` and ``serve_mix``. Every run sets up
(imports, C kernel, worker pool, server, DCN calibration), then runs
the paper suite, the paper-scale netsim points with the DCN fidelity
ladder, and the served mix; the workload decides which gets the extra
work. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which also writes a Chrome
trace under ``.perfbench_out/``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up steps that are cheap enough to repeat; set-up time takes the
#: median of the repeats.
SETUP_REPEATS = 3

#: Longest temporary directory that leaves room for a socket name
#: within the 107-byte Unix socket path limit.
MAX_TMP_PATH = 60

#: No-op round trips timed on the warm pool.
DISPATCH_PROBES = 50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spawn_pool(ctx):
    """Spawn the shared pool and wait until every worker answered."""
    from repro.parallel import effective_cpu_count, shared_pool

    workers = effective_cpu_count()
    with ctx.span("parallel.spawn", workers=workers):
        started = time.perf_counter()
        pool = shared_pool(workers)
        futures = [pool.submit(time.sleep, 0.05) for _ in range(workers)]
        for future in futures:
            future.result()
        return time.perf_counter() - started


def setup(ctx):
    """Everything before measuring; returns the running server."""
    import repro.experiments.runner  # noqa: F401 — imported here to count as set-up
    import repro.netsim.sim  # noqa: F401
    from repro import api
    from repro.dcn import run_dcn
    from repro.experiments.base import EXPERIMENT_IDS
    from repro.experiments.cache import cache_key
    from repro.netsim import _fast_step
    from repro.parallel import shutdown_shared_executor

    from wsbench import scale, serve
    from wsbench.context import median

    parts = ctx.setup_parts
    parts["imports_s"] = time.perf_counter() - STARTED
    with ctx.span("netsim.load_kernel"):
        started = time.perf_counter()
        _fast_step.load_kernel()
        parts["kernel_s"] = time.perf_counter() - started
    # Source fingerprints (computed once a process) of the API and of
    # every experiment's result-cache key.
    with ctx.span("api.fingerprint"):
        started = time.perf_counter()
        api.query_key(api.SweepQuery())
        for experiment_id in EXPERIMENT_IDS:
            cache_key(experiment_id, fast=True)
        parts["fingerprint_s"] = time.perf_counter() - started
    spawns = []
    for index in range(SETUP_REPEATS):
        spawns.append(_spawn_pool(ctx))
        if index < SETUP_REPEATS - 1:
            shutdown_shared_executor()
    parts["pool_spawn_s"] = median(spawns)
    ctx.layers["parallel.spawn_s"] = median(spawns)
    server = serve.boot(ctx, ROOT, SETUP_REPEATS)
    try:
        dcn_root = ctx.fresh_dir("dcn")
        ctx.use_cache_root(dcn_root)
        ctx.dcn_root = dcn_root
        started = time.perf_counter()
        scale.calibrate(ctx)
        parts["calibrate_s"] = time.perf_counter() - started
        # The pool workers' first partitioned DCN run imports and builds
        # what later runs reuse; measured runs start warm.
        started = time.perf_counter()
        with ctx.span("dcn.pool_warmup"):
            run_dcn(scale.smoke_config("cycle"), executor="pool")
        parts["pool_warmup_s"] = time.perf_counter() - started
    except BaseException:
        server.stop()
        raise
    return server


def dispatch_probe(ctx):
    from repro.parallel import shared_pool

    from wsbench.context import median

    pool = shared_pool()
    samples = []
    with ctx.span("parallel.dispatch_probe", tasks=DISPATCH_PROBES):
        for _ in range(DISPATCH_PROBES):
            started = time.perf_counter()
            pool.submit(os.getpid).result()
            samples.append(time.perf_counter() - started)
    ctx.layers["parallel.dispatch_p50_ms"] = median(samples) * 1e3
    ctx.add_layer("parallel.tasks", DISPATCH_PROBES)


def measure(ctx, server):
    """The measured part: a cold suite pass, then the scale tasks, warm
    batches and served windows interleaved (``inputs.schedule``), a
    second cold pass on a fresh pool, then the in-process API calls.
    Returns wall seconds.
    """
    from repro.parallel import effective_cpu_count, shutdown_shared_executor

    from wsbench import env, scale, serve, suite
    from wsbench.inputs import schedule

    plan = ctx.plan
    suite_phase = suite.SuitePhase(ctx)
    scale_phase = scale.ScalePhase(ctx)
    served = serve.ServePhase(ctx, server, effective_cpu_count(), plan.serve_windows)
    peak = [env.tree_peak_rss_mb()]
    workers = {"pids": env.pool_worker_pids(), "deaths": 0}
    phase_s = {"suite": 0.0, "scale": 0.0, "serve": 0.0, "api": 0.0}

    def checkpoint(phase, started):
        now = env.pool_worker_pids()
        workers["deaths"] += len(workers["pids"] - now) if now else 0
        workers["pids"] = now
        peak.append(env.tree_peak_rss_mb())
        seconds = time.perf_counter() - started
        phase_s[phase] += seconds
        gc.collect()
        return seconds

    started = time.perf_counter()
    dispatch_probe(ctx)
    mark = time.perf_counter()
    suite_phase.cold_pass()
    ctx.notes.append(f"cold pass: {checkpoint('suite', mark):.2f} s")
    ctx.use_cache_root(ctx.dcn_root)
    for kind, index in schedule(plan):
        mark = time.perf_counter()
        if kind == "suite.warm":
            suite_phase.warm_passes(plan.warm_passes)
            checkpoint("suite", mark)
        elif kind == "serve.window":
            served.window(index)
            checkpoint("serve", mark)
        else:
            scale_phase.run(kind)
            checkpoint("scale", mark)
    # The workers' in-process mapping memo would make a second pass
    # warm; a fresh pool makes it cold again.
    mark = time.perf_counter()
    shutdown_shared_executor()
    _spawn_pool(ctx)
    workers["pids"] = env.pool_worker_pids()
    suite_phase.cold_pass()
    ctx.notes.append(f"cold pass: {checkpoint('suite', mark):.2f} s")
    mark = time.perf_counter()
    serve.run_in_process(ctx)
    checkpoint("api", mark)
    measured = time.perf_counter() - started
    ctx.notes.append("phase seconds: " + ", ".join(
        f"{phase} {seconds:.1f} ({100 * seconds / measured:.0f}%)"
        for phase, seconds in phase_s.items()
    ))
    suite_phase.finish()
    scale_phase.finish()
    served.finish()
    ctx.metrics["peak_rss_mb"] = max(peak)
    ctx.layers["parallel.worker_deaths"] = workers["deaths"]
    return measured


def source_fingerprint() -> str:
    """Digest of the program's source files and of this benchmark's."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if (path.suffix in (".py", ".c", ".h", ".json") and path.is_file()
                    and "_cc_cache" not in path.parts):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measured_history(args) -> Path:
    """Where untraced runs of this workload, program and run length
    record their measured seconds, for the traced run to compare with."""
    seconds = f"{args.seconds:g}"
    name = f"measured-{args.workload}-{seconds}s-{source_fingerprint()}.json"
    return OUT_DIR / name


def _untraced_reference(args, measured_path: Path):
    """Median measured seconds of untraced runs of this workload, on
    this source and run length; makes one if there is none."""
    if not measured_path.exists():
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=str(ROOT), stdout=subprocess.DEVNULL,
        )
        try:
            returncode = child.wait(timeout=170)
        finally:
            if child.poll() is None:
                # SIGTERM lets the child stop its own server and pool.
                child.terminate()
                child.wait()
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, child.args)
    values = json.loads(measured_path.read_text())
    return sorted(values)[len(values) // 2]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    # Temporary files (the pool's forkserver socket, the compiler's
    # intermediates) stay in the checkout too, unless the path would
    # make a Unix socket address too long.
    scratch = OUT_DIR / "tmp"
    if len(str(scratch)) <= MAX_TMP_PATH:
        scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = None

    from repro.parallel import shutdown_shared_executor

    from wsbench import env, metrics
    from wsbench.context import Context
    from wsbench.inputs import make_inputs, make_plan
    from wsbench.ops import KNOWN_DEFECTS, load_references

    # A terminated run still stops its server and pool (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    plan = make_plan(args.workload, args.seconds)
    inputs = make_inputs(args.seed, plan)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    ctx = Context(plan, inputs, load_references(), workdir, bool(args.trace))
    server = None
    try:
        server = setup(ctx)
        ctx.metrics["setup_s"] = sum(ctx.setup_parts.values())
        measured = measure(ctx, server)
    finally:
        try:
            if server is not None:
                server.stop()
            shutdown_shared_executor()
        finally:
            env.stop_all_children()
            shutil.rmtree(workdir, ignore_errors=True)

    ops = ctx.ops
    ctx.metrics["ops_failed_frac"] = ops.failed / max(1, ops.attempted)
    environment = env.environment(args.seed)
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"plan: {plan}")
    print("setup: " + json.dumps({k: round(v, 4) for k, v in ctx.setup_parts.items()}))
    for note in ctx.notes:
        print(note)
    for name, error in ops.failures:
        label = "known defect" if name in KNOWN_DEFECTS else "FAILED"
        print(f"{label}: {name}: {error}")

    measured_path = measured_history(args)
    if args.trace:
        reference = _untraced_reference(args, measured_path)
        ctx.layers["trace.overhead_pct"] = 100.0 * (measured / reference - 1.0)
        ctx.layers["trace.spans"] = len(ctx.tracer.spans)
        ctx.layers["netsim.c_kernel_frac"] = (
            ctx.netsim_c_ops / ctx.netsim_ops if ctx.netsim_ops else 0.0
        )
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        ctx.tracer.write(trace_path, {
            "environment": environment, "workload": args.workload,
            "layers": ctx.layers, "untraced_measured_s": reference,
            "traced_measured_s": measured,
        })
        print(f"trace: {trace_path.relative_to(ROOT)}")
        specs, values = metrics.PER_LAYER, ctx.layers
    else:
        OUT_DIR.mkdir(exist_ok=True)
        history = json.loads(measured_path.read_text()) if measured_path.exists() else []
        measured_path.write_text(json.dumps((history + [measured])[-20:]))
        specs, values = metrics.END_TO_END, ctx.metrics
    print(json.dumps({
        "correct": not ops.unexpected,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics.result_metrics(specs, values),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
