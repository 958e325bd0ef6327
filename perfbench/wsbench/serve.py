"""Served traffic: ``python -m repro serve`` driven open-loop over HTTP.

One process sends a seeded Poisson schedule at a fixed rate over at
most ``nproc`` keep-alive connections, in one window per round of the
run. Each request is timed from the
moment it was due, so a stall also counts against the requests queued
behind it. The in-process half times ``repro.api.execute`` per query
kind with the response cache off, and holds the repeat probe of a
waferscale ``SimQuery``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from wsbench.context import Context, median, timed
from wsbench.inputs import FILL_QUERIES, WARM_QUERIES, Request
from wsbench.ops import CheckFailed, expect_equal

#: A failed request counts as this latency: beyond any limit one would set.
FAILED_LATENCY_MS = 10_000.0

#: Calls per query kind when timing ``api.execute`` in-process.
API_REPEATS = 3

BOOT_TIMEOUT_S = 60.0


class Server:
    """A ``python -m repro serve`` subprocess on a free loopback port."""

    def __init__(self, root: Path, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        found: List[str] = []
        reader = threading.Thread(
            target=lambda: found.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        line = found[0] if found else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not boot: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Terminate the server and wait until it and its pool have ended.

        SIGTERM, not SIGINT: a process started in the background of a
        non-interactive shell inherits SIGINT as ignored.
        """
        from wsbench.env import alive, descendants

        tree = descendants(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        deadline = time.monotonic() + 10
        for pid in tree[1:]:
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection (JSON bodies, Content-Length)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: Optional[bytes] = None):
        data = body or b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _one(port: int, method: str, path: str, payload=None):
    conn = await Connection.open(port)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = await conn.request(method, path, body)
        return status, json.loads(raw)
    finally:
        await conn.close()


async def _fill(port: int, queries):
    return await asyncio.gather(
        *(_one(port, "POST", route, payload) for route, payload in queries)
    )


def call(port: int, method: str, path: str, payload=None):
    """One request on its own connection: ``(status, parsed body)``."""
    return asyncio.run(_one(port, method, path, payload))


async def _drive(port: int, requests: Tuple[Request, ...], connections: int):
    """Open-loop sender; returns per-request (status, raw, due, queued, done)."""
    queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
    outcomes: List[Optional[tuple]] = [None] * len(requests)
    queued_at = [0.0] * len(requests)
    bodies = [json.dumps(r.payload).encode() for r in requests]
    start = time.perf_counter()

    async def producer():
        for index, request in enumerate(requests):
            delay = start + request.due_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queued_at[index] = time.perf_counter()
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def sender():
        conn = await Connection.open(port)
        try:
            while True:
                index = await queue.get()
                if index is None:
                    return
                request = requests[index]
                try:
                    status, raw = await conn.request("POST", request.route, bodies[index])
                except (ConnectionError, asyncio.IncompleteReadError,
                        IndexError, ValueError) as exc:
                    status, raw = 0, repr(exc).encode()
                    await conn.close()
                    conn = await Connection.open(port)
                outcomes[index] = (status, raw, start + request.due_s,
                                   queued_at[index], time.perf_counter())
        finally:
            await conn.close()

    await asyncio.gather(producer(), *(sender() for _ in range(connections)))
    return outcomes


def _expected_key(payload: dict, route: str, memo: Dict[str, str]) -> str:
    from repro import api

    kind = route.rsplit("/", 1)[1]
    blob = json.dumps(payload, sort_keys=True) + kind
    if blob not in memo:
        memo[blob] = api.query_key(api.query_from_dict({**payload, "kind": kind}))
    return memo[blob]


def percentile_with_tail(values: List[float], q: float) -> float:
    """The ``q`` quantile; refuses unless ten samples lie beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - index - 1 < 10:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than ten beyond p{q * 100:g}"
        )
    return ordered[index]


def boot(ctx: Context, root: Path, repeats: int) -> Server:
    """Boot the server ``repeats`` times (set-up time is their median);
    the last one stays up and gets its warm set computed."""
    boots: List[float] = []
    server = None
    for index in range(repeats):
        with ctx.span("serve.boot"):
            cache_dir = ctx.fresh_dir("serve")
            server, seconds = timed(Server, root, cache_dir)
        boots.append(seconds)
        if index < repeats - 1:
            server.stop()
    ctx.setup_parts["server_boot_s"] = median(boots)
    # The warm set and the fill-only queries, sent two at a time so that
    # each of the server's pool workers pays its first-task cost for
    # every query kind here, not in the measured windows. Warm answers
    # are kept to check that every later warm hit returns the same body.
    started = time.perf_counter()
    queries = WARM_QUERIES + FILL_QUERIES
    try:
        for first in range(0, len(queries), 2):
            pair = queries[first:first + 2]
            with ctx.span("serve.fill", routes=[route for route, _ in pair]):
                answers = asyncio.run(_fill(server.port, pair))
            for (route, payload), (status, body) in zip(pair, answers):
                if status != 200:
                    raise RuntimeError(
                        f"set-up query {route} answered {status}: {body}"
                    )
                if (route, payload) in WARM_QUERIES:
                    ctx.warm_bodies[route] = body
    except BaseException:
        server.stop()
        raise
    ctx.setup_parts["serve_fill_s"] = time.perf_counter() - started
    return server


class ServePhase:
    """The served schedule, sent in windows spread across the run;
    percentiles pool every window."""

    def __init__(self, ctx: Context, server: Server, connections: int, windows: int):
        self.ctx = ctx
        self.server = server
        self.connections = connections
        requests = ctx.inputs.requests
        size = math.ceil(len(requests) / windows)
        self.windows = [requests[i:i + size] for i in range(0, len(requests), size)]
        self.outcomes: List[tuple] = []

    def window(self, index: int) -> None:
        if index >= len(self.windows):
            return
        chunk = self.windows[index]
        # Re-base the chunk's due times so it opens 0.05 s from now.
        offset = chunk[0].due_s - 0.05
        rebased = tuple(dataclasses.replace(r, due_s=r.due_s - offset) for r in chunk)
        with self.ctx.span("serve.window", requests=len(chunk),
                           connections=self.connections):
            outcomes = asyncio.run(_drive(self.server.port, rebased, self.connections))
        self.outcomes.extend(zip(chunk, outcomes))

    def finish(self) -> None:
        ctx = self.ctx
        status, stats = call(self.server.port, "GET", "/v1/stats")
        warm_ms: List[float] = []
        cold_ms: List[float] = []
        all_ms: List[float] = []
        late_ms: List[float] = []
        keys: Dict[str, str] = {}
        cold_bodies: Dict[str, dict] = {}
        for request, (code, raw, due, queued, done) in self.outcomes:
            late_ms.append((queued - due) * 1e3)
            error = None
            if code != 200:
                error = f"{request.route} answered {code}: {raw[:200]!r}"
            else:
                body = json.loads(raw)
                want = _expected_key(request.payload, request.route, keys)
                if body.get("key") != want:
                    error = f"{request.route} answered key {body.get('key')} for {want}"
                elif request.cls == "warm" and body != ctx.warm_bodies[request.route]:
                    error = f"warm {request.route} body differs from its cold body"
                elif request.cls == "cold":
                    first = cold_bodies.setdefault(want, body)
                    if first != body:
                        error = f"duplicate cold {request.route} bodies differ"
            ctx.ops.record(f"serve.{request.cls}{request.route}", error)
            latency = FAILED_LATENCY_MS if error else (done - due) * 1e3
            all_ms.append(latency)
            (warm_ms if request.cls == "warm" else cold_ms).append(latency)

        ctx.metrics["serve_warm_p50_ms"] = median(warm_ms)
        ctx.metrics["serve_cold_p50_ms"] = median(cold_ms)
        ctx.layers["serve.p99_ms"] = percentile_with_tail(all_ms, 0.99)
        ctx.layers["serve.generator_late_ms"] = percentile_with_tail(late_ms, 0.99)
        ctx.notes.append(
            f"serve: {len(all_ms)} requests, warm p50 "
            f"{ctx.metrics['serve_warm_p50_ms']:.2f} ms, cold p50 "
            f"{ctx.metrics['serve_cold_p50_ms']:.2f} ms, p99 "
            f"{ctx.layers['serve.p99_ms']:.2f} ms, max {max(all_ms):.1f} ms"
        )
        if status == 200:
            counters = stats["counters"]
            ctx.layers["serve.cache_hit_rate"] = stats["cache_hit_rate"]
            for name in ("coalesced", "pool_submissions", "errors"):
                ctx.layers[f"serve.{name}"] = counters[name]


def api_queries(seed: int):
    """One query per kind for the in-process ``api.execute`` timings."""
    from repro import api

    return {
        "design": api.DesignQuery(substrate_mm=100.0, mapping_restarts=1),
        "sweep": api.SweepQuery(experiments=("fig01",)),
        "simulate": api.SimQuery(
            network="waferscale", terminals=64, radix=16, loads=(0.2,),
            warmup_cycles=200, measure_cycles=400, seed=seed,
        ),
        "dcn": api.DCNQuery(
            hosts=16, back_to_back=True, duration_cycles=96, load=0.06,
            seed=seed,
        ),
    }


def repeat_probe_query(seed: int):
    from repro import api

    return api.SimQuery(
        network="waferscale", terminals=64, radix=16, loads=(0.2, 0.4),
        warmup_cycles=200, measure_cycles=400, seed=seed,
    )


def dcn_response_summary(result: dict) -> dict:
    return {
        name: result[name]
        for name in ("flits_offered", "flits_delivered", "packets_delivered",
                     "makespan", "epochs", "latency_sum")
    }


def run_in_process(ctx: Context) -> None:
    """``api.execute`` per query kind, cache off, and the repeat probe."""
    from repro import api
    from repro.netsim.packet import reset_packet_ids

    refs = ctx.refs["variants"][str(ctx.inputs.variant)]
    ctx.use_cache_root(ctx.fresh_dir("api"))
    for kind, query in api_queries(ctx.inputs.api_seed).items():
        samples: List[float] = []
        for _ in range(API_REPEATS):

            def operation():
                reset_packet_ids()
                with ctx.span("api.execute", kind=kind):
                    response, seconds = timed(api.execute, query, cache=None)
                result = response["result"]
                if kind == "simulate":
                    expect_equal("api simulate points", result["points"],
                                 refs["api.simulate"])
                elif kind == "dcn":
                    expect_equal("api dcn statistics",
                                 dcn_response_summary(result), refs["api.dcn"])
                return seconds

            seconds = ctx.ops.run(f"api.{kind}", operation)
            if seconds is not None:
                samples.append(seconds)
        ctx.layers[f"api.execute_ms.{kind}"] = median(samples) * 1e3

    def repeat_probe():
        query = repeat_probe_query(ctx.inputs.api_seed)
        reset_packet_ids()
        with ctx.span("api.execute", kind="simulate", probe="repeat"):
            first = api.execute(query, cache=None)
            second = api.execute(query, cache=None)
        expect_equal("first run points", first["result"]["points"],
                     refs["api.simulate_repeat"])
        if first["key"] != second["key"]:
            raise CheckFailed("two executions of one query got different keys")
        if first["result"] != second["result"]:
            latency = [[p["avg_latency_cycles"] for p in run["result"]["points"]]
                       for run in (first, second)]
            raise CheckFailed(
                f"avg_latency_cycles {latency[0]} then {latency[1]} under one "
                f"query_key {first['key']}"
            )

    ctx.ops.run("api.simulate_repeat", repeat_probe)
