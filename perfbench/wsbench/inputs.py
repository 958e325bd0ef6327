"""Workload plans and the inputs generated from ``--seed``.

The program only ever sees what :func:`make_inputs` returns. Inputs
whose simulated statistics are checked against committed references
are drawn from ``N_VARIANTS`` variants (``seed % N_VARIANTS``), each
with its own reference values; everything else (experiment order, the
served request schedule, fresh seeds of cold queries) follows the full
seed. The DCN smoke fabric is the fixed accuracy reference point of
the fidelity ladder, so its traffic does not change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

#: The workloads ``BENCHMARK.json`` names (a test holds the two equal).
WORKLOADS = ("scale_sim", "serve_mix")

#: Seed variants with committed reference values (references.json).
N_VARIANTS = 4

#: Traffic seed of the DCN smoke fabric (fixed accuracy reference).
DCN_SMOKE_SEED = 3


@dataclass(frozen=True)
class Plan:
    """How much of each path one run measures.

    Every run exercises all three paths, because every end-to-end
    metric is reported by every run. A run is two cold suite passes
    around the tasks of ``rounds`` rounds of scale operations (see
    ``wsbench.scale.ROUND_TASKS``), batches of ``warm_passes`` warm
    suite passes and ``serve_windows`` windows of served requests,
    interleaved (:func:`schedule`). The workload picks where the time
    goes: scale rounds (``scale_sim``) or served requests
    (``serve_mix``).
    """

    workload: str
    rounds: int
    warm_passes: int
    serve_rate: float
    serve_requests: int
    serve_windows: int


#: p99 needs ten samples beyond it: 1100 requests leave eleven.
MIN_SERVE_REQUESTS = 1100

#: Measured host seconds outside the rounds and windows: the two cold
#: suite passes, the pool respawn between them and the API calls.
FIXED_S = 9.0

#: Host seconds of one round: its scale tasks and warm batches.
ROUND_S = 6.5

#: Fewest rounds: every timing is the best of at least two samples.
MIN_ROUNDS = 2

#: Warm batches a round, and warm suite passes a batch.
WARM_BATCHES = 4
WARM_PASSES = 5

SERVE_RATE = 150.0

#: Longest served window, in seconds.
WINDOW_S = 2.5

#: Share of the measured seconds spent serving, by workload.
SERVE_SHARE = {"scale_sim": 0.15, "serve_mix": 0.4}


def make_plan(workload: str, seconds: float) -> Plan:
    """Sizes for one run of about ``seconds`` measured seconds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    requests = max(MIN_SERVE_REQUESTS, int(SERVE_RATE * seconds * SERVE_SHARE[workload]))
    serve_s = requests / SERVE_RATE
    return Plan(
        workload=workload,
        rounds=max(MIN_ROUNDS, round((seconds - FIXED_S - serve_s) / ROUND_S)),
        warm_passes=WARM_PASSES,
        serve_rate=SERVE_RATE,
        serve_requests=requests,
        serve_windows=math.ceil(serve_s / WINDOW_S),
    )


def schedule(plan: Plan) -> List[Tuple[str, int]]:
    """The measured tasks in run order, as (kind, index within kind).

    Kinds are the scale tasks, ``suite.warm`` (one batch of warm
    passes) and ``serve.window``. Each kind's tasks sit at evenly
    spaced points of the run, and kinds are offset from one another,
    so the samples of every timing spread over the whole run: the
    host's slow stretches last seconds, and samples taken back to back
    all land in the same one.
    """
    from wsbench.scale import ROUND_TASKS

    counts = {kind: n * plan.rounds for kind, n in ROUND_TASKS.items()}
    counts["suite.warm"] = WARM_BATCHES * plan.rounds
    counts["serve.window"] = plan.serve_windows
    placed = []
    for k, (kind, count) in enumerate(counts.items()):
        phase = (k + 0.5) / len(counts)
        placed.extend(((j + phase) / count, kind, j) for j in range(count))
    return [(kind, index) for _, kind, index in sorted(placed)]


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request of the served mix."""

    due_s: float
    cls: str  # "warm" or "cold"
    route: str
    payload: dict


@dataclass(frozen=True)
class Inputs:
    seed: int
    variant: int
    suite_order: Tuple[str, ...]
    netsim_seed: int
    dcn_big_seed: int
    api_seed: int
    requests: Tuple[Request, ...]


#: Warm set of the served mix: computed once in set-up, then hit.
WARM_QUERIES = (
    ("/v1/design", {"substrate_mm": 100.0, "mapping_restarts": 1}),
    ("/v1/sweep", {"experiments": ["fig01"]}),
    (
        "/v1/simulate",
        {
            "network": "single-router", "terminals": 8, "vcs": 2,
            "buffer_flits": 8, "loads": [0.1], "warmup_cycles": 50,
            "measure_cycles": 100, "seed": 1,
        },
    ),
    # Also fits the flow-model service curve the cold DCN queries reuse.
    ("/v1/dcn", {"hosts": 32, "duration_cycles": 128, "load": 0.05,
                 "fidelity": "flow", "seed": 1}),
)

#: Shares of the served mix (the rest are warm hits).
COLD_SIM_SHARE = 0.07
COLD_DCN_SHARE = 0.03
BURST_SHARE = 0.02


def cold_sim_payload(seed: int) -> dict:
    return {
        "network": "waferscale", "terminals": 32, "radix": 8, "vcs": 2,
        "buffer_flits": 8, "loads": [0.2], "warmup_cycles": 100,
        "measure_cycles": 200, "seed": seed,
    }


def cold_dcn_payload(seed: int) -> dict:
    return {"hosts": 32, "duration_cycles": 128, "load": 0.05,
            "fidelity": "flow", "seed": seed}


#: Fill-only cold queries: with the warm set they give each of the
#: server's two pool workers one query of every kind before measuring.
#: Their seeds lie below the measured schedule's fresh seeds.
FILL_QUERIES = (
    ("/v1/simulate", cold_sim_payload(2)),
    ("/v1/simulate", cold_sim_payload(3)),
    ("/v1/dcn", cold_dcn_payload(2)),
    ("/v1/dcn", cold_dcn_payload(3)),
)


def _schedule(rng: random.Random, plan: Plan) -> Tuple[Request, ...]:
    fresh = rng.randrange(1 << 20, 1 << 30)
    due = 0.5  # first request half a second after the window opens
    requests = []
    while len(requests) < plan.serve_requests:
        due += rng.expovariate(plan.serve_rate)
        draw = rng.random()
        if draw < BURST_SHARE:
            fresh += 1
            payload = cold_sim_payload(fresh)
            requests.append(Request(due, "cold", "/v1/simulate", payload))
            requests.append(Request(due, "cold", "/v1/simulate", dict(payload)))
        elif draw < BURST_SHARE + COLD_SIM_SHARE:
            fresh += 1
            requests.append(
                Request(due, "cold", "/v1/simulate", cold_sim_payload(fresh))
            )
        elif draw < BURST_SHARE + COLD_SIM_SHARE + COLD_DCN_SHARE:
            fresh += 1
            requests.append(Request(due, "cold", "/v1/dcn", cold_dcn_payload(fresh)))
        else:
            route, payload = WARM_QUERIES[rng.randrange(len(WARM_QUERIES))]
            requests.append(Request(due, "warm", route, payload))
    return tuple(requests[: plan.serve_requests])


def make_inputs(seed: int, plan: Plan) -> Inputs:
    """Everything the run feeds the program, as a function of the seed."""
    from repro.experiments.base import EXPERIMENT_IDS

    rng = random.Random(seed)
    variant = seed % N_VARIANTS
    order = list(EXPERIMENT_IDS)
    rng.shuffle(order)
    return Inputs(
        seed=seed,
        variant=variant,
        suite_order=tuple(order),
        netsim_seed=101 + variant,
        dcn_big_seed=201 + variant,
        api_seed=301 + variant,
        requests=_schedule(rng, plan),
    )
