"""WaferPartition: epoch-driven stepping, engine parity, conservation."""

import random

import numpy as np
import pytest

from repro.engines import resolve_netsim_engine
from repro.netsim._fast_step import load_kernel
from repro.netsim.network import waferscale_clos_network
from repro.netsim.partition import WaferPartition
from tests.netsim.golden_scenarios import FAILURE_SCENARIOS

#: Every engine a partition can be asked for.
ENGINES = ("c", "numpy", "scalar")


def _network():
    return waferscale_clos_network(
        16, 8, num_vcs=4, buffer_flits_per_port=16
    )


def _workload(duration=64, seed=9, n=16):
    rng = random.Random(seed)
    events = []
    tag = 100
    for cycle in range(duration):
        for src in range(n):
            if rng.random() < 0.1:
                dst = (src + rng.randrange(1, n)) % n
                events.append((cycle, src, dst, 4, tag))
                tag += 1
    events.sort()
    return events


def _bursty_workload(bursts=4, burst_cycles=120, gap=1500, seed=21, n=16):
    """Mixed-size bursts above the wafer's capacity, separated by idle
    gaps well over 1000 cycles; ~1150 packets in all."""
    rng = random.Random(seed)
    events = []
    for burst in range(bursts):
        start = burst * (burst_cycles + gap)
        for cycle in range(start, start + burst_cycles):
            for src in range(n):
                if rng.random() < 0.15:
                    dst = (src + rng.randrange(1, n)) % n
                    size = rng.choice((1, 2, 5, 8))
                    events.append((cycle, src, dst, size, len(events)))
    events.sort()
    return events


def _drain(
    partition, events, epoch=16, deadline=20_000, trace=None, upfront=False
):
    """Feed ``events`` epoch by epoch and run until in-flight hits 0.

    ``trace``, if a list, receives each epoch's bundle as bytes plus
    its counters — what engine parity compares.  ``upfront`` enqueues
    the whole schedule before the first epoch instead.
    """
    bundles = []
    cursor = 0
    end = 0
    if upfront:
        partition.enqueue(events)
        cursor = len(events)
    last = events[-1][0] if events else -1
    while end <= last or partition.inflight_flits:
        end += epoch
        assert end < deadline, "partition failed to drain"
        batch = []
        while cursor < len(events) and events[cursor][0] < end:
            batch.append(events[cursor])
            cursor += 1
        partition.enqueue(batch)
        terms, tags, arrives, counters = partition.advance(end)
        bundles.append((terms, tags, arrives))
        if trace is not None:
            trace.append((
                terms.tobytes(), tags.tobytes(), arrives.tobytes(), counters
            ))
    return bundles, counters


def test_enqueue_rejects_bad_schedules():
    partition = WaferPartition(_network())
    partition.enqueue([(0, 0, 5, 4, 1), (3, 1, 6, 4, 2)])
    partition.advance(8)
    with pytest.raises(ValueError):
        partition.enqueue([(2, 0, 5, 4, 3)])  # in the past
    with pytest.raises(ValueError):
        partition.enqueue([(20, 0, 5, 4, 4), (9, 1, 6, 4, 5)])  # unsorted
    partition.enqueue([(30, 0, 5, 4, 6)])
    with pytest.raises(ValueError):
        partition.enqueue([(25, 1, 6, 4, 7)])  # behind prior schedule


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("event", [
    (0, 16, 5, 4, 1),   # no such source terminal
    (0, 0, -1, 4, 1),   # no such destination
    (0, 0, 5, 0, 1),    # empty packet
])
def test_enqueue_rejects_events_outside_the_wafer(engine, event):
    partition = WaferPartition(_network(), engine=engine)
    with pytest.raises(ValueError):
        partition.enqueue([event])
    _, counters = _drain(partition, [(0, 0, 5, 4, 1)])  # still usable
    assert counters["delivered_packets"] == 1


def test_delivery_bundle_echoes_tags_sorted():
    partition = WaferPartition(_network())
    events = _workload(duration=32)
    bundles, counters = _drain(partition, events)
    seen_tags = np.concatenate([tags for _, tags, _ in bundles])
    assert sorted(seen_tags.tolist()) == sorted(e[4] for e in events)
    for terms, tags, arrives in bundles:
        rows = list(zip(arrives.tolist(), terms.tolist(), tags.tolist()))
        assert rows == sorted(rows)
    assert counters["inflight"] == 0


def test_conservation_and_counters():
    partition = WaferPartition(_network())
    events = _workload(duration=48, seed=3)
    _, counters = _drain(partition, events)
    assert counters["offered_packets"] == len(events)
    assert counters["offered_flits"] == sum(e[3] for e in events)
    assert counters["delivered_packets"] == counters["offered_packets"]
    assert counters["delivered_flits"] == counters["offered_flits"]


@pytest.mark.parametrize("epoch", [4, 16, 128])
def test_epoch_length_does_not_change_deliveries(epoch):
    reference, _ = _drain(WaferPartition(_network()), _workload(), epoch=16)
    probe, _ = _drain(WaferPartition(_network()), _workload(), epoch=epoch)

    def flat(bundles):
        terms = np.concatenate([b[0] for b in bundles])
        tags = np.concatenate([b[1] for b in bundles])
        arrives = np.concatenate([b[2] for b in bundles])
        order = np.lexsort((tags, terms, arrives))
        return terms[order].tolist(), tags[order].tolist(), arrives[order].tolist()

    assert flat(reference) == flat(probe)


@pytest.mark.skipif(
    resolve_netsim_engine("numpy") == "scalar", reason="scalar engine forced"
)
def test_scalar_and_fast_engines_agree():
    fast = WaferPartition(_network(), engine="numpy")
    scalar = WaferPartition(_network(), engine="scalar")
    assert fast.engine_name != "scalar"
    assert scalar.engine_name == "scalar"
    events = _workload(duration=40, seed=5)
    fast_bundles, fast_counters = _drain(fast, events)
    scalar_bundles, scalar_counters = _drain(scalar, events)
    assert len(fast_bundles) == len(scalar_bundles)
    for (ft, fg, fa), (st, sg, sa) in zip(fast_bundles, scalar_bundles):
        assert ft.tolist() == st.tolist()
        assert fg.tolist() == sg.tolist()
        assert fa.tolist() == sa.tolist()
    assert fast_counters == scalar_counters


def _kernel_in_use():
    return resolve_netsim_engine("c") == "c" and load_kernel() is not None


@pytest.mark.parametrize("upfront", [False, True])
@pytest.mark.parametrize("epoch", [1, 4, 16, 128])
def test_c_numpy_scalar_bundles_are_byte_identical(epoch, upfront):
    events = _bursty_workload()
    runs = {engine: [] for engine in ENGINES}
    for engine, trace in runs.items():
        _drain(
            WaferPartition(_network(), engine=engine), events, epoch=epoch,
            trace=trace, upfront=upfront,
        )
    assert runs["c"] == runs["numpy"] == runs["scalar"]
    assert runs["c"][-1][3]["delivered_packets"] == len(events)


def test_kernel_tables_regrow_mid_run():
    partition = WaferPartition(_network(), engine="c")
    if partition.engine_name != "c":
        pytest.skip("compiled kernel not available")
    capacities = []
    grow = partition._grow

    def watched(need):
        grow(need)
        capacities.append(partition._pk_tag.size)

    partition._grow = watched
    events = _bursty_workload()
    bundles, counters = _drain(partition, events)
    assert len(set(capacities)) >= 3  # first allocation + two regrowths
    reference, scalar_counters = _drain(
        WaferPartition(_network(), engine="scalar"), events
    )
    assert counters == scalar_counters
    for got, want in zip(bundles, reference):
        assert [c.tolist() for c in got] == [c.tolist() for c in want]


@pytest.mark.skipif(not _kernel_in_use(), reason="compiled kernel not in use")
def test_engine_label_names_the_stepping_engine():
    assert WaferPartition(_network(), engine="c").engine_name == "c"
    assert WaferPartition(_network(), engine="numpy").engine_name == "numpy"


@pytest.mark.skipif(
    resolve_netsim_engine("c") == "scalar", reason="scalar engine forced"
)
def test_routers_beyond_64_ports_run_on_numpy_and_say_so():
    network = waferscale_clos_network(256, 128)
    partition = WaferPartition(network, engine="c")
    assert partition.engine.P > 64
    assert partition.engine_name == "numpy"
    events = sorted(
        (cycle, src, (src + 37) % 256, 4, cycle * 256 + src)
        for cycle in range(0, 20, 5)
        for src in range(0, 256, 16)
    )
    _, counters = _drain(partition, events)
    assert counters["delivered_packets"] == len(events)
    assert counters["delivered_flits"] == counters["offered_flits"]


def test_kernel_error_matches_numpy_error_text():
    """A credit-protocol violation inside a partition surfaces the
    numpy loop's exact AssertionError, whichever engine steps it."""
    factory = FAILURE_SCENARIOS["overcredited_link"][0]
    n = factory().n_terminals
    rng = random.Random(19)
    events = [
        (cycle, src, (src + rng.randrange(1, n)) % n, 4, cycle * n + src)
        for cycle in range(400)
        for src in range(n)
        if rng.random() < 0.9 / 4
    ]
    messages = {}
    for engine in ENGINES:
        with pytest.raises(AssertionError) as info:
            _drain(WaferPartition(factory(), engine=engine), events)
        messages[engine] = str(info.value)
    assert "buffer overflow (credit protocol violated)" in messages["c"]
    assert messages["c"] == messages["numpy"] == messages["scalar"]


def _slow_credit_network():
    """Credits take 50 cycles to return, flits far fewer: a wafer can
    deliver its last flit while credits are still on the wire."""
    network = _network()
    for channel, _, _ in network._credit_sinks:
        channel.latency = 50
    return network


def test_idle_jump_waits_for_credits_in_transit():
    events = sorted(
        (start + offset, src, (src + 5) % 16, 4, start * 16 + offset * 16 + src)
        for start in (0, 400, 800)
        for offset in range(6)
        for src in range(16)
    )
    runs = {engine: [] for engine in ENGINES}
    for engine, trace in runs.items():
        _drain(
            WaferPartition(_slow_credit_network(), engine=engine),
            events, epoch=64, trace=trace,
        )
    assert runs["c"] == runs["numpy"] == runs["scalar"]
    assert runs["c"][-1][3]["delivered_packets"] == len(events)
