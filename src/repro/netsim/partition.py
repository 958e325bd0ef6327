"""Incremental partition driver: step one wafer's network epoch by epoch.

The batch engines in :mod:`repro.netsim.fast_core` run a whole
simulation in one call (pregenerated Bernoulli stream or replay
schedule, then ``_finish``).  Partitioned multi-wafer simulation
(:mod:`repro.dcn`) needs something they don't offer: a *live* engine
that accepts externally scheduled injections as they become known and
advances to a target cycle, keeping all state resident between calls —
because the next epoch's injections depend on what every other wafer
delivered during this one.

:class:`WaferPartition` is that live engine for one pristine
network. It steps on one of three engines (``engine_name`` says
which):

* ``"c"`` — the compiled kernel of :mod:`repro.netsim._fast_step`.
  One kernel state block stays resident across ``advance()`` calls;
  ``enqueue()`` appends to its event and packet tables and
  ``advance()`` calls the resumable ``fast_advance`` entry once;
* ``"numpy"`` — the vectorized
  :class:`~repro.netsim.fast_core.FastEngine` step loop, when the
  kernel declines (routers beyond 64 ports, no C toolchain,
  ``engine="numpy"``);
* ``"scalar"`` — the object simulator, when the network does not
  compile (``REPRO_SCALAR_NETSIM=1`` keeps the usual oracle escape
  hatch).

Packet ids are **partition-local** and assigned here, in deterministic
offer order (events are consumed sorted by ``(cycle, source terminal,
tag)``), *not* drawn from the global counter in
:mod:`repro.netsim.packet`.  That is what makes a partitioned run
bit-identical to a monolithic one: Clos routing hashes the packet id
across spines/channels, so the id sequence each wafer sees must depend
only on that wafer's injection history, never on how many other
partitions share the process.

All engines produce identical deliveries for identical event streams
(the differential harness pins them to each other); ``advance`` sorts
its delivery report by ``(arrival cycle, terminal, tag)`` so they
return byte-identical bundles.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engines import resolve_netsim_engine
from repro.netsim import fast_core
from repro.netsim.network import NetworkModel
from repro.netsim.packet import Packet

#: One externally scheduled injection:
#: ``(cycle, src_terminal, dst_terminal, size_flits, tag)``.  ``tag``
#: is an opaque caller id (the DCN layer uses its global packet id) and
#: is echoed back in the delivery report.
Event = Tuple[int, int, int, int, int]

#: Per-packet columns of the engine's packet store (indexed by the
#: partition-local packet id) and their fill for unused slots.
_PACKET_COLUMNS = (
    ("pk_dst", 0), ("pk_size", 0), ("pk_inject", -1), ("pk_arrive", -1),
)

#: Kernel-side per-event columns (event index == packet id): offer
#: schedule, per-terminal pending links, and the delivery log, which
#: holds at most one entry per packet between two harvests.
_EVENT_COLUMNS = (
    ("ev_when", 0), ("ev_term", 0), ("pend_next", -1),
    ("log_term", 0), ("log_pidx", 0),
)


class WaferPartition:
    """One wafer's network, steppable in externally bounded epochs."""

    def __init__(self, network: NetworkModel, engine: str = "auto"):
        resolved = resolve_netsim_engine(engine)
        self.engine = fast_core.engine_for(network, None, engine=resolved)
        self.network = network
        self._sched: deque = deque()
        self._last: Optional[Event] = None
        self._next_gid = 0
        self._delivered_packets = 0
        self.offered_flits = 0
        self.offered_packets = 0
        #: Kernel state block ``(ffi, lib, st, aux)`` when the compiled
        #: kernel steps this partition, resident across ``advance``.
        self._c = None
        if self.engine is None:
            self.engine_name = "scalar"
            self._tags: List[int] = []
            self._recv_cursor = [0] * network.n_terminals
        else:
            empty = np.zeros(0, dtype=np.int64)
            self._c = self.engine._c_build(empty, empty)
            self.engine_name = "numpy" if self._c is None else "c"
            self._pk_tag = empty

    # -- caller surface -------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.network.cycle if self.engine is None else self.engine.cycle

    @property
    def inflight_flits(self) -> int:
        if self.engine is None:
            return self.network.in_flight_flits()
        return int(self.engine.inflight)

    def enqueue(self, events: List[Event]) -> None:
        """Schedule injections; sorted, at-or-after the current cycle.

        Events must arrive sorted (plain tuple order) and never in the
        partition's past — the epoch barrier guarantees both, and the
        determinism of the local packet-id sequence depends on it.
        Terminals must exist and packets hold at least one flit: the
        compiled kernel indexes its arrays with them unchecked.
        """
        if not events:
            return
        table = np.array(events, dtype=np.int64)
        n = self.network.n_terminals
        ends = table[:, 1:3]
        if ((ends < 0) | (ends >= n)).any() or (table[:, 3] < 1).any():
            raise ValueError(
                f"events need terminals in [0, {n}) and sizes >= 1"
            )
        if events[0][0] < self.cycle:
            raise ValueError(
                f"event {events[0]} scheduled before cycle {self.cycle}"
            )
        for earlier, later in zip(events, events[1:]):
            if later < earlier:
                raise ValueError(f"events not sorted at {later}")
        if self._last is not None and events[0] < self._last:
            raise ValueError("events overlap previously enqueued schedule")
        self._last = events[-1]
        if self._c is None:
            self._sched.extend(events)
            return
        # Kernel path: packet ids are event indexes (``pk_base`` 0), so
        # appending to the kernel's event table assigns them in offer
        # order, exactly as the other engines' offer loops do.
        engine = self.engine
        first = self._next_gid
        self._next_gid = last = first + len(events)
        self._grow(last)
        when, term, dst, size, tag = table.T
        _, _, st, aux = self._c
        aux["ev_when"][first:last] = when
        aux["ev_term"][first:last] = term
        engine.pk_dst[first:last] = dst
        engine.pk_size[first:last] = size
        self._pk_tag[first:last] = tag
        st.n_ev = last

    def advance(self, to_cycle: int):
        """Run to ``to_cycle``; return the epoch's delivery bundle.

        Returns ``(terms, tags, arrives, counters)``: three int64
        arrays — delivery terminal, caller tag, arrival cycle — sorted
        by ``(arrival, terminal, tag)``, plus a counters dict
        (``inflight``, ``delivered_flits``, ``delivered_packets``,
        ``offered_flits``, ``offered_packets``).  Every event scheduled
        strictly before ``to_cycle`` is consumed.
        """
        if self.engine is None:
            self._advance_scalar(to_cycle)
            terms, tags, arrives = self._harvest_scalar()
        elif self._c is None:
            self._advance_fast(to_cycle)
            terms, tags, arrives = self._harvest_fast()
        else:
            self._advance_c(to_cycle)
            terms, tags, arrives = self._harvest_c()
        if terms.size > 1:
            order = np.lexsort((tags, terms, arrives))
            terms, tags, arrives = terms[order], tags[order], arrives[order]
        return terms, tags, arrives, self.counters()

    def counters(self) -> Dict[str, int]:
        if self.engine is None:
            delivered_flits = sum(
                t.flits_received for t in self.network.terminals
            )
            delivered_packets = sum(
                self._recv_cursor[t.terminal_id]
                for t in self.network.terminals
            )
        else:
            delivered_flits = int(self.engine.delivered_total)
            delivered_packets = self._delivered_packets
        return {
            "inflight": self.inflight_flits,
            "offered_flits": self.offered_flits,
            "offered_packets": self.offered_packets,
            "delivered_flits": delivered_flits,
            "delivered_packets": delivered_packets,
        }

    # -- vectorized engine: packet store shared by both step paths ------

    def _grow(self, need: int) -> None:
        """Make room for ``need`` packets (amortised doubling)."""
        capacity = self._pk_tag.size
        if need <= capacity:
            return
        new_cap = max(256, capacity * 2, need)

        def grown(old, fill):
            arr = np.full(new_cap, fill, dtype=np.int64)
            arr[:old.size] = old
            return arr

        engine = self.engine
        self._pk_tag = grown(self._pk_tag, 0)
        for name, fill in _PACKET_COLUMNS:
            setattr(engine, name, grown(getattr(engine, name), fill))
        if self._c is None:
            return
        ffi, _, st, aux = self._c
        for name, fill in _EVENT_COLUMNS:
            aux[name] = grown(aux[name], fill)
        # The kernel holds raw pointers into these buffers: re-point
        # every grown array here, and only here.
        arrays = [(name, aux[name]) for name, _ in _EVENT_COLUMNS]
        arrays += [(name, getattr(engine, name)) for name, _ in _PACKET_COLUMNS]
        for name, arr in arrays:
            setattr(st, name, ffi.cast("int64_t *", arr.ctypes.data))

    def _bundle(self, terms: np.ndarray, gids: np.ndarray):
        self._delivered_packets += int(gids.size)
        return terms, self._pk_tag[gids], self.engine.pk_arrive[gids]

    # -- compiled kernel path -------------------------------------------

    def _advance_c(self, to_cycle: int) -> None:
        engine = self.engine
        _, lib, st, _ = self._c
        first = int(st.ev_index)
        rc = lib.fast_advance(st, to_cycle)
        engine.cycle = int(st.cycle)
        engine.inflight = int(st.inflight)
        engine.delivered_total = int(st.delivered_total)
        engine._c_check(rc, st)
        last = int(st.ev_index)
        self.offered_packets += last - first
        self.offered_flits += int(engine.pk_size[first:last].sum())

    def _harvest_c(self):
        _, _, st, aux = self._c
        n = int(st.log_count)
        st.log_count = 0
        return self._bundle(
            aux["log_term"][:n].copy(), aux["log_pidx"][:n].copy()
        )

    # -- numpy step-loop path (routers beyond 64 ports, no compiler) ----

    def _offer_fast(self, event: Event) -> None:
        cycle, src, dst, size, tag = event
        engine = self.engine
        gid = self._next_gid
        self._next_gid += 1
        self._grow(self._next_gid)
        engine.pk_dst[gid] = dst
        engine.pk_size[gid] = size
        self._pk_tag[gid] = tag
        self.offered_flits += size
        self.offered_packets += 1
        engine._offer(src, gid, size)

    def _fast_idle(self) -> bool:
        engine = self.engine
        return (
            engine.inflight == 0
            and engine._n_active == 0
            and not engine._rc_buckets
            and engine._va_stalled is None
            and all(not q for q in engine._cls_q)
        )

    def _advance_fast(self, to_cycle: int) -> None:
        engine = self.engine
        sched = self._sched
        step = engine._step
        while engine.cycle < to_cycle:
            now = engine.cycle
            while sched and sched[0][0] <= now:
                self._offer_fast(sched.popleft())
            if not engine.inflight and self._fast_idle():
                # Nothing in flight anywhere: cycles until the next
                # scheduled event (or the epoch end) are pure no-ops.
                engine.cycle = (
                    min(sched[0][0], to_cycle) if sched else to_cycle
                )
                if engine.cycle >= to_cycle:
                    return
                continue
            step()

    def _harvest_fast(self):
        log = self.engine._deliv_log
        if not log:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        terms = np.concatenate([t for t, _ in log])
        gids = np.concatenate([p for _, p in log])
        # The log only feeds this harvest; drop consumed entries so an
        # arbitrarily long run holds O(in-flight) state, not O(total).
        log.clear()
        return self._bundle(terms, gids)

    # -- scalar (object oracle) path -----------------------------------

    def _offer_scalar(self, event: Event) -> None:
        cycle, src, dst, size, tag = event
        gid = self._next_gid
        self._next_gid += 1
        packet = object.__new__(Packet)
        packet.packet_id = gid
        packet.src = src
        packet.dst = dst
        packet.size_flits = size
        packet.create_cycle = cycle
        packet.inject_cycle = -1
        packet.arrive_cycle = -1
        self._tags.append(tag)
        self.offered_flits += size
        self.offered_packets += 1
        self.network.terminals[src].offer_packet(packet)

    def _scalar_idle(self) -> bool:
        network = self.network
        return (
            not network._link_events
            and not network._credit_events
            and network.in_flight_flits() == 0
            and not any(
                r.rc_pending or r.active_out_ports for r in network.routers
            )
        )

    def _advance_scalar(self, to_cycle: int) -> None:
        network = self.network
        sched = self._sched
        step = network.step
        while network.cycle < to_cycle:
            now = network.cycle
            while sched and sched[0][0] <= now:
                self._offer_scalar(sched.popleft())
            if self._scalar_idle():
                network.cycle = (
                    min(sched[0][0], to_cycle) if sched else to_cycle
                )
                if network.cycle >= to_cycle:
                    return
                continue
            step()

    def _harvest_scalar(self):
        terms: List[int] = []
        tags: List[int] = []
        arrives: List[int] = []
        cursor = self._recv_cursor
        for terminal in self.network.terminals:
            received = terminal.packets_received
            start = cursor[terminal.terminal_id]
            if start >= len(received):
                continue
            for packet in received[start:]:
                terms.append(terminal.terminal_id)
                tags.append(self._tags[packet.packet_id])
                arrives.append(packet.arrive_cycle)
            cursor[terminal.terminal_id] = len(received)
        return (
            np.asarray(terms, dtype=np.int64),
            np.asarray(tags, dtype=np.int64),
            np.asarray(arrives, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Calibration probes (flow-level fidelity, see repro/dcn/flow.py)
# ----------------------------------------------------------------------

def calibration_probe(
    network: NetworkModel,
    load: float,
    inject_cycles: int,
    seed: int = 0,
    size_flits: int = 4,
    engine: str = "auto",
    drain_bound: int = 50_000,
) -> Dict[str, float]:
    """Short cycle-accurate run measuring one wafer's service behaviour.

    Drives ``network`` through a :class:`WaferPartition` with uniform
    Bernoulli injections at ``load`` (flits per terminal per cycle,
    spread over ``size_flits``-flit packets) for ``inject_cycles``,
    then drains.  Returns the measurements the flow-level fidelity
    mode fits its service curve from:

    ``mean_latency``
        mean create-to-delivery latency over all delivered packets;
    ``delivered_flits_per_cycle``
        delivered throughput over the *second half* of the injection
        window — past warm-up, before the drain tail, so at saturating
        loads this approaches the wafer's service capacity;
    ``offered_load`` / ``delivered`` / ``offered`` / ``drain_cycle``
        bookkeeping (flit counts and the cycle the run went idle).

    Deterministic in ``(network shape, load, inject_cycles, seed,
    size_flits)`` — probes are cacheable by construction.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError(f"probe load must be in (0, 1] (got {load})")
    partition = WaferPartition(network, engine=engine)
    n = network.n_terminals
    rng = random.Random(seed)
    packet_prob = load / size_flits
    events: List[Event] = []
    for cycle in range(inject_cycles):
        for src in range(n):
            if rng.random() < packet_prob:
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
                events.append((cycle, src, dst, size_flits, len(events)))
    events.sort()
    partition.enqueue(events)

    half = max(1, inject_cycles // 2)
    arrives: List[np.ndarray] = []
    creates = {tag: event[0] for tag, event in enumerate(events)}
    terms, tags, arr, counters = partition.advance(half)
    arrives.append(arr)
    tag_log = [tags]
    delivered_at_half = counters["delivered_flits"]
    terms, tags, arr, counters = partition.advance(inject_cycles)
    arrives.append(arr)
    tag_log.append(tags)
    window_flits = counters["delivered_flits"] - delivered_at_half
    window_cycles = inject_cycles - half

    while counters["inflight"] and partition.cycle < drain_bound:
        terms, tags, arr, counters = partition.advance(partition.cycle + 256)
        arrives.append(arr)
        tag_log.append(tags)

    all_arrives = np.concatenate(arrives) if arrives else np.zeros(0)
    all_tags = np.concatenate(tag_log) if tag_log else np.zeros(0)
    latencies = [
        int(arrive) - creates[int(tag)]
        for arrive, tag in zip(all_arrives, all_tags)
    ]
    return {
        "mean_latency": (
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "delivered_flits_per_cycle": window_flits / window_cycles,
        "offered_load": counters["offered_flits"] / (n * inject_cycles),
        "offered": float(counters["offered_flits"]),
        "delivered": float(counters["delivered_flits"]),
        "drain_cycle": float(partition.cycle),
    }
