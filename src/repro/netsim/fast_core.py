"""Batch-vectorized netsim core (struct-of-arrays engine).

The object simulator in :mod:`repro.netsim.router` /
:mod:`repro.netsim.network` is cycle-accurate but interpreter-bound:
every router pipeline stage is a Python loop over per-object state.
This module re-implements the *same* cycle-by-cycle semantics over
numpy struct-of-arrays so one ``step`` advances every router with a
handful of array ops:

* **State layout** — input-VC ring buffers (``qbuf``/``qhead``/
  ``qlen``), VC allocation state (``state``/``rc_out``/``rc_ovc``),
  per-port occupancy, credit counters and output-VC ownership bitmasks
  are flat arrays indexed by ``row = (router*P + port)*V + vc`` and
  ``g = router*P + port``.
* **Transport** — links and credit channels collapse into a few
  per-``(kind, delay)`` delay classes, each a deque of per-cycle
  batches; at most one batch is appended per class per cycle so
  arrivals are strictly increasing and delivery is a single pop.
* **VC allocation** — pending head flits are bucketed by their RC
  completion cycle; free output VCs are picked round-robin with a
  rotate-and-isolate bitmask trick (sequential fallback when two
  packets contend for the same output port in one cycle).
* **Switch allocation** — one winner per output port, one grant per
  input port, round-robin by circular distance from the port's
  pointer. Winners for every port are picked at once; the rare
  same-input-port conflicts are resolved by committing the conflict-
  free prefix (in the object engine's ascending-port order) and
  re-arbitrating the rest.

The engine is held to *bit parity* with the object simulator: the
golden corpus (``tests/netsim/goldens``) and the differential fuzz
harness (``tests/netsim/test_differential.py``) require identical
latency samples, flit counts and error behaviour. Deterministic
tie-breaking contract: VA scans VCs round-robin from the per-port
pointer; SA picks the minimum circular distance ``(port*V + vc -
pointer) mod (P*V)`` (distances are injective, so there are no ties);
ports arbitrate in ascending index order.

Set ``REPRO_SCALAR_NETSIM=1`` to force the object-model oracle
(mirrors ``REPRO_SCALAR_MAPPING=1`` for the mapping kernels).
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import Optional

import numpy as np

from repro import engines
from repro.netsim import _fast_step
from repro.netsim import packet as packet_module
from repro.netsim.packet import Flit, Packet
from repro.netsim.router import ACTIVE, IDLE, ROUTE
from repro.netsim.stats import RunStats
from repro.netsim.telemetry import LatencyHistogram

#: Set to ``"1"`` to force the scalar (object-model) simulator.
SCALAR_ENV = "REPRO_SCALAR_NETSIM"


def use_scalar_engine() -> bool:
    """Whether the scalar oracle is forced via the environment."""
    return os.environ.get(SCALAR_ENV, "") == "1"


def netsim_engine_tag(engine: str = "auto") -> str:
    """Provenance tag for experiment outputs."""
    return (
        "scalar"
        if engines.resolve_netsim_engine(engine) == "scalar"
        else "vectorized"
    )


# Flit codes pack (packet id, flit index) into one int64.
_SHIFT = 20
_IDX_MASK = (1 << _SHIFT) - 1

# log2 lookup for isolated bits (the VA free-VC scan); caps V at 16.
_MAX_VCS = 16
_LOG2 = np.zeros(1 << _MAX_VCS, dtype=np.int64)
for _i in range(_MAX_VCS):
    _LOG2[1 << _i] = _i

_I64_ONE = np.int64(1)


class _Incompatible(Exception):
    """Network shape the vectorized engine does not support."""


class _LazyPackets:
    """List-alike of delivered :class:`Packet` objects, built on touch.

    ``Terminal.packets_received`` can hold tens of thousands of
    packets after a run; most callers never look at them (the engine
    computes latency stats from its arrays). This defers the object
    construction until something iterates, indexes or appends —
    at which point it behaves exactly like the list the scalar engine
    would have produced.
    """

    __slots__ = ("_mk", "_pids", "_items")

    def __init__(self, mk, pids):
        self._mk = mk
        self._pids = pids
        self._items = None

    def _real(self):
        items = self._items
        if items is None:
            mk = self._mk
            items = self._items = [mk(pid) for pid in self._pids.tolist()]
        return items

    def __len__(self):
        items = self._items
        return len(self._pids) if items is None else len(items)

    def __bool__(self):
        return len(self) > 0

    def __iter__(self):
        return iter(self._real())

    def __getitem__(self, i):
        return self._real()[i]

    def append(self, packet):
        self._real().append(packet)

    def __eq__(self, other):
        return self._real() == other

    def __repr__(self):
        return repr(self._real())


def engine_for(network, telemetry=None, engine: str = "auto") -> Optional["FastEngine"]:
    """Compile a vectorized engine for ``network``, or ``None``.

    ``engine`` is a :data:`repro.engines.NETSIM_ENGINES` name, resolved
    once here (callers that resolved already may pass the concrete
    value through — resolution is idempotent). ``None`` falls back to
    the scalar object simulator: a ``"scalar"`` resolution (requested
    or env-forced), an un-tagged route function (no ``route_spec``), a
    network that is not pristine, or a shape outside the engine's
    support (non-uniform radix/VC/buffer config, >16 VCs) all decline
    rather than risk divergence.
    """
    resolved = engines.resolve_netsim_engine(engine)
    if resolved == "scalar":
        return None
    if getattr(network, "route_spec", None) is None:
        return None
    try:
        return FastEngine(network, telemetry, use_c=resolved == "c")
    except _Incompatible:
        return None


class FastEngine:
    """One compiled run-engine for a pristine :class:`NetworkModel`."""

    def __init__(self, network, telemetry=None, use_c: bool = True):
        if network.telemetry is not None:
            raise _Incompatible("a telemetry sink is already attached")
        if network.cycle != 0 or network.in_flight_flits() != 0:
            raise _Incompatible("network is not pristine")
        routers = network.routers
        terminals = network.terminals
        if not routers or not terminals:
            raise _Incompatible("empty network")
        P = routers[0].n_ports
        V = routers[0].num_vcs
        CAP = routers[0].buffer_cap
        for r in routers:
            if r.n_ports != P or r.num_vcs != V or r.buffer_cap != CAP:
                raise _Incompatible("non-uniform router shapes")
            if r.rc_pending or r.active_out_ports:
                raise _Incompatible("router has in-flight state")
        if V > _MAX_VCS:
            raise _Incompatible("too many VCs for the bitmask allocator")
        self.use_c = use_c
        self.P = P
        # Telemetry is instrumented only in the compiled kernel (the
        # numpy step loop carries no counters); without it the run
        # falls back to the scalar object engine, which *is* the
        # instrumented implementation.
        if telemetry is not None and self.c_kernel() is None:
            raise _Incompatible("telemetry requires the compiled kernel")
        self.telemetry = telemetry

        self.network = network
        self.R = R = len(routers)
        self.V = V
        self.CAP = CAP
        self.T = T = len(terminals)
        self.PV = PV = P * V
        RP = R * P
        RPV = R * PV
        self._full_mask = np.int64((1 << V) - 1)

        # --- per-input-VC (row) state ------------------------------
        self.qbuf = np.zeros(RPV * CAP, dtype=np.int64)
        self.qhead = np.zeros(RPV, dtype=np.int64)
        self.qlen = np.zeros(RPV, dtype=np.int64)
        self.state = np.zeros(RPV, dtype=np.int8)
        self.rc_out = np.full(RPV, -1, dtype=np.int64)
        self.rc_ovc = np.full(RPV, -1, dtype=np.int64)
        self.gout = np.full(RPV, -1, dtype=np.int64)

        # --- per-port (g = router*P + port) state ------------------
        self.occ = np.zeros(RP, dtype=np.int64)
        self.ocred = np.zeros(RP, dtype=np.int64)
        self.oterm = np.zeros(RP, dtype=bool)
        self.ovc_mask = np.zeros(RP, dtype=np.int64)
        self.vc_ptr = np.zeros(RP, dtype=np.int64)
        self.sa_ptr = np.zeros(RP, dtype=np.int64)
        self.fwd_g = np.zeros(RP, dtype=np.int64)
        self.rc_delay = np.zeros(RP, dtype=np.int64)
        # SA-respawned heads are seen by VA one cycle later at minimum.
        self.rc_delay_respawn = np.zeros(RP, dtype=np.int64)
        self.send_cls = np.full(RP, -1, dtype=np.int64)
        self.send_dest = np.full(RP, -1, dtype=np.int64)
        self.cred_cls = np.full(RP, -1, dtype=np.int64)
        self.cred_dest = np.full(RP, -1, dtype=np.int64)

        # --- terminals ---------------------------------------------
        self.tcred = np.zeros(T, dtype=np.int64)
        self.tvc = np.zeros(T, dtype=np.int64)
        self.tsent = np.zeros(T, dtype=np.int64)
        self.tpsent = np.zeros(T, dtype=np.int64)
        self.trecv = np.zeros(T, dtype=np.int64)
        self.tbacklog = np.zeros(T, dtype=np.int64)
        self.cur_pid = np.full(T, -1, dtype=np.int64)
        self.cur_idx = np.zeros(T, dtype=np.int64)
        self.inj_cls = np.full(T, -1, dtype=np.int64)
        self.inj_dest = np.full(T, -1, dtype=np.int64)
        self._pending = [deque() for _ in range(T)]

        # --- transport delay classes -------------------------------
        # kind: 'rf' flit->router, 'tf' flit->terminal, 'inj' inject
        # flit->router, 'rc' credit->router, 'tc' credit->terminal.
        self._cls_kind = []
        self._cls_delay = []
        self._cls_q = []
        self._cls_index = {}

        self._compile(network)

        # --- run bookkeeping ---------------------------------------
        self.cycle = 0
        self.inflight = 0
        self.delivered_total = 0
        self._n_active = 0
        self._total_backlog = 0
        self._rc_buckets = {}
        self._va_stalled = None
        self._deliv_log = []
        # packet store (grown by pregen / replay scheduling)
        self.pk_base = 0
        self.pk_dst = np.zeros(0, dtype=np.int64)
        self.pk_size = np.zeros(0, dtype=np.int64)
        self.pk_create = np.zeros(0, dtype=np.int64)
        self.pk_inject = np.zeros(0, dtype=np.int64)
        self.pk_arrive = np.zeros(0, dtype=np.int64)
        self.pk_src = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _class(self, kind: str, delay: int) -> int:
        key = (kind, delay)
        ci = self._cls_index.get(key)
        if ci is None:
            ci = len(self._cls_kind)
            self._cls_index[key] = ci
            self._cls_kind.append(kind)
            self._cls_delay.append(delay)
            self._cls_q.append(deque())
        return ci

    def _compile(self, network) -> None:
        routers = network.routers
        terminals = network.terminals
        P, V = self.P, self.V
        router_index = {id(r): i for i, r in enumerate(routers)}
        term_index = {id(t): i for i, t in enumerate(terminals)}
        self._link_index = {
            id(link): i for i, (link, _, _, _) in enumerate(network.links)
        }
        link_map = {
            id(link): (kind, sink, port)
            for link, kind, sink, port in network.links
        }
        credit_router = {}
        self._credit_sink_index = {}
        for ci_, (channel, router, port) in enumerate(network._credit_sinks):
            g = router_index[id(router)] * P + port
            credit_router[id(channel)] = g
            self._credit_sink_index[id(channel)] = ci_
        term_credit = {
            id(t.credit_channel): i
            for i, t in enumerate(terminals)
            if t.credit_channel is not None
        }

        for ri, router in enumerate(routers):
            for p in range(P):
                g = ri * P + p
                self.ocred[g] = router.out_credits[p]
                self.oterm[g] = router.out_is_terminal[p]
                self.vc_ptr[g] = router._vc_arbiters[p]._pointer
                self.sa_ptr[g] = router._sa_arbiters[p]._pointer
                d = (
                    router.ingress_routing_delay
                    if p in router.terminal_in_ports
                    else router.routing_delay
                )
                self.rc_delay[g] = d
                self.rc_delay_respawn[g] = max(d, 1)
                link = router.out_link[p]
                if link is not None:
                    entry = link_map.get(id(link))
                    if entry is None:
                        raise _Incompatible("unregistered link")
                    kind, sink, port = entry
                    delay = link.latency + router.pipeline_delay
                    if kind == "router":
                        self.send_cls[g] = self._class("rf", delay)
                        self.send_dest[g] = router_index[id(sink)] * P + port
                    else:
                        self.send_cls[g] = self._class("tf", delay)
                        self.send_dest[g] = term_index[id(sink)]
                channel = router.in_credit_channel[p]
                if channel is not None:
                    dest = credit_router.get(id(channel))
                    if dest is not None:
                        self.cred_cls[g] = self._class("rc", channel.latency)
                        self.cred_dest[g] = dest
                    else:
                        t = term_credit.get(id(channel))
                        if t is None:
                            raise _Incompatible("unregistered credit channel")
                        self.cred_cls[g] = self._class("tc", channel.latency)
                        self.cred_dest[g] = t

        for ti, terminal in enumerate(terminals):
            link = terminal.inject_link
            if link is None:
                raise _Incompatible("unattached terminal")
            kind, sink, port = link_map[id(link)]
            if kind != "router":
                raise _Incompatible("inject link must feed a router")
            self.inj_cls[ti] = self._class("inj", link.latency)
            self.inj_dest[ti] = router_index[id(sink)] * P + port
            self.tcred[ti] = terminal.credits
            self.tvc[ti] = terminal._next_vc

        self._flit_classes = [
            i
            for i, k in enumerate(self._cls_kind)
            if k in ("rf", "tf", "inj")
        ]
        self._credit_classes = [
            i for i, k in enumerate(self._cls_kind) if k in ("rc", "tc")
        ]

        self._route = self._compile_route(network.route_spec)

    def _compile_route(self, spec):
        kind, params = spec
        P, V = self.P, self.V
        if kind == "mesh":
            tpr = params["terminals_per_router"]
            nc = params["neighbor_channels"]
            cols = params["cols"]

            def route(r, dst, pid):
                dst_router = dst // tpr
                my_r, my_c = r // cols, r % cols
                dst_r, dst_c = dst_router // cols, dst_router % cols
                # Directions: 0=N, 1=E, 2=S, 3=W; X first.
                direction = np.where(
                    my_c != dst_c,
                    np.where(dst_c > my_c, 1, 3),
                    np.where(dst_r > my_r, 2, 0),
                )
                remote = tpr + direction * nc + pid % nc
                return np.where(dst_router == r, dst % tpr, remote)

            return route
        if kind == "clos":
            n = params["n_terminals"]
            k = params["ssc_radix"]
            adaptive = params["spine_selection"] == "adaptive"
            down = k // 2
            leaves = 2 * n // k
            spines = n // k
            cpp = down // spines
            uplink0 = down
            n_up = spines * cpp
            ocred = self.ocred

            def route(r, dst, pid):
                dst_leaf = dst // down
                spine_out = dst_leaf * cpp + pid % cpp
                is_leaf = r < leaves
                if adaptive:
                    base_g = r * P + uplink0
                    cred = ocred[base_g[:, None] + np.arange(n_up)[None, :]]
                    up_out = uplink0 + np.argmax(cred, axis=1)
                else:
                    up_out = down + (pid % spines) * cpp + (pid // spines) % cpp
                leaf_out = np.where(r == dst_leaf, dst % down, up_out)
                return np.where(is_leaf, leaf_out, spine_out)

            return route
        if kind == "single":

            def route(r, dst, pid):
                return dst.copy()

            return route
        raise _Incompatible(f"unknown route spec {kind!r}")

    # ------------------------------------------------------------------
    # Per-cycle phases (must mirror NetworkModel.step exactly)
    # ------------------------------------------------------------------

    def _step(self) -> None:
        now = self.cycle
        # 1. Flit deliveries (links whose latency elapsed).
        for ci in self._flit_classes:
            q = self._cls_q[ci]
            while q and q[0][0] == now:
                _, dest, code, vc, src = q.popleft()
                if self._cls_kind[ci] == "tf":
                    self._recv_terminal(dest, code, now)
                else:
                    self._recv_router(dest, code, vc, now)
        # 2. Credit returns, then terminal injection.
        for ci in self._credit_classes:
            q = self._cls_q[ci]
            while q and q[0][0] == now:
                _, dest, _, _, _ = q.popleft()
                if self._cls_kind[ci] == "rc":
                    self.ocred[dest] += 1
                else:
                    self.tcred[dest] += 1
        if self._total_backlog:
            self._inject(now)
        # 3. Router pipelines: VA for every router, then SA.
        self._va(now)
        if self._n_active:
            self._sa(now)
        self.cycle = now + 1

    # --- phase 1 helpers ---------------------------------------------

    def _recv_router(self, dest, code, vc, now) -> None:
        occ = self.occ
        occ[dest] += 1
        over = occ[dest] > self.CAP
        if over.any():
            g = int(dest[over][0])
            raise AssertionError(
                f"router {g // self.P} port {g % self.P}: buffer overflow "
                "(credit protocol violated)"
            )
        rows = dest * self.V + vc
        qhead, qlen = self.qhead, self.qlen
        slot = qhead[rows] + qlen[rows]
        slot[slot >= self.CAP] -= self.CAP
        self.qbuf[rows * self.CAP + slot] = code
        empty = qlen[rows] == 0
        qlen[rows] += 1
        if empty.any():
            erows = rows[empty]
            idle = self.state[erows] == IDLE
            if idle.any():
                irows = erows[idle]
                icodes = code[empty][idle]
                if ((icodes & _IDX_MASK) != 0).any():
                    raise AssertionError("body flit reached an idle VC front")
                self.state[irows] = ROUTE
                self._sched_rc(irows, self.rc_delay[irows // self.V], now)

    def _recv_terminal(self, dest, code, now) -> None:
        self.trecv[dest] += 1
        self.inflight -= dest.size
        self.delivered_total += dest.size
        pid = code >> _SHIFT
        tail = (code & _IDX_MASK) == self.pk_size[pid - self.pk_base] - 1
        if tail.any():
            tp = pid[tail]
            self.pk_arrive[tp - self.pk_base] = now
            self._deliv_log.append((dest[tail], tp))

    def _sched_rc(self, rows, delays, now) -> None:
        buckets = self._rc_buckets
        d0 = int(delays[0])
        if rows.size == 1 or (delays == d0).all():
            buckets.setdefault(now + d0, []).append(rows)
            return
        for d in np.unique(delays):
            sel = rows[delays == d]
            buckets.setdefault(now + int(d), []).append(sel)

    # --- phase 2: injection ------------------------------------------

    def _inject(self, now) -> None:
        cand = np.flatnonzero(self.tbacklog > 0)
        ok = self.tcred[cand] > 0
        rows = cand[ok]
        if rows.size == 0:
            return
        pid = self.cur_pid[rows]
        idx = self.cur_idx[rows]
        head = idx == 0
        if head.any():
            hrows = rows[head]
            nxt = self.tvc[hrows] + 1
            nxt[nxt >= self.V] = 0
            self.tvc[hrows] = nxt
            self.pk_inject[pid[head] - self.pk_base] = now
        vc = self.tvc[rows]
        self.tcred[rows] -= 1
        self.tsent[rows] += 1
        self.tbacklog[rows] -= 1
        self._total_backlog -= rows.size
        sizes = self.pk_size[pid - self.pk_base]
        tail = idx == sizes - 1
        if tail.any():
            self.tpsent[rows[tail]] += 1
        code = (pid << _SHIFT) | idx
        cls = self.inj_cls[rows]
        c0 = int(cls[0])
        if (cls == c0).all():
            self._push(c0, now, self.inj_dest[rows], code, vc, -1 - rows)
        else:
            for c in np.unique(cls):
                sel = cls == c
                srows = rows[sel]
                self._push(
                    int(c),
                    now,
                    self.inj_dest[srows],
                    code[sel],
                    vc[sel],
                    -1 - srows,
                )
        self.cur_idx[rows] = idx + 1
        if tail.any():
            cur_pid, cur_idx = self.cur_pid, self.cur_idx
            for t in rows[tail].tolist():
                pend = self._pending[t]
                if pend:
                    cur_pid[t] = pend.popleft()
                    cur_idx[t] = 0
                else:
                    cur_pid[t] = -1

    def _push(self, ci, now, dest, code, vc, src) -> None:
        self._cls_q[ci].append(
            (now + self._cls_delay[ci], dest, code, vc, src)
        )

    def _offer(self, t: int, gid: int, size: int) -> None:
        if self.tbacklog[t] == 0:
            self.cur_pid[t] = gid
            self.cur_idx[t] = 0
        else:
            self._pending[t].append(gid)
        self.tbacklog[t] += size
        self._total_backlog += size
        self.inflight += size

    # --- phase 3: VC allocation --------------------------------------

    def _va(self, now) -> None:
        fresh = self._rc_buckets.pop(now, None)
        stalled = self._va_stalled
        if fresh is None and stalled is None:
            return
        parts = [] if stalled is None else [stalled]
        if fresh is not None:
            parts.extend(fresh)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._va_stalled = None
        if rows.size > 1:
            rows = np.sort(rows)
        rc_out = self.rc_out
        need = rc_out[rows] < 0
        if need.any():
            nrows = rows[need]
            codes = self.qbuf[nrows * self.CAP + self.qhead[nrows]]
            pid = codes >> _SHIFT
            dst = self.pk_dst[pid - self.pk_base]
            out = self._route(nrows // self.PV, dst, pid)
            bad = (out < 0) | (out >= self.P)
            if bad.any():
                raise AssertionError(
                    f"route function returned invalid port {int(out[bad][0])}"
                )
            rc_out[nrows] = out
        g = (rows // self.PV) * self.P + rc_out[rows]
        term = self.oterm[g]
        ovc = np.zeros(rows.size, dtype=np.int64)
        grant = np.ones(rows.size, dtype=bool)
        ntm = ~term
        if ntm.any():
            ng = g[ntm]
            sel, granted_nt = self._va_alloc(ng)
            ovc[ntm] = sel
            grant[ntm] = granted_nt
        grows = rows[grant]
        if grows.size:
            self.rc_ovc[grows] = ovc[grant]
            self.state[grows] = ACTIVE
            self.gout[grows] = g[grant]
            self._n_active += grows.size
        if not grant.all():
            self._va_stalled = rows[~grant]

    def _va_alloc(self, ng):
        """Round-robin free-VC pick per output port (batch)."""
        V = self.V
        unique = True
        if ng.size > 1:
            sg = np.sort(ng)
            unique = not (sg[1:] == sg[:-1]).any()
        if unique:
            free = (~self.ovc_mask[ng]) & self._full_mask
            has = free != 0
            ptr = self.vc_ptr[ng]
            rot = ((free >> ptr) | (free << (V - ptr))) & self._full_mask
            off = _LOG2[rot & (-rot)]
            sel = ptr + off
            sel[sel >= V] -= V
            hg = ng[has]
            hv = sel[has]
            nxt = hv + 1
            nxt[nxt >= V] = 0
            self.vc_ptr[hg] = nxt
            self.ovc_mask[hg] |= _I64_ONE << hv
            return sel, has
        # Two packets target the same output port this cycle: allocate
        # sequentially in ascending (port, vc) order, as the object
        # engine's sorted(rc_pending) loop does.
        sel = np.zeros(ng.size, dtype=np.int64)
        has = np.zeros(ng.size, dtype=bool)
        ovc_mask = self.ovc_mask
        vc_ptr = self.vc_ptr
        full = int(self._full_mask)
        for i in range(ng.size):
            gg = int(ng[i])
            free = (~int(ovc_mask[gg])) & full
            if free == 0:
                continue
            p0 = int(vc_ptr[gg])
            for off in range(V):
                c = p0 + off
                if c >= V:
                    c -= V
                if (free >> c) & 1:
                    break
            vc_ptr[gg] = c + 1 if c + 1 < V else 0
            ovc_mask[gg] |= 1 << c
            sel[i] = c
            has[i] = True
        return sel, has

    # --- phase 3: switch allocation ----------------------------------

    def _sa(self, now) -> None:
        req = np.flatnonzero((self.state == ACTIVE) & (self.qlen > 0))
        if req.size == 0:
            return
        g = self.gout[req]
        elig = self.oterm[g] | (self.ocred[g] > 0)
        if not elig.all():
            rows = req[elig]
            g = g[elig]
            if rows.size == 0:
                return
        else:
            rows = req
        PV = self.PV
        ug, ginv = np.unique(g, return_inverse=True)
        pv = rows % PV
        dist = (pv - self.sa_ptr[g]) % PV
        wrp = rows // self.V
        nG = ug.size
        resolved = np.zeros(nG, dtype=bool)
        locked = np.zeros(self.R * self.P, dtype=bool)
        commits = []
        while True:
            avail = ~(resolved[ginv] | locked[wrp])
            aidx = np.flatnonzero(avail)
            if aidx.size == 0:
                break
            key = ginv[aidx] * (PV + 1) + dist[aidx]
            order = aidx[np.argsort(key)]
            gs = ginv[order]
            first = np.empty(order.size, dtype=bool)
            first[0] = True
            first[1:] = gs[1:] != gs[:-1]
            widx = order[first]  # one winner per group, ascending group
            wg = ginv[widx]
            has = np.zeros(nG, dtype=bool)
            has[wg] = True
            resolved |= ~has  # groups with every row locked: skipped
            wr = wrp[widx]
            dup = False
            if wr.size > 1:
                swr = np.sort(wr)
                dup = bool((swr[1:] == swr[:-1]).any())
            if not dup:
                commits.append(widx)
                resolved[wg] = True
                locked[wr] = True
                continue
            # Same input port won two output ports: commit the
            # conflict-free prefix per router (the object engine's
            # ascending-port order) and re-arbitrate the rest.
            routers_of = ug[wg] // self.P
            keep = np.zeros(widx.size, dtype=bool)
            cur = -1
            seen = set()
            blocked = False
            for i in range(widx.size):
                rid = int(routers_of[i])
                if rid != cur:
                    cur = rid
                    seen = set()
                    blocked = False
                if blocked:
                    continue
                w = int(wr[i])
                if w in seen:
                    blocked = True
                    continue
                seen.add(w)
                keep[i] = True
            cw = widx[keep]
            commits.append(cw)
            resolved[wg[keep]] = True
            locked[wrp[cw]] = True
        if commits:
            pos = commits[0] if len(commits) == 1 else np.concatenate(commits)
            self._commit(rows[pos], g[pos], pv[pos], now)

    def _commit(self, crows, cg, cpv, now) -> None:
        nxt = cpv + 1
        nxt[nxt >= self.PV] = 0
        self.sa_ptr[cg] = nxt
        h = self.qhead[crows]
        code = self.qbuf[crows * self.CAP + h]
        h += 1
        h[h >= self.CAP] = 0
        self.qhead[crows] = h
        self.qlen[crows] -= 1
        cw = crows // self.V
        self.occ[cw] -= 1
        self.fwd_g[cw] += 1
        # Credit return upstream (one credit per forwarded flit).
        ccls = self.cred_cls[cw]
        c0 = int(ccls[0])
        if (ccls == c0).all():
            if c0 >= 0:
                self._push(c0, now, self.cred_dest[cw], None, None, None)
        else:
            for c in np.unique(ccls):
                if c < 0:
                    continue
                self._push(
                    int(c), now, self.cred_dest[cw[ccls == c]], None, None, None
                )
        out_vc = self.rc_ovc[crows]
        ct = self.oterm[cg]
        if not ct.all():
            self.ocred[cg[~ct]] -= 1
        scls = self.send_cls[cg]
        if (scls < 0).any():
            bad = int(cg[scls < 0][0])
            raise AssertionError(f"output port {bad % self.P} is not wired")
        s0 = int(scls[0])
        if (scls == s0).all():
            self._push(s0, now, self.send_dest[cg], code, out_vc, cg)
        else:
            for c in np.unique(scls):
                sel = scls == c
                self._push(
                    int(c),
                    now,
                    self.send_dest[cg[sel]],
                    code[sel],
                    out_vc[sel],
                    cg[sel],
                )
        pid = code >> _SHIFT
        tail = (code & _IDX_MASK) == self.pk_size[pid - self.pk_base] - 1
        if tail.any():
            trows = crows[tail]
            tg = cg[tail]
            tnt = ~ct[tail]
            if tnt.any():
                self.ovc_mask[tg[tnt]] &= ~(_I64_ONE << out_vc[tail][tnt])
            self.state[trows] = IDLE
            self.rc_out[trows] = -1
            self.rc_ovc[trows] = -1
            self.gout[trows] = -1
            self._n_active -= trows.size
            resp = trows[self.qlen[trows] > 0]
            if resp.size:
                self.state[resp] = ROUTE
                self._sched_rc(
                    resp, self.rc_delay_respawn[resp // self.V], now
                )

    # ------------------------------------------------------------------
    # Packet store
    # ------------------------------------------------------------------

    def _set_packets(self, base, src, dst, size, create) -> None:
        self.pk_base = base
        self.pk_src = np.asarray(src, dtype=np.int64)
        self.pk_dst = np.asarray(dst, dtype=np.int64)
        self.pk_size = np.asarray(size, dtype=np.int64)
        self.pk_create = np.asarray(create, dtype=np.int64)
        n = self.pk_dst.size
        self.pk_inject = np.full(n, -1, dtype=np.int64)
        self.pk_arrive = np.full(n, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Run drivers
    # ------------------------------------------------------------------

    def run_bernoulli(
        self, injector, warmup_cycles: int, measure_cycles: int,
        drain_cycles: int,
    ) -> RunStats:
        """Mirror of ``Simulator.run``, telemetry windows included."""
        # Pre-generate the whole Bernoulli stream. The RNG consumption
        # order is identical to the scalar driver's per-cycle loop, and
        # packet ids are drawn from the same global counter.
        size = injector.packet_size_flits
        total = warmup_cycles + measure_cycles
        T = self.T
        pre = self._c_pregen(injector, total)
        if pre is not None:
            ev_cycle_a, ev_term, ev_dst, ev_gid = pre
            n = len(ev_gid)
            base = ev_gid[0] if n else 0
            self._set_packets(base, ev_term, ev_dst,
                              np.full(n, size, dtype=np.int64), ev_cycle_a)
        else:
            rng = injector.rng
            draw = rng.random
            probability = injector.packet_probability
            destination = injector.pattern.destination
            ids = packet_module._packet_ids
            ev_cycle = []
            ev_term = []
            ev_dst = []
            ev_gid = []
            terminals = range(T)
            for c in range(total):
                for src in terminals:
                    if draw() >= probability:
                        continue
                    dst = destination(src, rng)
                    if dst == src:  # Packet() would reject this
                        raise AssertionError("pattern produced self-traffic")
                    ev_cycle.append(c)
                    ev_term.append(src)
                    ev_dst.append(dst)
                    ev_gid.append(next(ids))
            n = len(ev_gid)
            base = ev_gid[0] if n else 0
            self._set_packets(
                base, ev_term, ev_dst, [size] * n, ev_cycle
            )
            ev_cycle_a = np.asarray(ev_cycle, dtype=np.int64)
        starts = np.searchsorted(ev_cycle_a, np.arange(total + 1))

        cstate = self._c_build(ev_cycle_a, np.asarray(ev_term, np.int64))
        if cstate is not None:
            return self._c_run_bernoulli(
                cstate, starts, size, warmup_cycles, measure_cycles,
                drain_cycles,
            )

        def offers(c):
            for e in range(starts[c], starts[c + 1]):
                self._offer(ev_term[e], ev_gid[e], size)

        for c in range(warmup_cycles):
            offers(c)
            self._step()
        measure_start = self.cycle
        measure_end = measure_start + measure_cycles
        stats = RunStats(
            measure_start=measure_start,
            measure_end=measure_end,
            n_terminals=T,
        )
        delivered_before = self.delivered_total
        for c in range(warmup_cycles, total):
            offers(c)
            self._step()
        stats.flits_delivered = self.delivered_total - delivered_before
        in_window = int(
            starts[total] - starts[warmup_cycles]
        )
        stats.flits_offered = in_window * size
        stats.packets_created = in_window
        for _ in range(drain_cycles):
            if self.inflight == 0:
                break
            self._step()
        self._finish(stats)
        return stats

    # ------------------------------------------------------------------
    # Compiled hot loop (see repro.netsim._fast_step)
    # ------------------------------------------------------------------

    _C_KIND = {"rf": 0, "tf": 1, "inj": 2, "rc": 3, "tc": 4}

    def c_kernel(self):
        """``(ffi, lib)`` when the compiled kernel steps this network.

        ``None`` when the engine was asked for the numpy loop, no C
        toolchain is available, or a router has more ports than the
        kernel's 64-bit port masks hold. The one eligibility test behind
        the telemetry gate, :meth:`_c_build` and the wafer partitions.
        """
        if not self.use_c or self.P > 64:
            return None
        return _fast_step.load_kernel()

    def _c_pregen(self, injector, total: int):
        """Pre-generate the Bernoulli stream in C, or ``None``.

        Only the ``uniform`` pattern is transliterated (the kernel
        replays CPython's MT19937 bit-for-bit and hands the advanced
        state back to the Python RNG); every other pattern uses the
        Python loop. Packet ids are drawn afterwards — the global
        counter is sequential, so consuming ``n`` ids in one slice is
        identical to drawing them inside the loop.
        """
        kernel = _fast_step.load_kernel() if self.use_c else None
        if kernel is None or self.T < 2:
            return None
        pattern = injector.pattern
        fn = getattr(pattern, "destination_fn", None)
        if (
            getattr(fn, "__module__", "") != "repro.netsim.traffic"
            or getattr(fn, "__qualname__", "") != "uniform.<locals>.dest"
            or pattern.n_terminals != self.T
        ):
            return None
        ffi, lib = kernel
        rng = injector.rng
        version, internal, gauss = rng.getstate()
        if version != 3 or len(internal) != 625:
            return None
        mt = np.array(internal[:624], dtype=np.uint32)
        mti = np.array([internal[624]], dtype=np.int64)
        cap = total * self.T
        ev_when = np.empty(cap, dtype=np.int64)
        ev_term = np.empty(cap, dtype=np.int64)
        ev_dst = np.empty(cap, dtype=np.int64)
        n = int(
            lib.pregen_uniform(
                ffi.cast("uint32_t *", mt.ctypes.data),
                ffi.cast("int64_t *", mti.ctypes.data),
                total,
                self.T,
                injector.packet_probability,
                self.T,
                ffi.cast("int64_t *", ev_when.ctypes.data),
                ffi.cast("int64_t *", ev_term.ctypes.data),
                ffi.cast("int64_t *", ev_dst.ctypes.data),
            )
        )
        rng.setstate(
            (3, tuple(int(x) for x in mt) + (int(mti[0]),), gauss)
        )
        ev_gid = list(itertools.islice(packet_module._packet_ids, n))
        return ev_when[:n], ev_term[:n], ev_dst[:n], ev_gid

    def _c_build(self, ev_when, ev_term):
        """Build the C kernel's state block, or ``None`` to stay numpy.

        All core SoA arrays are shared by pointer, so the kernel
        advances exactly the buffers :meth:`_finish` /
        :meth:`_writeback` read afterwards. Only run-local structures
        (event rings, RC buckets, pending lists, the delivery log) are
        allocated here and exported back by :meth:`_c_export`.
        """
        kernel = self.c_kernel()
        if kernel is None:
            return None
        ffi, lib = kernel
        st = ffi.new("FastState *")
        aux = {}

        def i64(arr):
            aux.setdefault("_keep", []).append(arr)
            return ffi.cast("int64_t *", arr.ctypes.data)

        def u64(arr):
            aux.setdefault("_keep", []).append(arr)
            return ffi.cast("uint64_t *", arr.ctypes.data)

        def i8(arr):
            aux.setdefault("_keep", []).append(arr)
            return ffi.cast("int8_t *", arr.ctypes.data)

        R, P, V, CAP, PV, T = self.R, self.P, self.V, self.CAP, self.PV, self.T
        RP, RPV = R * P, R * PV
        PVW = (PV + 63) // 64
        st.R, st.P, st.V, st.CAP, st.PV, st.PVW = R, P, V, CAP, PV, PVW
        st.T, st.RP, st.RPV = T, RP, RPV
        st.full_mask = int(self._full_mask)
        st.base = self.pk_base
        st.shift = _SHIFT
        st.idx_mask = _IDX_MASK
        st.st_idle, st.st_route, st.st_active = IDLE, ROUTE, ACTIVE

        st.qbuf, st.qhead, st.qlen = i64(self.qbuf), i64(self.qhead), i64(self.qlen)
        st.state = i8(self.state)
        st.rc_out, st.rc_ovc, st.gout = i64(self.rc_out), i64(self.rc_ovc), i64(self.gout)
        st.occ, st.ocred = i64(self.occ), i64(self.ocred)
        st.oterm = i8(self.oterm.view(np.int8))
        st.ovc_mask, st.vc_ptr = i64(self.ovc_mask), i64(self.vc_ptr)
        st.sa_ptr, st.fwd_g = i64(self.sa_ptr), i64(self.fwd_g)
        st.rc_delay = i64(self.rc_delay)
        st.rc_delay_respawn = i64(self.rc_delay_respawn)
        st.send_cls, st.send_dest = i64(self.send_cls), i64(self.send_dest)
        st.cred_cls, st.cred_dest = i64(self.cred_cls), i64(self.cred_dest)
        st.tcred, st.tvc = i64(self.tcred), i64(self.tvc)
        st.tsent, st.tpsent = i64(self.tsent), i64(self.tpsent)
        st.trecv, st.tbacklog = i64(self.trecv), i64(self.tbacklog)
        st.cur_pid, st.cur_idx = i64(self.cur_pid), i64(self.cur_idx)
        st.inj_cls, st.inj_dest = i64(self.inj_cls), i64(self.inj_dest)
        st.pk_dst, st.pk_size = i64(self.pk_dst), i64(self.pk_size)
        st.pk_inject, st.pk_arrive = i64(self.pk_inject), i64(self.pk_arrive)

        kind, params = self.network.route_spec
        if kind == "mesh":
            st.route_kind = 0
            st.rp0 = params["terminals_per_router"]
            st.rp1 = params["neighbor_channels"]
            st.rp2 = params["cols"]
        elif kind == "clos":
            st.route_kind = 1
            n = params["n_terminals"]
            k = params["ssc_radix"]
            down = k // 2
            spines = n // k
            st.rp0 = down
            st.rp1 = 2 * n // k
            st.rp2 = spines
            st.rp3 = down // spines
            st.rp4 = spines * (down // spines)
            st.rp5 = 1 if params["spine_selection"] == "adaptive" else 0
        elif kind == "single":
            st.route_kind = 2
        else:  # pragma: no cover - engine_for already rejected it
            return None

        n_ev = int(ev_when.size)
        st.n_ev, st.ev_index = n_ev, 0
        aux["ev_when"] = ev_when.astype(np.int64, copy=False)
        aux["ev_term"] = ev_term
        st.ev_when = i64(aux["ev_when"])
        st.ev_term = i64(aux["ev_term"])
        aux["pend_next"] = np.full(max(n_ev, 1), -1, dtype=np.int64)
        aux["pend_head"] = np.full(T, -1, dtype=np.int64)
        aux["pend_tail"] = np.full(T, -1, dtype=np.int64)
        st.pend_next = i64(aux["pend_next"])
        st.pend_head = i64(aux["pend_head"])
        st.pend_tail = i64(aux["pend_tail"])
        aux["log_term"] = np.zeros(max(n_ev, 1), dtype=np.int64)
        aux["log_pidx"] = np.zeros(max(n_ev, 1), dtype=np.int64)
        st.log_term = i64(aux["log_term"])
        st.log_pidx = i64(aux["log_pidx"])
        st.log_count = 0

        # Delay-class rings, sized so a class can hold every in-flight
        # batch: each source port/terminal sends at most one entry per
        # cycle and entries live `delay` cycles.
        n_cls = len(self._cls_kind)
        offs = np.zeros(n_cls, dtype=np.int64)
        caps = np.zeros(n_cls, dtype=np.int64)
        off = 0
        for ci, (cls_kind, delay) in enumerate(
            zip(self._cls_kind, self._cls_delay)
        ):
            if cls_kind in ("rf", "tf"):
                cnt = int(np.count_nonzero(self.send_cls == ci))
            elif cls_kind == "inj":
                cnt = int(np.count_nonzero(self.inj_cls == ci))
            else:
                cnt = int(np.count_nonzero(self.cred_cls == ci))
            offs[ci] = off
            caps[ci] = (delay + 2) * max(cnt, 1)
            off += caps[ci]
        st.n_cls = n_cls
        aux["cls_kind"] = np.array(
            [self._C_KIND[k] for k in self._cls_kind], dtype=np.int64
        )
        aux["cls_delay"] = np.array(self._cls_delay, dtype=np.int64)
        aux["cls_off"], aux["cls_cap"] = offs, caps
        aux["cls_head"] = np.zeros(n_cls, dtype=np.int64)
        aux["cls_tail"] = np.zeros(n_cls, dtype=np.int64)
        aux["cls_hidx"] = np.zeros(n_cls, dtype=np.int64)
        aux["cls_tidx"] = np.zeros(n_cls, dtype=np.int64)
        st.cls_kind = i64(aux["cls_kind"])
        st.cls_delay = i64(aux["cls_delay"])
        st.cls_off, st.cls_cap = i64(offs), i64(caps)
        st.cls_head = i64(aux["cls_head"])
        st.cls_tail = i64(aux["cls_tail"])
        st.cls_hidx = i64(aux["cls_hidx"])
        st.cls_tidx = i64(aux["cls_tidx"])
        aux["pv_port"] = np.arange(PV, dtype=np.int64) // V
        aux["g_r"] = np.arange(RP, dtype=np.int64) // P
        aux["g_p"] = np.arange(RP, dtype=np.int64) % P
        aux["row_r"] = np.arange(RPV, dtype=np.int64) // PV
        st.pv_port = i64(aux["pv_port"])
        st.g_r, st.g_p = i64(aux["g_r"]), i64(aux["g_p"])
        st.row_r = i64(aux["row_r"])
        for name in ("ring_cycle", "ring_dest", "ring_code", "ring_vc",
                     "ring_src"):
            aux[name] = np.zeros(max(off, 1), dtype=np.int64)
            setattr(st, name, i64(aux[name]))

        dmax = int(
            max(self.rc_delay.max(), self.rc_delay_respawn.max())
        )
        W = dmax + 1
        st.W = W
        aux["W"] = W
        aux["bk_rows"] = np.zeros(W * RPV, dtype=np.int64)
        aux["bk_cnt"] = np.zeros(W, dtype=np.int64)
        aux["stall_rows"] = np.zeros(RPV, dtype=np.int64)
        st.bk_rows, st.bk_cnt = i64(aux["bk_rows"]), i64(aux["bk_cnt"])
        st.stall_rows = i64(aux["stall_rows"])
        st.stall_cnt = 0
        st.RPVW = (RPV + 63) // 64
        aux["va_mask"] = np.zeros(st.RPVW, dtype=np.uint64)
        st.va_mask = u64(aux["va_mask"])

        aux["cand"] = np.zeros(RP * PVW, dtype=np.uint64)
        aux["aop"] = np.zeros(R, dtype=np.uint64)
        aux["cg_stamp"] = np.full(RP, -1, dtype=np.int64)
        st.cand, st.aop = u64(aux["cand"]), u64(aux["aop"])
        st.cg_stamp = i64(aux["cg_stamp"])

        tel = self.telemetry
        st.tel = 0 if tel is None else 1
        st.tel_interval = 1 if tel is None else tel.sample_interval
        for name, count in (
            ("tel_rc_wait", R),
            ("tel_va_grants", R),
            ("tel_va_stalls", R),
            ("tel_rc_waiting", R),
            ("tel_credit_stall", RP),
            ("tel_sa_requests", RP),
            ("tel_channel_load", RP),
            ("tel_vc_grants", R * V),
            ("tel_occ_sum", RP),
            ("tel_occ_peak", RP),
            ("tel_vc_occ_sum", R * V),
            ("tel_term_stall", T),
        ):
            aux[name] = np.zeros(count, dtype=np.int64)
            setattr(st, name, i64(aux[name]))
        st.tel_waiting_total = 0
        st.tel_samples = 0
        st.tel_backlog_sum = 0
        st.tel_backlog_peak = 0
        st.tel_backlog_samples = 0

        st.cycle, st.inflight = self.cycle, self.inflight
        st.delivered_total = self.delivered_total
        st.n_active, st.total_backlog = self._n_active, self._total_backlog
        st.err_a = 0
        return (ffi, lib, st, aux)

    def _c_check(self, rc: int, st) -> None:
        if rc >= 0:
            return
        if rc == -1:
            g = int(st.err_a)
            raise AssertionError(
                f"router {g // self.P} port {g % self.P}: buffer overflow "
                "(credit protocol violated)"
            )
        if rc == -2:
            raise AssertionError("body flit reached an idle VC front")
        if rc == -3:
            raise AssertionError(
                f"route function returned invalid port {int(st.err_a)}"
            )
        if rc == -4:
            raise AssertionError(
                f"output port {int(st.err_a) % self.P} is not wired"
            )
        raise RuntimeError(f"netsim C kernel internal error {rc}")

    def _c_run_bernoulli(
        self, cstate, starts, size, warmup_cycles, measure_cycles,
        drain_cycles,
    ) -> RunStats:
        ffi, lib, st, aux = cstate
        tel = self.telemetry
        if tel is not None:
            tel.attach(self.network)
            self._tel_boundary(cstate, tel)
            tel.begin_window("warmup", int(st.cycle))
            self._tel_reset_sampled(cstate)
        self._c_check(lib.fast_run(st, 0, warmup_cycles), st)
        measure_start = int(st.cycle)
        stats = RunStats(
            measure_start=measure_start,
            measure_end=measure_start + measure_cycles,
            n_terminals=self.T,
        )
        if tel is not None:
            self._tel_boundary(cstate, tel)
            tel.begin_window("measurement", int(st.cycle))
            self._tel_reset_sampled(cstate)
        delivered_before = int(st.delivered_total)
        self._c_check(lib.fast_run(st, 0, measure_cycles), st)
        stats.flits_delivered = int(st.delivered_total) - delivered_before
        total = warmup_cycles + measure_cycles
        in_window = int(starts[total] - starts[warmup_cycles])
        stats.flits_offered = in_window * size
        stats.packets_created = in_window
        if tel is not None:
            self._tel_boundary(cstate, tel)
            tel.begin_window("drain", int(st.cycle))
            self._tel_reset_sampled(cstate)
        self._c_check(lib.fast_run(st, 1, drain_cycles), st)
        self._c_export(cstate)
        self._finish(stats)
        if tel is not None:
            # _writeback restored the real terminal objects above, so
            # the final boundary only refreshes the counter views.
            self._tel_boundary(cstate, tel, terminals=False)
            self._tel_histograms(tel)
            tel.finish(int(st.cycle))
        return stats

    # ------------------------------------------------------------------
    # Telemetry bridging (kernel counters -> Telemetry machinery)
    # ------------------------------------------------------------------

    def _tel_boundary(self, cstate, tel, terminals: bool = True) -> None:
        """Sync the kernel's telemetry counters into the sink's views.

        Called at every window boundary *before* ``begin_window`` /
        ``finish``, so the standard snapshot/delta machinery in
        :mod:`repro.netsim.telemetry` sees exactly the state the scalar
        engine's live counters would hold at that cycle.
        """
        ffi, lib, st, aux = cstate
        P, V, T = self.P, self.V, self.T
        sa_requests = aux["tel_sa_requests"]
        channel_load = aux["tel_channel_load"]
        credit_stall = aux["tel_credit_stall"]
        vc_grants = aux["tel_vc_grants"]
        occ_sum = aux["tel_occ_sum"]
        occ_peak = aux["tel_occ_peak"]
        vc_occ_sum = aux["tel_vc_occ_sum"]
        samples = int(st.tel_samples)
        for ri, view in enumerate(tel._routers):
            g0, g1 = ri * P, (ri + 1) * P
            v0, v1 = ri * V, (ri + 1) * V
            view.sa_requests = sa_requests[g0:g1].tolist()
            view.channel_load = channel_load[g0:g1].tolist()
            view.credit_stall_cycles = credit_stall[g0:g1].tolist()
            view.vc_grants = vc_grants[v0:v1].tolist()
            view.va_grants = int(aux["tel_va_grants"][ri])
            view.va_stalls = int(aux["tel_va_stalls"][ri])
            view.rc_wait_cycles = int(aux["tel_rc_wait"][ri])
            view.occ_sum = occ_sum[g0:g1].tolist()
            view.occ_peak = occ_peak[g0:g1].tolist()
            view.vc_occ_sum = vc_occ_sum[v0:v1].tolist()
            view.samples = samples
        tel.terminal_credit_stalls = aux["tel_term_stall"].tolist()
        tel._backlog_sum = int(st.tel_backlog_sum)
        tel._backlog_peak = int(st.tel_backlog_peak)
        tel._backlog_samples = int(st.tel_backlog_samples)
        if terminals:
            # Mid-run the object-model terminals are stale; mirror the
            # counters the terminal snapshot reads (sums only — the
            # run-final writeback installs the real packet lists).
            n_log = int(st.log_count)
            received = np.bincount(
                aux["log_term"][:n_log], minlength=T
            ) if n_log else np.zeros(T, dtype=np.int64)
            for ti, terminal in enumerate(self.network.terminals):
                terminal.flits_sent = int(self.tsent[ti])
                terminal.flits_received = int(self.trecv[ti])
                terminal.packets_sent = int(self.tpsent[ti])
                terminal.packets_received = range(int(received[ti]))

    def _tel_reset_sampled(self, cstate) -> None:
        """Zero the kernel's sampled accumulators (window start)."""
        ffi, lib, st, aux = cstate
        for name in ("tel_occ_sum", "tel_occ_peak", "tel_vc_occ_sum"):
            aux[name][:] = 0
        st.tel_samples = 0
        st.tel_backlog_sum = 0
        st.tel_backlog_peak = 0
        st.tel_backlog_samples = 0

    def _tel_histograms(self, tel) -> None:
        """Replay the delivery log into the window latency histograms.

        The scalar engine records each packet at tail arrival; window
        resolution keys on the packet's *creation* cycle only, and the
        window containing that cycle already exists by arrival time, so
        replaying deliveries post-run lands every packet in the same
        window (histogram insertion is commutative).
        """
        windows = tel._windows
        if not windows or not self._deliv_log:
            return
        idx = np.concatenate([dpid for _, dpid in self._deliv_log])
        idx -= self.pk_base
        create = self.pk_create[idx]
        latency = self.pk_arrive[idx] - create
        # Window starts are non-decreasing (begin_window takes monotone
        # cycles), so searchsorted reproduces _window_for_creation —
        # including its clamp of pre-first-window creations to window 0.
        starts = np.array([w.start for w in windows], dtype=np.int64)
        which = np.searchsorted(starts, create, side="right") - 1
        which = np.maximum(which, 0)
        for w_index, window in enumerate(windows):
            mask = which == w_index
            if not mask.any():
                continue
            lat = latency[mask]
            window.histogram.add_many(lat)
            if window.flows is not None:
                src = self.pk_src[idx[mask]].tolist()
                dst = self.pk_dst[idx[mask]].tolist()
                for s, d, one in zip(src, dst, lat.tolist()):
                    key = f"{s}->{d}"
                    histogram = window.flows.get(key)
                    if histogram is None:
                        histogram = window.flows[key] = LatencyHistogram()
                    histogram.add(one)

    def _c_export(self, cstate) -> None:
        """Fold the kernel's run-local state back into the engine.

        The SoA arrays were mutated in place; this reconstructs the
        Python-side structures (:attr:`_rc_buckets`, :attr:`_va_stalled`,
        the delay-class deques, pending queues and delivery log) so
        :meth:`_finish` / :meth:`_writeback` behave as if the numpy
        step loop had run.
        """
        ffi, lib, st, aux = cstate
        self.cycle = now = int(st.cycle)
        self.inflight = int(st.inflight)
        self.delivered_total = int(st.delivered_total)
        self._n_active = int(st.n_active)
        self._total_backlog = int(st.total_backlog)
        base = self.pk_base

        W = aux["W"]
        RPV = self.R * self.PV
        buckets = {}
        bk_cnt = aux["bk_cnt"]
        bk_rows = aux["bk_rows"]
        for w in range(W):
            cnt = int(bk_cnt[w])
            if cnt:
                ready = now + ((w - now) % W)
                buckets[ready] = [bk_rows[w * RPV:w * RPV + cnt].copy()]
        self._rc_buckets = buckets
        sc = int(st.stall_cnt)
        self._va_stalled = (
            aux["stall_rows"][:sc].copy() if sc else None
        )

        ring_cycle = aux["ring_cycle"]
        ring_dest = aux["ring_dest"]
        ring_code = aux["ring_code"]
        ring_vc = aux["ring_vc"]
        ring_src = aux["ring_src"]
        for ci, q in enumerate(self._cls_q):
            q.clear()
            head = int(aux["cls_head"][ci])
            tail = int(aux["cls_tail"][ci])
            off = int(aux["cls_off"][ci])
            cap = int(aux["cls_cap"][ci])
            flit_like = self._cls_kind[ci] in ("rf", "tf", "inj")
            for pos in range(head, tail):
                i = off + pos % cap
                dest = ring_dest[i:i + 1].copy()
                if flit_like:
                    q.append((
                        int(ring_cycle[i]),
                        dest,
                        ring_code[i:i + 1].copy(),
                        ring_vc[i:i + 1].copy(),
                        ring_src[i:i + 1].copy(),
                    ))
                else:
                    q.append((int(ring_cycle[i]), dest, None, None, None))

        n_log = int(st.log_count)
        self._deliv_log = (
            [(aux["log_term"][:n_log].copy(),
              aux["log_pidx"][:n_log] + base)]
            if n_log
            else []
        )

        pend_next = aux["pend_next"]
        pend_head = aux["pend_head"]
        for t in range(self.T):
            e = int(pend_head[t])
            pend = self._pending[t]
            while e >= 0:
                pend.append(base + e)
                e = int(pend_next[e])
        # The kernel stores packet *indexes* in cur_pid; the engine's
        # writeback expects absolute packet ids.
        live = self.cur_pid >= 0
        self.cur_pid[live] += base

    def run_replay(self, schedule, max_cycles: int):
        """Mirror of ``replay_trace``'s driving loop (no telemetry).

        ``schedule`` is the sorted list of ``(inject_cycle, event)``
        pairs; packets are created (consuming global packet ids) at
        their injection cycles exactly as the scalar loop does — under
        ``max_cycles`` truncation the global id counter stops at the
        same value, which is why the stream cannot be pre-drawn here.
        """
        ids = packet_module._packet_ids
        n = len(schedule)
        src = np.zeros(n, dtype=np.int64)
        dst = np.zeros(n, dtype=np.int64)
        size = np.zeros(n, dtype=np.int64)
        when = np.zeros(n, dtype=np.int64)
        for i, (cycle, event) in enumerate(schedule):
            when[i] = cycle
            src[i] = event.src
            dst[i] = event.dst
            size[i] = event.size_flits
        index = 0
        gid_list = []
        base = None
        # Packet ids are consumed at injection time (in schedule
        # order), so pre-size the store and fill create cycles lazily.
        self._set_packets(0, src, dst, size, when)
        while index < n or self.inflight > 0:
            now = self.cycle
            while index < n and when[index] <= now:
                gid = next(ids)
                if base is None:
                    base = gid
                    self.pk_base = base
                gid_list.append(gid)
                self._offer(int(src[index]), gid, int(size[index]))
                index += 1
            self._step()
            if self.cycle >= max_cycles:
                break
        stats = RunStats(
            measure_start=0, measure_end=self.cycle, n_terminals=self.T
        )
        # Only events actually offered count (max_cycles truncation may
        # leave a tail of the schedule unoffered, as in the scalar loop).
        stats.packets_created = index
        stats.flits_offered = int(size[:index].sum())
        self._finish(stats, window_filter=False)
        return stats

    # ------------------------------------------------------------------
    # Finalization: stats + write the object model back
    # ------------------------------------------------------------------

    def _delivered_sorted(self):
        """Delivered ``(terminal, packet id)`` arrays, terminal-major.

        Within a terminal, packets keep their arrival order (the
        stable sort preserves the delivery log's global order) — the
        same order the scalar engine's per-terminal
        ``packets_received`` lists produce.
        """
        log = self._deliv_log
        if not log:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if len(log) == 1:
            dterm, dpid = log[0]
        else:
            dterm = np.concatenate([t for t, _ in log])
            dpid = np.concatenate([p for _, p in log])
        order = np.argsort(dterm, kind="stable")
        return dterm[order], dpid[order]

    def _finish(self, stats: RunStats, window_filter: bool = True) -> None:
        dterm, dpid = self._delivered_sorted()
        idx = dpid - self.pk_base
        create = self.pk_create[idx]
        lat = self.pk_arrive[idx] - create
        if window_filter:
            m = (create >= stats.measure_start) & (
                create < stats.measure_end
            )
            stats.latencies_cycles.extend(lat[m].tolist())
        else:
            stats.latencies_cycles.extend(lat.tolist())
            stats.flits_delivered = int(self.pk_size[idx].sum())
        self._writeback(dterm, dpid)

    def _packet_factory(self):
        cache = {}
        base = self.pk_base
        src = self.pk_src
        dst = self.pk_dst
        size = self.pk_size
        create = self.pk_create
        inject = self.pk_inject
        arrive = self.pk_arrive

        def mk(pid: int) -> Packet:
            packet = cache.get(pid)
            if packet is None:
                i = pid - base
                packet = object.__new__(Packet)
                packet.packet_id = pid
                packet.src = int(src[i])
                packet.dst = int(dst[i])
                packet.size_flits = int(size[i])
                packet.create_cycle = int(create[i])
                packet.inject_cycle = int(inject[i])
                packet.arrive_cycle = int(arrive[i])
                cache[pid] = packet
            return packet

        return mk

    def _writeback(self, dterm, dpid) -> None:
        """Write engine state back into the object model.

        The written-back network is fully resumable: router queues, VC
        allocation state, arbiter pointers, in-flight link/credit
        traffic and the event calendars are all reconstructed, so a
        caller stepping the network afterwards (or a second ``run``)
        sees exactly what the scalar engine would have left behind.
        """
        network = self.network
        P, V, PV, CAP = self.P, self.V, self.PV, self.CAP
        mk = self._packet_factory()
        now = self.cycle
        network.cycle = now

        state = self.state
        qlen = self.qlen
        for ri, router in enumerate(network.routers):
            base_g = ri * P
            base_row = base_g * V
            router.flits_forwarded = int(
                self.fwd_g[base_g:base_g + P].sum()
            )
            router._buffered_total = int(self.occ[base_g:base_g + P].sum())
            router.occupancy = self.occ[base_g:base_g + P].tolist()
            router.out_credits = self.ocred[base_g:base_g + P].tolist()
            router.rc_pending = set()
            router.active_out_ports = set()
            state_l = state[base_row:base_row + PV].tolist()
            out_p_l = self.rc_out[base_row:base_row + PV].tolist()
            out_v_l = self.rc_ovc[base_row:base_row + PV].tolist()
            vc_ptr_l = self.vc_ptr[base_g:base_g + P].tolist()
            sa_ptr_l = self.sa_ptr[base_g:base_g + P].tolist()
            for p in range(P):
                router._vc_arbiters[p]._pointer = vc_ptr_l[p]
                router._sa_arbiters[p]._pointer = sa_ptr_l[p]
                router.ovc_owner[p] = [None] * V
                router.sa_candidates[p] = set()
                s0 = p * V
                router.ivc_state[p] = state_l[s0:s0 + V]
                router.ivc_out_port[p] = out_p_l[s0:s0 + V]
                router.ivc_out_vc[p] = out_v_l[s0:s0 + V]
                router.queues[p] = [deque() for _ in range(V)]
            # Buffered flits are sparse after a drain: rebuild only
            # the occupied queues.
            occupied = np.flatnonzero(qlen[base_row:base_row + PV])
            for pv in occupied.tolist():
                row = base_row + pv
                p, v = divmod(pv, V)
                queue = router.queues[p][v]
                head = int(self.qhead[row])
                for k in range(int(qlen[row])):
                    code = int(self.qbuf[row * CAP + (head + k) % CAP])
                    queue.append(Flit(mk(code >> _SHIFT), code & _IDX_MASK))
            # Ownership and SA candidacy re-derive from ACTIVE rows.
            rows = np.flatnonzero(
                state[base_row:base_row + PV] == ACTIVE
            )
            for pv in rows.tolist():
                row = base_row + pv
                p, v = divmod(pv, V)
                out_port = out_p_l[pv]
                out_vc = out_v_l[pv]
                if not router.out_is_terminal[out_port]:
                    router.ovc_owner[out_port][out_vc] = (p, v)
                if qlen[row] > 0:
                    router.sa_candidates[out_port].add((p, v))
                    router.active_out_ports.add(out_port)
        # Pending RC rows (bucketed by ready cycle) and VA-stalled rows.
        def _pend(row: int, ready: int) -> None:
            r, pv = divmod(row, PV)
            p, v = divmod(pv, V)
            router = network.routers[r]
            router.rc_pending.add((p, v))
            router.rc_ready[p][v] = ready
        for ready, parts in self._rc_buckets.items():
            for rows in parts:
                for row in rows.tolist():
                    _pend(row, ready)
        if self._va_stalled is not None:
            for row in self._va_stalled.tolist():
                _pend(row, now)

        network._link_events.clear()
        network._credit_events.clear()
        for link, _, _, _ in network.links:
            link._in_flight.clear()
        for channel, _, _ in network._credit_sinks:
            channel._in_flight.clear()
        bounds = np.searchsorted(dterm, np.arange(self.T + 1))
        for ti, terminal in enumerate(network.terminals):
            if terminal.credit_channel is not None:
                terminal.credit_channel._in_flight.clear()
            terminal.flits_sent = int(self.tsent[ti])
            terminal.packets_sent = int(self.tpsent[ti])
            terminal.flits_received = int(self.trecv[ti])
            terminal.credits = int(self.tcred[ti])
            terminal._next_vc = int(self.tvc[ti])
            terminal.packets_received = _LazyPackets(
                mk, dpid[bounds[ti]:bounds[ti + 1]]
            )
            queue = deque()
            if self.tbacklog[ti] > 0:
                pid = int(self.cur_pid[ti])
                packet = mk(pid)
                for k in range(int(self.cur_idx[ti]), packet.size_flits):
                    queue.append(Flit(packet, k))
                for pid in self._pending[ti]:
                    packet = mk(int(pid))
                    for k in range(packet.size_flits):
                        queue.append(Flit(packet, k))
            terminal.source_queue = queue
        # In-flight flits and credits back onto their wires.
        routers = network.routers
        terminals = network.terminals
        link_events = network._link_events
        credit_events = network._credit_events
        for ci, q in enumerate(self._cls_q):
            kind = self._cls_kind[ci]
            for entry in q:
                arrival, dest, code, vc, src = entry
                if kind in ("rf", "tf", "inj"):
                    for j in range(dest.size):
                        s = int(src[j])
                        if s >= 0:
                            link = routers[s // P].out_link[s % P]
                        else:
                            link = terminals[-1 - s].inject_link
                        flit = Flit(
                            mk(int(code[j]) >> _SHIFT),
                            int(code[j]) & _IDX_MASK,
                        )
                        flit.vc = int(vc[j])
                        if not link._in_flight:
                            link_events.setdefault(arrival, []).append(
                                self._link_index[id(link)]
                            )
                        link._in_flight.append((arrival, flit))
                elif kind == "rc":
                    for j in range(dest.size):
                        g = int(dest[j])
                        channel = routers[g // P].out_credit_channel[g % P]
                        if not channel._in_flight:
                            credit_events.setdefault(arrival, []).append(
                                self._credit_sink_index[id(channel)]
                            )
                        channel._in_flight.append((arrival, 1))
                else:  # 'tc'
                    for j in range(dest.size):
                        channel = terminals[int(dest[j])].credit_channel
                        channel._in_flight.append((arrival, 1))
