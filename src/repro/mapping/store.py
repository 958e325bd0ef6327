"""Persistent content-addressed store for optimized wafer mappings.

The pairwise-exchange optimizer is the reproduction's dominant cost,
and many experiments (and every parallel worker) ask for mappings of
the *same* wafer. The in-process memo in :mod:`repro.core.design`
cannot cross a process boundary, so ``--jobs N`` used to re-optimize
identical wafers in every worker. This store promotes those memo
entries to JSON files under ``.repro_cache/mappings/`` (same root and
``REPRO_CACHE_DIR`` override as the experiment result cache), shared
by all processes and surviving across runs.

An entry is keyed by everything the optimized mapping depends on:

* a **structural digest** of the topology — links, channel counts and
  per-node external ports (not just the name, so two same-named but
  differently wired topologies can never collide);
* the grid dimensions and I/O style;
* the optimizer parameters (restarts, seed, strategy, max sweeps) and
  the kernel engine tag (scalar / fast / fast-esc);
* a **source fingerprint** of the mapping layer
  (:mod:`repro.fingerprint`), so editing any mapping module silently
  invalidates old entries instead of serving stale placements.

Like the result cache, the store is purely an accelerator: ``load``
returns None on any miss or unreadable entry, writes are atomic
(write-then-rename), and ``REPRO_MAPPING_STORE=0`` disables it
entirely. Hit/miss/optimize counters feed the ``--profile`` table of
``python -m repro experiments``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro import paths
from repro.fingerprint import module_fingerprint
from repro.mapping.exchange import MappingResult
from repro.mapping.grid import WaferGrid
from repro.mapping.routing import IOStyle
from repro.topology.base import LogicalTopology

#: Deprecation shim — the resolver lives in :mod:`repro.paths` now.
CACHE_DIR_ENV = paths.CACHE_DIR_ENV

#: Set to "0" to disable the persistent store (memo still applies).
STORE_ENV = "REPRO_MAPPING_STORE"

#: Bump to invalidate every existing entry (serialization changes).
#: v2: the mapping body moved to the shared MappingResult.to_dict form.
STORE_FORMAT_VERSION = 2

#: Process-wide mapping activity counters (reported by ``--profile``).
_STATS: Dict[str, float] = {}


def _zero_stats() -> Dict[str, float]:
    return {
        "memo_hits": 0,
        "store_hits": 0,
        "optimized": 0,
        "optimize_seconds": 0.0,
    }


_STATS = _zero_stats()


def record_stat(name: str, amount: float = 1) -> None:
    """Bump one mapping activity counter (unknown names are created)."""
    _STATS[name] = _STATS.get(name, 0) + amount


def stats_snapshot() -> Dict[str, float]:
    """Copy of the counters, e.g. to diff around a work unit."""
    return dict(_STATS)


def stats_delta(before: Dict[str, float]) -> Dict[str, float]:
    """Counter increments since ``before`` (a :func:`stats_snapshot`)."""
    return {
        key: _STATS.get(key, 0) - before.get(key, 0)
        for key in set(_STATS) | set(before)
    }


def reset_stats() -> None:
    _STATS.clear()
    _STATS.update(_zero_stats())


def store_enabled() -> bool:
    return os.environ.get(STORE_ENV, "1") != "0"


def default_store_dir() -> Path:
    """``$REPRO_CACHE_DIR/mappings`` if set, else ``.repro_cache/mappings``.

    Deprecated alias for :func:`repro.paths.mapping_store_dir`.
    """
    return paths.mapping_store_dir()


def topology_digest(topology: LogicalTopology) -> str:
    """Hash of everything about a topology that the mapping depends on.

    Covers the wiring (links and channel counts) and per-node external
    ports/roles — not chiplet power or area, which cannot change the
    optimized placement.
    """
    digest = hashlib.sha256()
    digest.update(topology.name.encode())
    digest.update(b"\0")
    for node in topology.nodes:
        digest.update(
            f"{node.index}:{node.role.value}:{node.external_ports}:"
            f"{node.chiplet.radix}\n".encode()
        )
    digest.update(b"\0")
    for link in topology.links:
        digest.update(f"{link.a}-{link.b}:{link.channels}\n".encode())
    return digest.hexdigest()


def mapping_source_fingerprint() -> str:
    """Fingerprint of the mapping layer's own source (kernel + tables).

    Walked from the optimizer façade so both kernels, the routing
    tables and this store are covered; any edit to them invalidates
    every persisted mapping.
    """
    return module_fingerprint("repro.mapping.exchange", "repro.mapping.store")


def entry_key(
    topology: LogicalTopology,
    grid: WaferGrid,
    io_style: IOStyle,
    params: Dict,
) -> str:
    """Content-addressed key for one optimized mapping."""
    param_text = "|".join(f"{k}={params[k]}" for k in sorted(params))
    raw = (
        f"v{STORE_FORMAT_VERSION}|{topology_digest(topology)}|"
        f"{grid.rows}x{grid.cols}|{io_style.value}|{param_text}|"
        f"{mapping_source_fingerprint()}"
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


class MappingStore:
    """Stores :class:`MappingResult` placements as JSON files.

    File names embed the content key, so a source edit simply makes the
    old entry unreachable (``clear`` reclaims the space). Loaded
    results are freshly built objects — callers own them outright and
    may mutate them freely.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = (
            Path(directory) if directory is not None else default_store_dir()
        )

    def entry_path(
        self,
        topology: LogicalTopology,
        grid: WaferGrid,
        io_style: IOStyle,
        params: Dict,
    ) -> Path:
        key = entry_key(topology, grid, io_style, params)
        return self.directory / f"mapping-{key}.json"

    def load(
        self,
        topology: LogicalTopology,
        grid: WaferGrid,
        io_style: IOStyle,
        params: Dict,
    ) -> Optional[MappingResult]:
        path = self.entry_path(topology, grid, io_style, params)
        try:
            payload = json.loads(path.read_text())
            return MappingResult.from_dict(payload["result"], topology)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(
        self,
        result: MappingResult,
        topology: LogicalTopology,
        params: Dict,
    ) -> Path:
        grid = result.placement.grid
        path = self.entry_path(topology, grid, result.io_style, params)
        self.directory.mkdir(parents=True, exist_ok=True)
        # The mapping itself serializes through the shared
        # MappingResult.to_dict path; this envelope only adds the
        # store-level provenance.
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "topology": topology.name,
            "params": {k: params[k] for k in sorted(params)},
            "result": result.to_dict(),
        }
        # Write-then-rename so a concurrent reader never sees a torn file.
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload) + "\n")
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every stored mapping; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("mapping-*.json"):
                entry.unlink()
                removed += 1
        return removed


def default_store() -> Optional[MappingStore]:
    """The store at the default location, or None when disabled."""
    if not store_enabled():
        return None
    return MappingStore()
