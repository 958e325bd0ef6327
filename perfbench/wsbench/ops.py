"""Operation accounting and output checks.

Every call the benchmark makes into the program is one operation. An
operation fails when it raises, when an HTTP response is not a 200
carrying its request's key, or when its output differs from the
committed reference (``references.json``). Two operations are known
defects of the program, kept in on purpose and expected to fail until
the program is fixed; any other failure makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Callable, Dict, List, Optional, Tuple

REFERENCES_PATH = pathlib.Path(__file__).resolve().parent / "references.json"

#: Operations that fail at the seed because of known program defects.
KNOWN_DEFECTS = {
    "netsim.radix256_uniform": (
        "engine=auto on a radix-256 waferscale Clos under uniform traffic "
        "raises UnboundLocalError in the numpy fallback of run_bernoulli"
    ),
    "api.simulate_repeat": (
        "the same waferscale SimQuery executed twice in one process returns "
        "different avg_latency_cycles under one query_key (packet ids are "
        "process-global and feed the Clos spine hash)"
    ),
}


class CheckFailed(Exception):
    """An operation's output differs from what it must be."""


def load_references() -> Dict[str, Any]:
    return json.loads(REFERENCES_PATH.read_text())


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def netsim_summary(stats) -> Dict[str, Any]:
    """The simulated statistics of one netsim run (exactly comparable)."""
    latencies = [int(x) for x in stats.latencies_cycles]
    return {
        "flits_offered": int(stats.flits_offered),
        "flits_delivered": int(stats.flits_delivered),
        "packets_created": int(stats.packets_created),
        "packets_delivered": len(latencies),
        "latency_sum": sum(latencies),
        "latencies": digest(latencies),
    }


def dcn_summary(result) -> Dict[str, Any]:
    """The simulated statistics of one DCN run (exactly comparable)."""
    signature = result.parity_signature()
    return {
        "flits_offered": int(result.flits_offered),
        "flits_delivered": int(result.flits_delivered),
        "packets_delivered": int(result.packets_delivered),
        "makespan": int(result.makespan),
        "epochs": int(result.epochs),
        "signature": digest(signature),
    }


def expect_equal(what: str, got: Any, want: Any) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


class Ops:
    """Counts attempted and failed operations with their errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []

    def run(self, name: str, fn: Callable[[], Any]) -> Optional[Any]:
        """Call ``fn`` as one operation; ``None`` if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — every failure is counted
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def record(self, name: str, error: Optional[str]) -> None:
        """Count one operation whose outcome was decided elsewhere."""
        self.attempted += 1
        if error is not None:
            self.fail(name, error)

    def fail(self, name: str, error: str) -> None:
        self.failures.append((name, error[:400]))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> List[Tuple[str, str]]:
        return [f for f in self.failures if f[0] not in KNOWN_DEFECTS]
