"""Metric catalogue: names, units, directions and bounds.

The catalogue is ``BENCHMARK.json`` at the repository root;
``perfbench/README.md`` says which end-to-end metric each per-layer
metric should move, and on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


def _load():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return (
        [Metric(**m) for m in spec["end_to_end"]],
        [Metric(**m) for m in spec["per_layer"]],
    )


END_TO_END, PER_LAYER = _load()


def result_metrics(specs: List[Metric], values: Dict[str, float]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line; every spec, in order."""
    missing = [m.name for m in specs if m.name not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in specs}
