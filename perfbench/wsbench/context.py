"""State shared by the phases of one benchmark run."""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from wsbench.inputs import Inputs, Plan
from wsbench.ops import Ops
from wsbench.spans import Tracer


class Context:
    """One run: its plan, inputs, spans, operation count and numbers.

    ``metrics`` collects end-to-end values, ``layers`` per-layer
    values; both hold plain floats keyed by metric name.
    """

    def __init__(
        self, plan: Plan, inputs: Inputs, refs: Dict[str, Any],
        workdir: Path, traced: bool,
    ):
        self.plan = plan
        self.inputs = inputs
        self.refs = refs
        self.workdir = workdir
        self.traced = traced
        self.tracer = Tracer(traced)
        self.ops = Ops()
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.setup_parts: Dict[str, float] = {}
        self.warm_bodies: Dict[str, dict] = {}
        #: Human-readable lines printed before the result line.
        self.notes: List[str] = []
        self.dcn_root: Optional[Path] = None
        self.netsim_ops = 0
        self.netsim_c_ops = 0
        self._dirs = 0

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def fresh_dir(self, label: str) -> Path:
        """An empty directory under this run's work directory."""
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def use_cache_root(self, path: Path) -> None:
        """Point the program's cache root (and pool workers') at ``path``."""
        os.environ["REPRO_CACHE_DIR"] = str(path)

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + float(value)

    @contextmanager
    def watch_engine(self) -> Iterator[None]:
        """Count one netsim operation and whether the C kernel ran it.

        Only in the traced run: a profile hook notes any call of the
        numpy step loop or the scalar object step. An operation that
        completed and called neither stepped in the compiled kernel.
        """
        if not self.traced:
            yield
            return
        from repro.netsim import fast_core
        from repro.netsim.network import NetworkModel

        step_codes = {
            getattr(getattr(fast_core.FastEngine, "_step", None), "__code__", None),
            getattr(getattr(NetworkModel, "step", None), "__code__", None),
        } - {None}
        stepped: List[bool] = []

        def hook(frame, event, arg):
            if event == "call" and not stepped and frame.f_code in step_codes:
                stepped.append(True)

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            yield
        except BaseException:
            stepped.append(False)  # a failed operation ran no engine
            raise
        finally:
            sys.setprofile(previous)
            self.netsim_ops += 1
            if not stepped:
                self.netsim_c_ops += 1


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)``."""
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def cpu_timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), CPU seconds of this thread)``.

    For work that runs entirely on the calling thread (the simulators,
    store reads): on a shared host its CPU time is much steadier than
    its wall time, and equal to it on an idle one.
    """
    started = time.thread_time()
    value = fn(*args, **kwargs)
    return value, time.thread_time() - started


def median(values: List[float]) -> float:
    import statistics

    return statistics.median(values) if values else 0.0


def best(values: List[float]) -> float:
    """The fastest of repeated samples of one deterministic piece of work.

    The work is the same every time, so a slower sample only says that
    the host was busier. The shared host this benchmark was built on
    flips between two speeds (about 1.7x apart) every few seconds, so
    the median of a few samples jumps between the two levels from run
    to run; the fastest of samples spread over the run does not. A
    change that slows the work slows every sample, the fastest too.
    """
    return min(values) if values else 0.0
