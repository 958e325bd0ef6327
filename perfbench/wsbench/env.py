"""Run environment and process-tree memory."""

from __future__ import annotations

import os
import platform
import signal
import time
from typing import Dict, List


def environment(seed: int) -> Dict[str, object]:
    """What a result must be read against (cores, kernel, versions)."""
    import numpy

    from repro.netsim import _fast_step
    from repro.parallel import effective_cpu_count

    return {
        "effective_cpu_count": effective_cpu_count(),
        "c_kernel_loaded": _fast_step.load_kernel() is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _children() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def descendants(root: int) -> List[int]:
    tree = _children()
    found, todo = [], [root]
    while todo:
        pid = todo.pop()
        found.append(pid)
        todo.extend(tree.get(pid, ()))
    return found


def tree_peak_rss_mb() -> float:
    """Sum of each live process's peak resident set (VmHWM), in MB.

    Covers this process and everything it started: pool workers, the
    server and the server's own workers.
    """
    total_kb = 0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def pool_worker_pids() -> set:
    """PIDs of this process's pool workers (children of its forkserver)."""
    tree = _children()
    workers = set()
    for child in tree.get(os.getpid(), ()):
        try:
            with open(f"/proc/{child}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"forkserver" in cmdline:
            workers.update(tree.get(child, ()))
    return workers


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_all_children(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Called last, after the pool and the server were shut down. The
    multiprocessing forkserver and resource tracker would otherwise
    outlive this process for a moment: they end on their own only once
    they notice it has gone. Anything else still running is killed.
    """
    from multiprocessing import forkserver, resource_tracker

    leftover = descendants(os.getpid())[1:]
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        try:
            helper._stop()  # closes its pipe, then waits for it
        except (AttributeError, OSError):
            pass
    leftover = [pid for pid in leftover if alive(pid)]
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
    deadline = time.monotonic() + timeout_s
    for pid in leftover:
        try:
            os.waitpid(pid, 0)  # reaps a direct child
        except ChildProcessError:
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
