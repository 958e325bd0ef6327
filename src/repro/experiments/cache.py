"""Content-addressed on-disk cache for experiment results.

A cached entry is keyed by the experiment id, the run mode (fast/full),
and a **source fingerprint**: a hash over the source text of every
``repro`` module the experiment (transitively) imports. Editing any
module an experiment depends on — and only those — changes its key, so
stale results can never be served while unrelated edits keep the cache
warm. Entries live as JSON files under ``.repro_cache/`` (override with
the ``REPRO_CACHE_DIR`` environment variable).

The dependency walk is static (AST import scan, shared with the
mapping store via :mod:`repro.fingerprint`), so computing a key never
executes experiment code. The fingerprint is taken once per process, at
first use, so a warm ``load`` reads one JSON file and no source; a
long-lived process picks up source edits when it restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro import paths
from repro.experiments.base import ExperimentResult
from repro.fingerprint import module_fingerprint

#: Deprecation shim — the resolver lives in :mod:`repro.paths` now.
CACHE_DIR_ENV = paths.CACHE_DIR_ENV

#: Bump to invalidate every existing cache entry (serialization changes).
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` in the cwd.

    Deprecated alias for :func:`repro.paths.experiment_cache_dir`.
    """
    return paths.experiment_cache_dir()


def _mode_tag(fast: bool) -> str:
    """Cache-key tag for the run mode.

    >>> _mode_tag(True), _mode_tag(False)
    ('fast', 'full')
    """
    return "fast" if fast else "full"


def cache_key(experiment_id: str, fast: bool, module_name: Optional[str] = None) -> str:
    """Content-addressed key: experiment id + mode + source fingerprint."""
    module_name = module_name or f"repro.experiments.{experiment_id}"
    fingerprint = module_fingerprint(module_name)
    raw = f"v{CACHE_FORMAT_VERSION}|{experiment_id}|{_mode_tag(fast)}|{fingerprint}"
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


class ResultCache:
    """Stores :class:`ExperimentResult` tables as JSON files.

    File names embed the content key, so a source edit simply makes the
    old entry unreachable (``clear`` reclaims the space). ``load``
    returns None on any miss or unreadable entry — the cache is purely
    an accelerator and never a source of errors.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    def entry_path(self, experiment_id: str, fast: bool) -> Path:
        key = cache_key(experiment_id, fast)
        return self.directory / f"{experiment_id}-{_mode_tag(fast)}-{key}.json"

    def load(self, experiment_id: str, fast: bool) -> Optional[ExperimentResult]:
        path = self.entry_path(experiment_id, fast)
        try:
            payload = json.loads(path.read_text())
            return ExperimentResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, experiment_id: str, fast: bool, result: ExperimentResult) -> Path:
        path = self.entry_path(experiment_id, fast)
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment_id": experiment_id,
            "mode": _mode_tag(fast),
            "format_version": CACHE_FORMAT_VERSION,
            "result": result.to_dict(),
        }
        # Write-then-rename so a concurrent reader never sees a torn file.
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=1) + "\n")
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.json"):
                entry.unlink()
                removed += 1
        return removed
