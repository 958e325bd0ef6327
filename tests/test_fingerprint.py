"""Source fingerprints: static walk, key values, and per-process lifetime.

Every on-disk cache keys its entries on
:func:`repro.fingerprint.module_fingerprint`, which hashes the source
once per process. These tests pin what that memo must not change (the
key values, and so every warm on-disk entry) and what it must (a warm
key reads no source; a new process sees an edit).
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro import api, fingerprint
from repro.dcn import flow
from repro.experiments.base import EXPERIMENT_IDS
from repro.experiments.cache import CACHE_FORMAT_VERSION, cache_key
from repro.fingerprint import source_fingerprint, transitive_modules
from repro.mapping import store as mapping_store

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code, tmp_path, extra_path=None):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    path = [str(SRC)] + ([str(extra_path)] if extra_path else [])
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def _find_spec_walk(root):
    """The import walk as ``find_spec`` resolves names (it imports
    parent packages, so it is only a reference, never the key path)."""

    def path_of(name):
        try:
            spec = importlib.util.find_spec(name)
        except (ImportError, AttributeError, ValueError):
            return None
        if spec is None or not spec.origin or not spec.origin.endswith(".py"):
            return None
        return Path(spec.origin)

    seen, frontier = set(), [root]
    while frontier:
        name = frontier.pop()
        path = None if name in seen else path_of(name)
        if path is None:
            continue
        seen.add(name)
        frontier.extend(fingerprint._direct_imports(path.read_text()))
    return tuple(sorted(seen))


def test_static_walk_matches_import_system_resolution():
    roots = [f"repro.experiments.{eid}" for eid in EXPERIMENT_IDS]
    roots += ["repro", "repro.api", "repro.cli", "repro.dcn.flow", "repro.mapping.store"]
    for root in roots:
        assert transitive_modules(root) == _find_spec_walk(root), root


def test_cache_keys_equal_per_call_fingerprints():
    """Memoizing changes when the source is hashed, never the key."""
    for eid in ("fig01", "fig07", "fig21", "tab06"):
        fp = source_fingerprint(transitive_modules(f"repro.experiments.{eid}"))
        raw = f"v{CACHE_FORMAT_VERSION}|{eid}|fast|{fp}"
        assert cache_key(eid, fast=True) == hashlib.sha256(raw.encode()).hexdigest()[:16]

    mapping_modules = set(transitive_modules("repro.mapping.exchange"))
    mapping_modules.update(transitive_modules("repro.mapping.store"))
    assert mapping_store.mapping_source_fingerprint() == source_fingerprint(mapping_modules)

    query = api.SweepQuery()
    raw = json.dumps(
        {
            "query": query.to_dict(),
            "engine": api.resolve_netsim_engine("auto"),
            "mapping_engine": api.resolve_mapping_engine("auto"),
            "source": source_fingerprint(transitive_modules("repro.api")),
        },
        sort_keys=True,
    )
    assert api.query_key(query) == hashlib.sha256(raw.encode()).hexdigest()[:24]

    payload = {
        "wafer_terminals": 8,
        "ssc_radix": 8,
        "num_vcs": 4,
        "buffer_flits": 16,
        "size_flits": 4,
        "probe_loads": list(flow.PROBE_LOADS),
        "saturation_load": flow.SATURATION_LOAD,
        "probe_cycles": flow.PROBE_CYCLES,
        "probe_seed": flow.PROBE_SEED,
        "sources": source_fingerprint(transitive_modules("repro.dcn.flow")),
    }
    canonical = json.dumps(payload, sort_keys=True).encode()
    assert flow._curve_cache_key(8, 8, 4, 16, 4) == hashlib.sha256(canonical).hexdigest()[:24]


def test_import_walk_executes_no_repro_module(tmp_path):
    loaded = _run_python(
        """
        import json, sys
        from repro.fingerprint import transitive_modules
        before = {m for m in sys.modules if m.startswith("repro")}
        modules = transitive_modules("repro.experiments.fig21")
        after = {m for m in sys.modules if m.startswith("repro")}
        print(json.dumps({"walked": len(modules), "added": sorted(after - before)}))
        """,
        tmp_path,
    )
    assert loaded["walked"] > 20
    assert loaded["added"] == []


def test_warm_result_cache_load_reads_no_source(tmp_path):
    opened = _run_python(
        """
        import json, sys
        from repro.experiments.base import ExperimentResult
        from repro.experiments.cache import ResultCache

        cache = ResultCache()
        result = ExperimentResult("fig01", "t", ("a",), [(1,)], [])
        cache.store("fig01", fast=True, result=result)
        files = []
        sys.addaudithook(
            lambda event, args: files.append(str(args[0]))
            if event == "open" and isinstance(args[0], str) else None
        )
        hit = cache.load("fig01", fast=True) == result
        sys.stdout.write(json.dumps({"hit": hit, "files": files}))
        """,
        tmp_path,
    )
    assert opened["hit"]
    assert [f for f in opened["files"] if f.endswith(".json")]
    assert not [f for f in opened["files"] if f.endswith(".py")]


def test_source_edit_changes_key_in_the_next_process_only(tmp_path):
    pkg = tmp_path / "fpedit"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    leaf = pkg / "leaf.py"
    leaf.write_text("VALUE = 1\n")
    code = f"""
        import json
        from pathlib import Path
        from repro.experiments.cache import cache_key
        first = cache_key("toy", fast=True, module_name="fpedit.leaf")
        leaf = Path({str(leaf)!r})
        leaf.write_text(leaf.read_text() + "VALUE += 1\\n")
        again = cache_key("toy", fast=True, module_name="fpedit.leaf")
        print(json.dumps([first, again]))
        """
    first, same_process = _run_python(code, tmp_path, extra_path=tmp_path)
    assert same_process == first  # the source as of first use
    second, _ = _run_python(code, tmp_path, extra_path=tmp_path)
    assert second != first

