"""Static source fingerprinting shared by every on-disk cache.

A **source fingerprint** is a hash over the source text of every
``repro`` module a given module (transitively) imports — computed from
a static AST import scan, so no code is ever executed to derive a
cache key: ``repro`` module names resolve to files under this package's
directory without importing anything. The experiment result cache
(:mod:`repro.experiments.cache`), the persistent mapping store
(:mod:`repro.mapping.store`), the API query key (:mod:`repro.api`) and
the DCN service-curve cache (:mod:`repro.dcn.flow`) all key their
entries on :func:`module_fingerprint`; the helpers live here, below all
of them, because imports in this codebase only point downward (see
``docs/architecture.md``).

**Lifetime.** :func:`module_fingerprint` hashes the source once per
process, at first use, and every later key is a dict lookup. A key
therefore describes *the source as of first use in this process* —
the code the process is actually running. A long-lived process (the
``serve`` server, a warm pool worker) picks up a source edit only when
it restarts; re-hashing in place would file results computed by the
old code under the new code's key.

The scan is deliberately conservative: lazy imports inside function
bodies are still found (``ast.walk`` visits them), so a module cannot
hide a dependency from its fingerprint by deferring the import.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Tuple

#: Directory of the ``repro`` package whose source this process runs.
_PACKAGE_DIR = Path(__file__).resolve().parent


def module_source_path(module_name: str) -> Optional[Path]:
    """Filesystem path of a module's source, or None for non-file modules.

    ``repro`` names resolve by path under the package directory (a
    package's ``__init__.py`` first, as the import system does), so no
    parent package is imported; other names go through
    :func:`importlib.util.find_spec`.
    """
    parts = module_name.split(".")
    if parts[0] == "repro":
        base = _PACKAGE_DIR.joinpath(*parts[1:])
        candidates = [base / "__init__.py"]
        if len(parts) > 1:
            candidates.append(base.with_suffix(".py"))
        return next((path for path in candidates if path.is_file()), None)
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or not spec.origin or not spec.origin.endswith(".py"):
        return None
    return Path(spec.origin)


def _direct_imports(source: str) -> Iterable[str]:
    """Names of ``repro.*`` modules a source text imports directly.

    ``from repro.a import b`` yields both ``repro.a`` and ``repro.a.b``
    as candidates; non-module candidates are discarded by the resolver.
    """
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "repro":
                yield node.module
                for alias in node.names:
                    yield f"{node.module}.{alias.name}"


@lru_cache(maxsize=None)
def _module_imports(module_name: str) -> Optional[Tuple[str, ...]]:
    """A module's direct ``repro`` import candidates, parsed once per
    process; None when the name is not a source module."""
    path = module_source_path(module_name)
    if path is None:
        return None
    return tuple(_direct_imports(path.read_text()))


@lru_cache(maxsize=None)
def transitive_modules(module_name: str) -> Tuple[str, ...]:
    """All ``repro`` modules reachable from ``module_name`` via imports,
    including itself, sorted. Static AST walk — no code is executed."""
    seen = set()
    frontier = [module_name]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        imports = _module_imports(name)
        if imports is None:
            continue
        seen.add(name)
        frontier.extend(c for c in imports if c not in seen)
    return tuple(sorted(seen))


def source_fingerprint(module_names: Iterable[str]) -> str:
    """SHA-256 over the named modules' source bytes (order-independent).

    Reads the files on every call; cache keys use the memoized
    :func:`module_fingerprint` instead.
    """
    digest = hashlib.sha256()
    for name in sorted(set(module_names)):
        path = module_source_path(name)
        if path is None or not path.exists():
            continue
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def module_fingerprint(*roots: str) -> str:
    """Source fingerprint of everything ``roots`` transitively import,
    computed at first use and fixed for the rest of the process.

    Equal to ``source_fingerprint`` over the union of
    :func:`transitive_modules` of each root.
    """
    modules = set()
    for root in roots:
        modules.update(transitive_modules(root))
    return source_fingerprint(modules)
