"""Disk-backed result cache for experiment artifacts.

Every expensive artifact the reproduction produces — per-system
:class:`~repro.hw.stages.SequenceReport`\\ s, render-quality measurements,
and whole :class:`~repro.experiments.runner.ExperimentResult` tables — is a
pure function of (scene, trajectory, hardware configuration, code version).
The :class:`ResultCache` persists those artifacts under ``.repro_cache/``
keyed by a stable hash of exactly that tuple, so a warm invocation never
re-renders a frame or re-simulates a system it has already measured.

Layout::

    .repro_cache/
        experiments/<key>.json    # ExperimentResult rows (human-inspectable)
        reports/<key>.pkl         # cell values: SequenceReports (SimJob),
                                  # per-frame PSNR/SSIM (QualityJob)
        tenants/<tenant>/         # per-tenant private namespaces (service)
            reports/<key>.pkl
            ...

Keys mix a canonical JSON encoding of the parameter dict with a digest of
the ``repro`` package's own source, so editing any module under
``src/repro/`` transparently invalidates every stale entry.

Multi-tenant isolation: a cache opened with a ``tenant`` (or derived via
:meth:`ResultCache.for_tenant`) reads and writes only that tenant's
subtree, so two tenants of the simulation service never observe each
other's rows unless both opt into the shared (tenant-less) namespaces.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any

import numpy as np

#: Default cache root, overridable via the ``REPRO_CACHE_DIR`` environment
#: variable or an explicit ``root`` argument.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Namespaces with JSON payloads; everything else is pickled.
_JSON_NAMESPACES = frozenset({"experiments"})

#: Directory under the cache root holding per-tenant namespace subtrees.
TENANT_ROOT = "tenants"

#: Filesystem-safe tenant identifiers (also keeps ``..``/``/`` out of paths).
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_code_version_cache: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package's Python source (16 hex chars).

    Hashes every ``*.py`` file under the installed package directory in
    sorted order, so any code change — a new strategy, a tweaked hardware
    constant — yields a different version and therefore different cache keys.
    Computed once per process.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_dir = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _json_default(value: Any) -> Any:
    """Serialize numpy scalars that ``json`` won't take natively.

    ``np.float64`` is a ``float`` subclass and passes through on its own;
    integer and bool scalars are not, so convert them losslessly.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON-cacheable: {type(value).__name__}")


def _canonical(value: Any) -> Any:
    """Recursively convert a payload to a canonical JSON-encodable form."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; float() normalizes np scalars.
        return repr(float(value))
    return repr(value)


def stable_key(payload: dict[str, Any]) -> str:
    """Deterministic hex key for a parameter dict (code version included)."""
    body = json.dumps(
        {"code": code_version(), **_canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()[:32]


class ResultCache:
    """Persistent store for experiment artifacts, keyed by stable hashes.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro_cache`` in the working directory.
    tenant:
        When given, every namespace resolves under
        ``tenants/<tenant>/`` instead of the shared root, so rows written
        by one tenant are invisible to every other tenant (and to the
        shared namespaces).  ``None`` is the shared, pre-existing layout.
    """

    def __init__(self, root: str | Path | None = None, tenant: str | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if tenant is not None and not _TENANT_NAME.match(tenant):
            raise ValueError(
                f"invalid tenant name {tenant!r}: must match {_TENANT_NAME.pattern}"
            )
        self.root = Path(root)
        self.tenant = tenant
        self.hits = 0
        self.misses = 0

    def for_tenant(self, tenant: str | None) -> "ResultCache":
        """A view of the same store scoped to ``tenant``'s private namespaces.

        ``None`` returns a view of the shared namespaces — the opt-in
        "shared namespace" tenants can choose instead of isolation.
        Hit/miss counters are per-view.
        """
        return ResultCache(self.root, tenant=tenant)

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------
    def _path(self, namespace: str, key: str) -> Path:
        suffix = ".json" if namespace in _JSON_NAMESPACES else ".pkl"
        base = self.root if self.tenant is None else self.root / TENANT_ROOT / self.tenant
        return base / namespace / f"{key}{suffix}"

    def get(self, namespace: str, payload: dict[str, Any]) -> Any | None:
        """Look up an artifact; returns ``None`` on a miss or corrupt entry."""
        path = self._path(namespace, stable_key(payload))
        if not path.exists():
            self.misses += 1
            return None
        try:
            if path.suffix == ".json":
                with open(path, encoding="utf-8") as handle:
                    value = json.load(handle)["value"]
            else:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
        except (OSError, ValueError, KeyError, pickle.UnpicklingError, EOFError):
            # A truncated or stale entry is a miss, not an error.
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, namespace: str, payload: dict[str, Any], value: Any) -> Path:
        """Persist an artifact; writes are atomic (tmp file + rename)."""
        path = self._path(namespace, stable_key(payload))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        try:
            if path.suffix == ".json":
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(
                        {"payload": _canonical(payload), "value": value},
                        handle,
                        default=_json_default,
                    )
            else:
                with open(tmp, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _namespace_dirs(self) -> list[tuple[str, Path]]:
        """``(label, path)`` for every namespace directory in the store.

        Shared namespaces are labelled by their bare name (``reports``);
        tenant namespaces by their subtree path (``tenants/<t>/reports``).
        Labels match what :meth:`info` reports and what
        :meth:`clear`'s ``namespace`` filter selects on.  Directories that
        vanish mid-scan (concurrent ``clear``) are silently skipped.
        """
        found: list[tuple[str, Path]] = []
        try:
            top = sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            return found  # root never created, not a directory, or deleted mid-scan
        for ns_dir in top:
            if ns_dir.name != TENANT_ROOT:
                found.append((ns_dir.name, ns_dir))
                continue
            try:
                tenant_dirs = sorted(p for p in ns_dir.iterdir() if p.is_dir())
            except OSError:
                continue
            for tenant_dir in tenant_dirs:
                try:
                    sub = sorted(p for p in tenant_dir.iterdir() if p.is_dir())
                except OSError:
                    continue
                found.extend(
                    (f"{TENANT_ROOT}/{tenant_dir.name}/{p.name}", p) for p in sub
                )
        return found

    def info(self) -> dict[str, Any]:
        """Summary of the cache contents for ``repro cache info``.

        Reports entry counts and byte sizes per namespace, with tenant
        namespaces listed individually as ``tenants/<tenant>/<namespace>``.
        A root that was never created (or vanishes mid-scan under a
        concurrent ``clear``) reports an empty cache rather than raising.
        """
        namespaces: dict[str, dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for label, ns_dir in self._namespace_dirs():
            entries = 0
            size = 0
            try:
                listing = list(ns_dir.iterdir())
            except OSError:
                continue  # namespace removed mid-scan
            for entry in listing:
                try:
                    if not entry.is_file():
                        continue
                    size += entry.stat().st_size
                except OSError:
                    continue  # deleted between listing and stat
                entries += 1
            namespaces[label] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        return {
            "root": str(self.root),
            "code_version": code_version(),
            "namespaces": namespaces,
            "total_entries": total_entries,
            "total_bytes": total_bytes,
        }

    def clear(self, namespace: str | None = None) -> int:
        """Delete cached entries; returns the number removed.

        ``namespace`` limits the sweep to one subtree, using the labels
        :meth:`info` reports: a shared namespace (``reports``), one tenant's
        namespace (``tenants/acme/reports``), or a whole tenant
        (``tenants/acme``).  ``None`` clears everything.

        Deliberately surgical: only ``*.json``/``*.pkl`` entries inside the
        cache's namespace subdirectories are deleted, and directories are
        only removed once empty.  Pointing ``--cache-dir`` (or
        ``REPRO_CACHE_DIR``) at a directory holding anything else must never
        destroy that content.
        """
        removed = 0
        selected = []
        for label, ns_dir in self._namespace_dirs():
            if namespace is None or label == namespace or label.startswith(namespace + "/"):
                selected.append(ns_dir)
        for ns_dir in selected:
            for entry in ns_dir.iterdir():
                if entry.is_file() and entry.suffix in {".json", ".pkl"}:
                    entry.unlink()
                    removed += 1
            try:
                ns_dir.rmdir()
            except OSError:
                pass  # non-cache content present; leave it alone
        # Prune now-empty structural directories (tenants/<t>, tenants/, root).
        tenant_root = self.root / TENANT_ROOT
        if tenant_root.is_dir():
            for tenant_dir in list(tenant_root.iterdir()):
                try:
                    tenant_dir.rmdir()
                except OSError:
                    pass
            try:
                tenant_root.rmdir()
            except OSError:
                pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed
