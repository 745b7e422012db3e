"""Workspace layout resolution shared by the CLI verbs, sessions, and services.

Three directory shapes exist in the wild and every tool that points at "a
workspace" must resolve them identically:

* a **session workspace** — ``<ws>/artifacts`` (the store) plus
  ``<ws>/traces`` (run traces) plus version/cost records;
* a **service root** — ``<root>/cache`` (the shared artifact cache) plus
  ``<root>/tenants/<tenant>/`` (one session workspace per tenant);
* a **bare store directory** — holds the catalog (``catalog.sqlite``)
  directly.

:func:`resolve_store_root` (used by ``repro store``) and
:func:`resolve_trace_dir` (used by ``repro explain`` / ``repro trace``) walk
the same candidates in the same order, so session and service roots resolve
the same way everywhere — previously the store verb carried its own private
copy of this logic.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional

from repro.errors import HelixError
from repro.storage.catalog import refuse_legacy_root, sqlite_catalog_path

#: Directory (under a session workspace) that holds persisted run traces.
TRACE_DIRNAME = "traces"

_TRACE_FILE_PATTERN = re.compile(r"^run-(\d+)\.jsonl$")


class WorkspaceResolutionError(HelixError):
    """A workspace path does not resolve to the requested component."""


def resolve_store_root(workspace: str) -> Optional[str]:
    """Find the artifact store under a workspace path.

    Accepts a session workspace (``<ws>/artifacts``), a service root
    (``<ws>/cache``), or the store directory itself — recognized by its
    catalog file.  Returns ``None`` when no catalog is found; raises
    :class:`~repro.errors.StorageError` when a candidate is a store in the
    retired JSON catalog format.
    """
    candidates = [
        os.path.join(workspace, "artifacts"),
        os.path.join(workspace, "cache"),
        workspace,
    ]
    for candidate in candidates:
        if os.path.exists(sqlite_catalog_path(candidate)):
            return candidate
        refuse_legacy_root(candidate)
    return None


def trace_directory(workspace: str) -> str:
    """Where a session workspace keeps its run traces (next to the artifacts)."""
    return os.path.join(workspace, TRACE_DIRNAME)


def trace_path(workspace: str, iteration: int) -> str:
    """Canonical path of one iteration's persisted trace."""
    return os.path.join(trace_directory(workspace), f"run-{iteration:04d}.jsonl")


def tenant_workspaces(workspace: str) -> Dict[str, str]:
    """Tenant name → session workspace for a service root (empty otherwise)."""
    tenants_root = os.path.join(workspace, "tenants")
    if not os.path.isdir(tenants_root):
        return {}
    return {
        tenant: os.path.join(tenants_root, tenant)
        for tenant in sorted(os.listdir(tenants_root))
        if os.path.isdir(os.path.join(tenants_root, tenant))
    }


def resolve_trace_dir(workspace: str, tenant: Optional[str] = None) -> str:
    """Find the trace directory under a session workspace or service root.

    Resolution mirrors :func:`resolve_store_root`: a plain session workspace
    answers with its own ``traces/`` directory; a service root answers with
    the named tenant's (``--tenant``), or the single traced tenant when there
    is exactly one.  Raises :class:`WorkspaceResolutionError` with the list
    of traced tenants when the choice is ambiguous, and when nothing under
    the path holds traces at all.
    """
    if tenant:
        tenants = tenant_workspaces(workspace)
        if tenant not in tenants:
            known = ", ".join(sorted(tenants)) or "none"
            raise WorkspaceResolutionError(
                f"no tenant {tenant!r} under {workspace} (tenants: {known})"
            )
        return trace_directory(tenants[tenant])
    own = trace_directory(workspace)
    if os.path.isdir(own):
        return own
    traced = {
        name: trace_directory(path)
        for name, path in tenant_workspaces(workspace).items()
        if os.path.isdir(trace_directory(path))
    }
    if len(traced) == 1:
        return next(iter(traced.values()))
    if traced:
        raise WorkspaceResolutionError(
            f"{workspace} is a service root with traces for several tenants "
            f"({', '.join(sorted(traced))}); pass --tenant to pick one"
        )
    raise WorkspaceResolutionError(
        f"no run traces found under {workspace} (expected {TRACE_DIRNAME}/run-*.jsonl "
        "in a session workspace or under tenants/<tenant>/)"
    )


def list_trace_runs(trace_dir: str) -> List[int]:
    """Sorted iteration indices with a persisted trace in ``trace_dir``."""
    if not os.path.isdir(trace_dir):
        return []
    runs = []
    for filename in os.listdir(trace_dir):
        match = _TRACE_FILE_PATTERN.match(filename)
        if match:
            runs.append(int(match.group(1)))
    return sorted(runs)


def resolve_trace_file(trace_dir: str, run: Optional[int] = None) -> str:
    """Path of the requested (or latest) persisted trace in ``trace_dir``."""
    runs = list_trace_runs(trace_dir)
    if not runs:
        raise WorkspaceResolutionError(f"no run traces in {trace_dir}")
    if run is None:
        run = runs[-1]
    if run not in runs:
        available = ", ".join(str(index) for index in runs)
        raise WorkspaceResolutionError(
            f"no trace for run {run} in {trace_dir} (available runs: {available})"
        )
    return os.path.join(trace_dir, f"run-{run:04d}.jsonl")
