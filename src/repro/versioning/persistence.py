"""Persistence of the version store (and run history) to the workspace.

The demo keeps workflow versions across sessions so users can browse and roll
back later.  This module serializes :class:`~repro.versioning.version_store.VersionStore`
records and the measured cost history to JSON files inside a workspace
directory, and restores them when a :class:`~repro.core.session.HelixSession`
reopens that workspace.  Attached ``Workflow`` objects are *not* serialized
(operators may close over arbitrary UDFs); a restored version therefore
supports browsing, diffing, and metric queries, but not ``checkout``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.errors import VersioningError
from repro.execution.stats import RunHistory
from repro.optimizer.cost_model import CostRecord
from repro.versioning.version_store import VersionStore, WorkflowVersion

VERSIONS_FILENAME = "versions.json"
HISTORY_FILENAME = "cost_history.json"


def _write_json(path: str, payload: object, what: str) -> str:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    A dump that fails partway (full disk, a crash, an unserializable value)
    leaves the previous file whole, so the workspace still opens.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise VersioningError(f"cannot write {what} to {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp_path):  # the dump or the rename failed
            os.remove(tmp_path)
    return path


# ---------------------------------------------------------------------------
# Version store
# ---------------------------------------------------------------------------
def version_to_dict(version: WorkflowVersion) -> Dict:
    """JSON-ready representation of one version (without the workflow object)."""
    return {
        "version_id": version.version_id,
        "workflow_name": version.workflow_name,
        "description": version.description,
        "change_category": version.change_category,
        "created_at": version.created_at,
        "signatures": version.signatures,
        "edges": [list(edge) for edge in version.edges],
        "outputs": version.outputs,
        "operator_summaries": version.operator_summaries,
        "categories": version.categories,
        "metrics": version.metrics,
        "runtime": version.runtime,
        "parent_id": version.parent_id,
        "dsl_text": version.dsl_text,
    }


def version_from_dict(payload: Dict) -> WorkflowVersion:
    return WorkflowVersion(
        version_id=payload["version_id"],
        workflow_name=payload["workflow_name"],
        description=payload.get("description", ""),
        change_category=payload.get("change_category", ""),
        created_at=payload.get("created_at", 0.0),
        signatures=dict(payload.get("signatures", {})),
        edges=[tuple(edge) for edge in payload.get("edges", [])],
        outputs=list(payload.get("outputs", [])),
        operator_summaries=dict(payload.get("operator_summaries", {})),
        categories=dict(payload.get("categories", {})),
        metrics=dict(payload.get("metrics", {})),
        runtime=payload.get("runtime", 0.0),
        parent_id=payload.get("parent_id"),
        dsl_text=payload.get("dsl_text", ""),
        workflow=None,
    )


def save_version_store(store: VersionStore, workspace: str) -> str:
    """Write all versions to ``<workspace>/versions.json``; returns the path."""
    path = os.path.join(workspace, VERSIONS_FILENAME)
    payload = [version_to_dict(version) for version in store.all()]
    return _write_json(path, payload, "version store")


def load_version_store(workspace: str) -> VersionStore:
    """Load a version store previously saved in ``workspace`` (empty if none)."""
    path = os.path.join(workspace, VERSIONS_FILENAME)
    store = VersionStore()
    if not os.path.exists(path):
        return store
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise VersioningError(f"cannot read version store from {path}: {exc}") from exc
    # Re-insert in version-id order so new ids continue the sequence.
    for entry in sorted(payload, key=lambda item: item["version_id"]):
        store._versions.append(version_from_dict(entry))
    return store


# ---------------------------------------------------------------------------
# Cost history
# ---------------------------------------------------------------------------
def save_cost_history(history: RunHistory, workspace: str) -> str:
    """Persist the signature → measured-cost database (not the full reports)."""
    path = os.path.join(workspace, HISTORY_FILENAME)
    payload = {
        signature: {
            "compute_cost": record.compute_cost,
            "output_size": record.output_size,
            "operator_type": record.operator_type,
        }
        for signature, record in history.cost_records().items()
    }
    return _write_json(path, payload, "cost history")


def load_cost_history(workspace: str) -> Dict[str, CostRecord]:
    """Load the persisted cost database (empty dict if none exists)."""
    path = os.path.join(workspace, HISTORY_FILENAME)
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise VersioningError(f"cannot read cost history from {path}: {exc}") from exc
    return {
        signature: CostRecord(
            compute_cost=entry.get("compute_cost", 0.0),
            output_size=entry.get("output_size", 0.0),
            operator_type=entry.get("operator_type", ""),
        )
        for signature, entry in payload.items()
    }
