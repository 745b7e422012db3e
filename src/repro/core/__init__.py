"""Public end-to-end API: the iterative HELIX session.

:class:`~repro.core.session.HelixSession` is what a user of this library
instantiates once per project.  Every call to :meth:`HelixSession.run` is one
human-in-the-loop *iteration*: the session compiles the workflow, slices it,
detects changes against previous iterations, plans reuse with the
recomputation optimizer, executes the plan, materializes selected
intermediates under the storage budget, and records a new version.
"""

from repro.core.config import RunConfig
from repro.core.session import HelixSession, SessionRunResult
from repro.core.suggestions import SuggestedEdit, SuggestionConfig, suggest_modifications
from repro.core.trace_index import register_trace, trace_summaries
from repro.core.workspace import (
    WorkspaceResolutionError,
    list_trace_runs,
    resolve_store_root,
    resolve_trace_dir,
    resolve_trace_file,
    trace_directory,
    trace_path,
)

__all__ = [
    "HelixSession",
    "RunConfig",
    "SessionRunResult",
    "SuggestedEdit",
    "SuggestionConfig",
    "suggest_modifications",
    "WorkspaceResolutionError",
    "resolve_store_root",
    "resolve_trace_dir",
    "resolve_trace_file",
    "trace_directory",
    "trace_path",
    "list_trace_runs",
    "register_trace",
    "trace_summaries",
]
