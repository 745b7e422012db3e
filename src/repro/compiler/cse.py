"""Common-subexpression elimination over compiled workflow DAGs.

KeystoneML-style one-shot optimizers deduplicate identical pipeline stages
within a single execution; Helix gets the same effect almost for free because
nodes are identified by content signatures.  This pass merges nodes whose
signatures are equal — i.e. the same operator with the same parameters over
the same inputs declared under different names — rewiring consumers to a
single representative and dropping the duplicates.

The pass preserves outputs: if a duplicate node is itself a declared output,
the *output list* keeps its name but it is re-pointed at the representative's
name in the returned mapping so callers can translate results back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.compiler.codegen import CompiledWorkflow
from repro.graph.dag import Dag


@dataclass
class CSEResult:
    """Outcome of common-subexpression elimination."""

    compiled: CompiledWorkflow
    merged: Dict[str, str] = field(default_factory=dict)  # removed node -> representative

    def n_eliminated(self) -> int:
        return len(self.merged)


def eliminate_common_subexpressions(compiled: CompiledWorkflow) -> CSEResult:
    """Merge nodes with identical signatures into a single representative.

    The first node (in topological order) with a given signature becomes the
    representative; later duplicates are removed and their consumers rewired.
    """
    representative_by_signature: Dict[str, str] = {}
    merged: Dict[str, str] = {}
    order = compiled.dag.topological_order()

    for name in order:
        signature = compiled.signature_of(name)
        if signature in representative_by_signature:
            merged[name] = representative_by_signature[signature]
        else:
            representative_by_signature[signature] = name

    if not merged:
        return CSEResult(compiled=compiled, merged={})

    def resolve(name: str) -> str:
        return merged.get(name, name)

    new_dag = Dag(compiled.dag.name)
    for name in order:
        if name not in merged:
            new_dag.add_node(name, compiled.dag.payload(name))
    for parent, child in compiled.dag.edges():
        resolved_parent, resolved_child = resolve(parent), resolve(child)
        if resolved_child in new_dag and resolved_parent in new_dag and resolved_parent != resolved_child:
            new_dag.add_edge(resolved_parent, resolved_child)

    new_outputs: List[str] = []
    for output in compiled.outputs:
        resolved = resolve(output)
        if resolved not in new_outputs:
            new_outputs.append(resolved)

    new_compiled = CompiledWorkflow(
        workflow_name=compiled.workflow_name,
        dag=new_dag,
        signatures={name: compiled.signature_of(name) for name in new_dag.nodes()},
        outputs=new_outputs,
        categories={name: category for name, category in compiled.categories.items() if name in new_dag},
    )
    return CSEResult(compiled=new_compiled, merged=merged)
