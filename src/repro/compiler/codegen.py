"""Intermediate code generation: Workflow declarations → operator DAG with signatures.

A node's *signature* is a content hash over its operator type, parameters,
embedded UDF sources, and — recursively — the signatures of its dependencies.
Two nodes with equal signatures therefore denote the same computation over the
same (declared) inputs, which is exactly the equivalence the change tracker
and the artifact store key on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.dsl.operators import ChangeCategory, Operator
from repro.dsl.workflow import Workflow
from repro.errors import CompilationError
from repro.graph.dag import Dag


def node_signature(operator: Operator, dependency_signatures: List[str]) -> str:
    """Content hash of one operator given its dependencies' signatures."""
    payload = {
        "op": type(operator).__name__,
        "params": operator.params(),
        "udfs": operator.udf_sources(),
        "deps": list(dependency_signatures),
    }
    try:
        text = json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError) as exc:
        raise CompilationError(f"operator {operator.describe()} has unserializable parameters: {exc}") from exc
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CompiledWorkflow:
    """A workflow lowered to an operator DAG with per-node signatures."""

    workflow_name: str
    dag: Dag
    signatures: Dict[str, str]
    outputs: List[str]
    categories: Dict[str, ChangeCategory] = field(default_factory=dict)

    def operator(self, name: str) -> Operator:
        return self.dag.payload(name)

    def nodes(self) -> List[str]:
        return self.dag.nodes()

    def signature_of(self, name: str) -> str:
        return self.signatures[name]

    def signature_set(self) -> set:
        return set(self.signatures.values())


def compile_workflow(workflow: Workflow) -> CompiledWorkflow:
    """Lower a validated workflow into a :class:`CompiledWorkflow`.

    Raises :class:`~repro.errors.CompilationError` if the workflow declares no
    outputs or references undeclared nodes (the DSL layer normally prevents
    both, but compiled artifacts may also be constructed programmatically).
    """
    try:
        workflow.validate()
    except Exception as exc:  # surface DSL validation problems as compile errors
        raise CompilationError(str(exc)) from exc

    dag = Dag(name=workflow.name)
    for name, operator in workflow:
        dag.add_node(name, operator)
    for name, operator in workflow:
        for dependency in operator.dependencies():
            if dependency not in dag:
                raise CompilationError(f"node {name!r} depends on undeclared node {dependency!r}")
            dag.add_edge(dependency, name)

    signatures: Dict[str, str] = {}
    for name in dag.topological_order():
        operator = dag.payload(name)
        dependency_signatures = [signatures[parent] for parent in operator.dependencies()]
        signatures[name] = node_signature(operator, dependency_signatures)

    return CompiledWorkflow(
        workflow_name=workflow.name,
        dag=dag,
        signatures=signatures,
        outputs=workflow.outputs(),
        categories=workflow.categories(),
    )
