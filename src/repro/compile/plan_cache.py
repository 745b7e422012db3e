"""Plan caching: skip recompilation when only parameters changed.

Every iteration of the paper's loop re-submits a workflow that differs from
the previous one in a handful of operator parameters — yet compiling it
from scratch means: re-validate the DSL program, rebuild the DAG, re-hash
every signature, re-slice to the outputs, and re-classify every node's
partition mode.  All of that except the signature hashes is a pure
function of the workflow's *structure* (node names, operator types, UDF
sources, dependency edges, declared outputs), which iteration edits almost
never touch.

:class:`PlanCache` keys compiled plans two ways:

* an **exact** key over structure *and* per-node parameters — a hit returns
  the previously compiled (and sliced) plan as-is, signatures included;
* a **structural** key over structure alone — a hit grafts the new operator
  instances onto the cached sliced DAG shape
  (:meth:`~repro.graph.dag.Dag.map_payloads`) and recomputes only the
  signature hashes, skipping validation and slicing.

Either way the resulting :class:`~repro.compiler.codegen.CompiledWorkflow`
is equal to what a from-scratch compile would produce — same nodes, same
edges, same signatures, same outputs — which
``tests/test_compiled_differential.py`` proves by fuzzing generated
workflows through both paths.  Partition-mode classifications are cached per
structural key as well (:meth:`PlanCache.partition_modes`), so a cached plan
reaches the scheduler with its partition plan precomputed.

Caches are per-session instances (sessions never share one), so cached plans
can never leak operator instances across tenants.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.compiler.codegen import CompiledWorkflow, compile_workflow, node_signature
from repro.compiler.slicing import slice_to_outputs
from repro.dsl.workflow import Workflow
from repro.obs.registry import get_registry
from repro.partition.planner import PartitionMode, PartitionPlanner

__all__ = ["PlanCache"]


def _canonical(payload: Any) -> Optional[str]:
    """Deterministic JSON rendering, or ``None`` when not serializable."""
    try:
        return json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError):
        return None


class PlanCache:
    """Per-session cache of compiled (and sliced) workflow plans.

    ``compile_sliced`` is the session's compile step, equal to
    ``slice_to_outputs(compile_workflow(workflow))``; the outcome of
    the most recent call is exposed as :attr:`last_result` (``"exact"``,
    ``"structural"``, or ``"miss"``) and counted as
    ``repro_plan_cache_requests_total{result=...}``.
    """

    def __init__(self, registry=None, capacity: int = 32) -> None:
        self._registry = registry
        self.capacity = max(1, int(capacity))
        self._exact: "OrderedDict[str, CompiledWorkflow]" = OrderedDict()
        self._structural: "OrderedDict[str, CompiledWorkflow]" = OrderedDict()
        self._modes: Dict[str, Dict[str, PartitionMode]] = {}
        self.last_result: str = "miss"

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cached-entry counts (observability / tests)."""
        return {
            "exact_entries": len(self._exact),
            "structural_entries": len(self._structural),
            "mode_entries": len(self._modes),
        }

    # ------------------------------------------------------------------
    def compile_sliced(self, workflow: Workflow) -> CompiledWorkflow:
        """The sliced compiled plan for ``workflow``, from cache when possible."""
        keys = self._keys(workflow)
        if keys is None:
            # Unserializable structure/params: never cacheable, always compile.
            return self._record("miss", None, self._compile(workflow))
        structural_key, exact_key = keys
        cached = self._exact.get(exact_key)
        if cached is not None:
            self._exact.move_to_end(exact_key)
            return self._record("exact", structural_key, cached)
        shape = self._structural.get(structural_key)
        if shape is not None:
            self._structural.move_to_end(structural_key)
            compiled = self._regraft(shape, workflow)
            if compiled is not None:
                self._remember(self._exact, exact_key, compiled)
                return self._record("structural", structural_key, compiled)
        compiled = self._compile(workflow)
        self._remember(self._exact, exact_key, compiled)
        self._remember(self._structural, structural_key, compiled)
        return self._record("miss", structural_key, compiled)

    def partition_modes(
        self, compiled: CompiledWorkflow, planner: PartitionPlanner
    ) -> Dict[str, PartitionMode]:
        """Node → partition mode for a plan from :meth:`compile_sliced`.

        Cached per structural key: classification depends only on operator
        types and class-level hints, so a parameter-only iteration reuses the
        previous partition plan outright.  Plans containing instance-hinted
        operators (a ``partition_mode`` or ``partition_combiner`` attribute
        set on the *instance*) are classified fresh every time — instance
        hints are invisible to the structural key.
        """
        key = getattr(compiled, "plan_cache_key", None)
        # Hint check comes *before* the cache lookup: instance hints don't
        # participate in the structural key, so a hinted plan must neither be
        # served a cached (unhinted) classification nor pollute the cache.
        instance_hinted = any(
            "partition_mode" in getattr(compiled.operator(name), "__dict__", {})
            or "partition_combiner" in getattr(compiled.operator(name), "__dict__", {})
            for name in compiled.nodes()
        )
        if key is not None and not instance_hinted:
            cached = self._modes.get(key)
            if cached is not None:
                return dict(cached)
        modes = {
            name: planner.mode_for(compiled.operator(name)) for name in compiled.nodes()
        }
        if key is not None and not instance_hinted:
            if len(self._modes) >= self.capacity:
                self._modes.pop(next(iter(self._modes)))
            self._modes[key] = dict(modes)
        return modes

    # ------------------------------------------------------------------
    def _keys(self, workflow: Workflow) -> Optional[Tuple[str, str]]:
        """(structural, exact) cache keys, or ``None`` when unserializable."""
        nodes = []
        params = []
        try:
            categories = {
                name: getattr(category, "value", str(category))
                for name, category in workflow.categories().items()
            }
            for name, operator in workflow:
                nodes.append(
                    {
                        "name": name,
                        "op": type(operator).__name__,
                        "udfs": operator.udf_sources(),
                        "deps": list(operator.dependencies()),
                        "category": categories.get(name, ""),
                    }
                )
                params.append({"name": name, "params": operator.params()})
            structure = {
                "workflow": workflow.name,
                "outputs": list(workflow.outputs()),
                "nodes": nodes,
            }
        except Exception:
            return None
        structural = _canonical(structure)
        exact_params = _canonical(params)
        if structural is None or exact_params is None:
            return None
        return structural, structural + "\x00" + exact_params

    def _compile(self, workflow: Workflow) -> CompiledWorkflow:
        return slice_to_outputs(compile_workflow(workflow))

    def _regraft(
        self, shape: CompiledWorkflow, workflow: Workflow
    ) -> Optional[CompiledWorkflow]:
        """New operators on the cached sliced DAG shape; only signatures re-hash."""
        new_ops = {name: operator for name, operator in workflow}
        if any(name not in new_ops for name in shape.dag.nodes()):
            return None  # structural key collision paranoia; compile fresh
        dag = shape.dag.map_payloads(lambda name, _old: new_ops[name])
        signatures: Dict[str, str] = {}
        for name in dag.topological_order():
            operator = dag.payload(name)
            dependency_signatures = [signatures[parent] for parent in operator.dependencies()]
            signatures[name] = node_signature(operator, dependency_signatures)
        return CompiledWorkflow(
            workflow_name=shape.workflow_name,
            dag=dag,
            signatures=signatures,
            outputs=list(shape.outputs),
            categories=dict(shape.categories),
        )

    def _remember(self, cache: "OrderedDict[str, CompiledWorkflow]", key: str, value: CompiledWorkflow) -> None:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.capacity:
            cache.popitem(last=False)

    def _record(
        self, result: str, structural_key: Optional[str], compiled: CompiledWorkflow
    ) -> CompiledWorkflow:
        self.last_result = result
        if structural_key is not None:
            # Lets partition_modes key its cache off the plan itself.
            compiled.plan_cache_key = structural_key
        registry = self._registry if self._registry is not None else get_registry()
        if registry.enabled:
            registry.counter(
                "repro_plan_cache_requests_total",
                help="Plan-cache lookups by outcome.",
                result=result,
            ).inc()
        return compiled
