"""Figure 1(b): the optimized execution plan for the modified Census workflow.

Runs the compile → slice → change-detect → plan pipeline (the part of
HELIX that must feel interactive in the IDE) on the real Census workflow, and
regenerates the plan report: which operators are loaded from disk, which are
recomputed, which are pruned — the drums and grayed-out boxes of Figure 1(b).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.session import HelixSession
from repro.datagen.census import CensusConfig
from repro.graph.dag import NodeState
from repro.workloads.census_workload import CensusVariant, build_census_workflow

DATA = CensusConfig(n_train=1500, n_test=300, seed=11)


@pytest.fixture(scope="module")
def warmed_session(tmp_path_factory):
    """A session that has already executed the initial Census workflow."""
    workspace = str(tmp_path_factory.mktemp("figure1b"))
    session = HelixSession(workspace=workspace)
    session.run(build_census_workflow(CensusVariant(data_config=DATA)), description="initial")
    return session


def test_figure1b_optimized_plan_for_modified_workflow(warmed_session, write_result):
    modified = build_census_workflow(CensusVariant(data_config=DATA, use_marital_status=True))

    plan = warmed_session.plan(modified)

    lines = [
        "Optimized plan for the modified Census workflow (iteration 2, adds `ms`):",
        plan.to_ascii(),
        "",
        f"loaded:   {sorted(plan.loaded_nodes())}",
        f"computed: {sorted(plan.computed_nodes())}",
        f"pruned:   {sorted(plan.pruned_nodes())}",
        f"estimated iteration cost: {plan.estimated_cost:.3f}s",
    ]
    write_result("figure1b_optimized_plan", "\n".join(lines))

    assert plan.state_of("ms") is NodeState.COMPUTE
    assert plan.state_of("income") is NodeState.COMPUTE
    assert plan.state_of("rows") in (NodeState.LOAD, NodeState.PRUNE)
    assert "race" not in plan.states  # sliced away, as in the grayed-out operators
