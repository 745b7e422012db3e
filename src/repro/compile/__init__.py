"""Plan caching and fusion: amortize per-iteration fixed costs across runs.

The paper's iterative workload re-optimizes and re-executes a workflow every
iteration, which repeats two *fixed* costs: Python per-operator dispatch
inside a wave, and recompiling the plan from scratch when only parameters
changed.  This package removes each of them — always on, there is no
switch — and both are proven bit-exact against an independent reference by
the differential suite in ``tests/test_compiled_differential.py``:

* :mod:`repro.compile.fusion` — collapse convex groups of partition-wise
  COMPUTE operators into one fused task per group;
* :mod:`repro.compile.plan_cache` — cache compiled plans and partition plans
  keyed by workflow signature, so iteration N+1 skips recompilation when only
  parameters changed.

The recomputation min-cut is solved from scratch every iteration
(:func:`~repro.optimizer.project_selection.solve_project_selection`): on
every ledger workload a cold solve is faster than reusing the previous
iteration's flow.
"""

from repro.compile.fusion import FusedGroup, FusedGroupTask, FusionPlan, plan_fusion
from repro.compile.plan_cache import PlanCache

__all__ = [
    "FusedGroup",
    "FusedGroupTask",
    "FusionPlan",
    "PlanCache",
    "plan_fusion",
]
