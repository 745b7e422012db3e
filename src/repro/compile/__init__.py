"""Planning shortcuts and fusion: amortize per-iteration fixed costs across runs.

The paper's iterative workload re-optimizes and re-executes a workflow every
iteration, which repeats three *fixed* costs: Python per-operator dispatch
inside a wave, recompiling the plan from scratch when only parameters
changed, and a from-zero max-flow solve for a network whose structure is
identical to the previous iteration's.  This package removes each of them —
always on, there is no switch — and every shortcut is proven bit-exact
against an independent reference by the differential suite in
``tests/test_compiled_differential.py``:

* :mod:`repro.compile.fusion` — collapse convex groups of partition-wise
  COMPUTE operators into one fused task per group;
* :mod:`repro.compile.plan_cache` — cache compiled plans and partition plans
  keyed by workflow signature, so iteration N+1 skips recompilation when only
  parameters changed;
* :mod:`repro.compile.warmcut` — warm-start the recomputation optimizer's
  min-cut from the previous iteration's flow, falling back to a cold solve
  when residual capacities go invalid.
"""

from repro.compile.fusion import FusedGroup, FusedGroupTask, FusionPlan, plan_fusion
from repro.compile.plan_cache import PlanCache
from repro.compile.warmcut import WarmCutSolver

__all__ = [
    "FusedGroup",
    "FusedGroupTask",
    "FusionPlan",
    "PlanCache",
    "WarmCutSolver",
    "plan_fusion",
]
