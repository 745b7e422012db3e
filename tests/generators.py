"""Reusable randomized-input generators for differential test suites.

The compiled-hot-path suite (``test_compiled_differential.py``) draws random
real :class:`~repro.dsl.workflow.Workflow` pipelines that actually execute —
census variants spanning structure edits and parameter edits.  Keeping the
strategies here keeps every differential suite honest about using the same
input distribution.
"""

from hypothesis import strategies as st

from repro.datagen.census import CensusConfig
from repro.workloads.census_workload import CensusVariant, build_census_workflow

#: The census data shape used by workflow-level differentials: small enough
#: for hypothesis budgets, large enough that partitioned chunks are non-empty.
DIFFERENTIAL_CENSUS = CensusConfig(n_train=120, n_test=40, seed=13)


@st.composite
def census_variants(draw):
    """Random :class:`CensusVariant` values — real structure *and* param edits.

    Spans the plan cache's three outcomes: identical draws give exact hits,
    param-only differences (``reg_param``/``age_bins``/``metrics``) give
    structural hits, and feature toggles change the operator graph itself.
    """
    return CensusVariant(
        data_config=DIFFERENTIAL_CENSUS,
        use_marital_status=draw(st.booleans()),
        use_capital_gain=draw(st.booleans()),
        use_hours_interaction=draw(st.booleans()),
        age_bins=draw(st.integers(min_value=4, max_value=12)),
        reg_param=draw(st.sampled_from([0.1, 0.01, 0.001])),
        learning_rate=draw(st.sampled_from([0.25, 0.5, 0.8])),
        max_iter=draw(st.sampled_from([40, 60])),
        metrics=draw(st.sampled_from([("accuracy",), ("accuracy", "f1")])),
        include_error_report=draw(st.booleans()),
    )


@st.composite
def census_workflow_pairs(draw):
    """Two random census workflows, biased toward param-only differences.

    Returns ``(variant_a, variant_b)``; building each with
    :func:`build_census_workflow` yields real executable pipelines for
    plan-cache and fusion differentials.
    """
    a = draw(census_variants())
    if draw(st.booleans()):
        # Param-only edit: same operator graph, different payload params.
        b = CensusVariant(
            data_config=a.data_config,
            use_marital_status=a.use_marital_status,
            use_capital_gain=a.use_capital_gain,
            use_hours_interaction=a.use_hours_interaction,
            age_bins=draw(st.integers(min_value=4, max_value=12)),
            reg_param=draw(st.sampled_from([0.1, 0.01, 0.001])),
            learning_rate=a.learning_rate,
            max_iter=a.max_iter,
            metrics=a.metrics,
            include_error_report=a.include_error_report,
        )
    else:
        b = draw(census_variants())
    return a, b


def build_variant(variant: CensusVariant):
    """Shared workflow builder so suites compile identical structures."""
    return build_census_workflow(variant)
