"""The Census classification workload (the paper's Figure 1a / Figure 2b application).

``build_census_workflow`` constructs one version of the Census workflow from a
:class:`CensusVariant`; ``census_workload`` returns the 10-iteration sequence
used in the evaluation, alternating data-pre-processing (purple), ML (orange),
and post-processing (green) changes exactly like the paper's narrative:
changing the regularization should only retrain the model, adding a feature
re-runs only that extractor and everything downstream, changing metrics should
reuse nearly everything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.datagen.census import CENSUS_FIELDS, CensusConfig
from repro.dsl.operators import (
    Bucketizer,
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FieldExtractor,
    InteractionFeature,
    LabelExtractor,
    Learner,
    Predictor,
    Reducer,
    SyntheticCensusSource,
)
from repro.dsl.workflow import Workflow
from repro.workloads.spec import WorkloadSpec

NUMERIC_FIELDS = ("age", "education_num", "capital_gain", "capital_loss", "hours_per_week", "target")


@dataclass(frozen=True)
class CensusVariant:
    """Knobs that the iteration sequence turns.

    Every field maps to a concrete edit a data scientist would make; the
    defaults describe the initial version of the workflow.
    """

    data_config: CensusConfig = CensusConfig()
    use_marital_status: bool = False
    use_capital_gain: bool = False
    use_hours_interaction: bool = False
    age_bins: int = 10
    model_type: str = "logistic_regression"
    reg_param: float = 0.1
    learning_rate: float = 0.5
    max_iter: int = 150
    metrics: Sequence[str] = ("accuracy",)
    include_error_report: bool = False


def build_census_workflow(variant: CensusVariant = CensusVariant()) -> Workflow:
    """Construct one version of the Census workflow (compare with Figure 1a)."""
    wf = Workflow("census")

    data = wf.add("data", SyntheticCensusSource(variant.data_config))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))

    age = wf.add("age", FieldExtractor(rows, field="age"))
    edu = wf.add("edu", FieldExtractor(rows, field="education"))
    occ = wf.add("occ", FieldExtractor(rows, field="occupation"))
    cl = wf.add("cl", FieldExtractor(rows, field="capital_loss"))
    hours = wf.add("hours", FieldExtractor(rows, field="hours_per_week"))
    # Declared like in Figure 1a even when unused: the program slicer prunes it.
    wf.add("race", FieldExtractor(rows, field="race"))
    target = wf.add("target", LabelExtractor(rows, field="target"))

    age_bucket = wf.add("ageBucket", Bucketizer(age, bins=variant.age_bins))
    edu_x_occ = wf.add("eduXocc", InteractionFeature([edu, occ]))

    extractors: List[str] = [edu, age_bucket, edu_x_occ, cl]
    if variant.use_marital_status:
        ms = wf.add("ms", FieldExtractor(rows, field="marital_status"))
        extractors.append(ms)
    if variant.use_capital_gain:
        cg = wf.add("cg", FieldExtractor(rows, field="capital_gain"))
        extractors.append(cg)
    if variant.use_hours_interaction:
        hours_bucket = wf.add("hoursBucket", Bucketizer(hours, bins=5))
        age_x_hours = wf.add("ageXhours", InteractionFeature([age_bucket, hours_bucket]))
        extractors.append(age_x_hours)
    else:
        extractors.append(hours)

    income = wf.add("income", FeatureAssembler(extractors=extractors, label=target))

    learner_params: Dict[str, Any] = {}
    if variant.model_type in ("logistic_regression", "softmax"):
        learner_params = {
            "reg_param": variant.reg_param,
            "learning_rate": variant.learning_rate,
            "max_iter": variant.max_iter,
        }
    inc_pred = wf.add("incPred", Learner(income, model_type=variant.model_type, **learner_params))
    predictions = wf.add("predictions", Predictor(inc_pred, income))
    checked = wf.add("checked", Evaluator(predictions, metrics=tuple(variant.metrics)))

    wf.mark_output(predictions, checked)

    if variant.include_error_report:
        def count_test_errors(prediction_set):
            """Number of misclassified test examples (a custom result check)."""
            predicted, gold = prediction_set.split("test")
            return {"test_errors": float(sum(1 for p, g in zip(predicted, gold) if p != g))}

        error_report = wf.add("errorReport", Reducer(predictions, udf=count_test_errors, name="count_test_errors"))
        wf.mark_output(error_report)

    return wf


def build_dense_census_workflow(
    data_config: Optional[CensusConfig] = None,
    embed_dim: int = 192,
    passes: int = 6,
    reg_param: float = 0.1,
    max_iter: int = 30,
) -> Workflow:
    """A *linear* census pipeline dominated by dense batch featurization.

    source → scan → dense-embed → label → assemble → learn → predict →
    evaluate: every wave has width 1, so inter-node wavefront parallelism
    cannot help — which makes this the benchmark pipeline for intra-operator
    partitioning (the dense featurizer is NumPy batch work that releases the
    GIL, so partition chunks genuinely run in parallel on threads).
    """
    wf = Workflow("census_dense")
    data = wf.add("data", SyntheticCensusSource(data_config or CensusConfig()))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    dense = wf.add(
        "dense",
        DenseFeaturizer(
            rows,
            fields=["age", "education_num", "capital_gain", "capital_loss", "hours_per_week"],
            embed_dim=embed_dim,
            passes=passes,
            out_features=6,
        ),
    )
    target = wf.add("target", LabelExtractor(rows, field="target"))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add(
        "model",
        Learner(examples, model_type="logistic_regression", reg_param=reg_param, max_iter=max_iter),
    )
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions, metrics=("accuracy", "f1")))
    wf.mark_output(predictions, checked)
    return wf


def census_workload(data_config: Optional[CensusConfig] = None, n_iterations: Optional[int] = None) -> WorkloadSpec:
    """The 10-iteration Census sequence used for Figure 2(b)-style experiments.

    ``n_iterations`` truncates the sequence (useful for quick tests).
    """
    base = CensusVariant(data_config=data_config or CensusConfig())
    spec = WorkloadSpec(name="census")

    def variant_builder(variant: CensusVariant):
        return lambda: build_census_workflow(variant)

    v1 = base
    spec.add("initial workflow: basic demographic features, LR(reg=0.1)", "initial", variant_builder(v1))

    v2 = replace(v1, use_marital_status=True)
    spec.add("add marital_status feature (swap extractor set)", "purple", variant_builder(v2))

    v3 = replace(v2, reg_param=0.01)
    spec.add("decrease regularization to 0.01", "orange", variant_builder(v3))

    v4 = replace(v3, metrics=("accuracy", "f1", "precision", "recall"))
    spec.add("report F1/precision/recall in addition to accuracy", "green", variant_builder(v4))

    v5 = replace(v4, use_hours_interaction=True)
    spec.add("bucketize hours-per-week and interact with age buckets", "purple", variant_builder(v5))

    v6 = replace(v5, model_type="naive_bayes")
    spec.add("switch model to naive Bayes", "orange", variant_builder(v6))

    v7 = replace(v6, model_type="logistic_regression", reg_param=0.001, learning_rate=0.8)
    spec.add("back to LR with reg=0.001 and higher learning rate", "orange", variant_builder(v7))

    v8 = replace(v7, include_error_report=True)
    spec.add("add custom error-count reducer to the outputs", "green", variant_builder(v8))

    v9 = replace(v8, use_capital_gain=True)
    spec.add("add capital_gain feature", "purple", variant_builder(v9))

    v10 = replace(v9, metrics=("accuracy", "f1"))
    spec.add("trim reported metrics to accuracy and F1", "green", variant_builder(v10))

    if n_iterations is not None:
        spec.iterations = spec.iterations[:n_iterations]
    return spec
