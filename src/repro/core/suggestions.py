"""Machine-generated workflow edit suggestions (the demo's "Suggest Modifications").

The Helix demo lets attendees request machine-generated edits shown inline with
git-style highlighting, so they can iterate without mastering the DSL.  This
module implements the underlying suggestion engine over our DSL: given the
current workflow (and optionally the session's metric history), it proposes a
ranked list of concrete next iterations — hyperparameter perturbations, model
family swaps, richer evaluation, and feature-engineering edits that pull in
declared-but-unused extractors.

Each suggestion carries a ready-to-run :class:`~repro.dsl.workflow.Workflow`,
so applying one is ``session.run(suggestion.workflow, description=suggestion.description)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compiler.codegen import compile_workflow
from repro.compiler.slicing import unused_nodes
from repro.dsl.operators import Bucketizer, ChangeCategory, Evaluator, FeatureAssembler, Learner
from repro.dsl.workflow import Workflow
from repro.errors import WorkflowError


@dataclass
class SuggestedEdit:
    """One machine-generated modification of a workflow."""

    description: str
    category: ChangeCategory
    workflow: Workflow
    rationale: str = ""

    def summary(self) -> str:
        return f"[{self.category.value}] {self.description} — {self.rationale}"


@dataclass
class SuggestionConfig:
    """Knobs for the suggestion engine."""

    reg_param_factors: tuple = (0.1, 10.0)
    alternative_model_types: tuple = ("naive_bayes", "logistic_regression")
    richer_metrics: tuple = ("accuracy", "f1", "precision", "recall")
    bucket_factor: int = 2
    max_suggestions: int = 8


def _find_single_node(workflow: Workflow, operator_type) -> Optional[str]:
    names = [name for name, op in workflow if isinstance(op, operator_type)]
    return names[0] if len(names) == 1 else (names[0] if names else None)


def _clone_with_replacement(workflow: Workflow, node: str, operator) -> Workflow:
    clone = workflow.copy()
    clone.replace(node, operator)
    return clone


def suggest_modifications(workflow: Workflow, config: SuggestionConfig = SuggestionConfig()) -> List[SuggestedEdit]:
    """Propose concrete next iterations for ``workflow``.

    Suggestions are ordered by the paper's iteration taxonomy: ML tweaks first
    (cheap to try thanks to reuse), then evaluation enrichments, then feature
    engineering (most expensive, most informative).
    """
    suggestions: List[SuggestedEdit] = []

    learner_node = _find_single_node(workflow, Learner)
    evaluator_node = _find_single_node(workflow, Evaluator)
    assembler_node = _find_single_node(workflow, FeatureAssembler)

    # --- ML (orange) suggestions -------------------------------------------------
    if learner_node is not None:
        learner: Learner = workflow.operator(learner_node)
        current_reg = learner.hyperparams.get("reg_param")
        if current_reg is not None:
            for factor in config.reg_param_factors:
                new_reg = current_reg * factor
                new_hyperparams = dict(learner.hyperparams, reg_param=new_reg)
                replacement = Learner(
                    learner.examples,
                    model_type=learner.model_type,
                    standardize=learner.standardize,
                    **new_hyperparams,
                )
                suggestions.append(
                    SuggestedEdit(
                        description=f"set {learner_node}.reg_param to {new_reg:g}",
                        category=ChangeCategory.ML,
                        workflow=_clone_with_replacement(workflow, learner_node, replacement),
                        rationale="regularization sweep around the current value",
                    )
                )
        for model_type in config.alternative_model_types:
            if model_type == learner.model_type:
                continue
            hyperparams = {} if model_type == "naive_bayes" else dict(learner.hyperparams)
            replacement = Learner(learner.examples, model_type=model_type, standardize=learner.standardize, **hyperparams)
            suggestions.append(
                SuggestedEdit(
                    description=f"switch {learner_node} to {model_type}",
                    category=ChangeCategory.ML,
                    workflow=_clone_with_replacement(workflow, learner_node, replacement),
                    rationale="compare a different model family on identical features",
                )
            )

    # --- Evaluation (green) suggestions -------------------------------------------
    if evaluator_node is not None:
        evaluator: Evaluator = workflow.operator(evaluator_node)
        missing = [metric for metric in config.richer_metrics if metric not in evaluator.metrics]
        if missing:
            replacement = Evaluator(
                evaluator.predictions,
                metrics=tuple(list(evaluator.metrics) + missing),
                positive_label=evaluator.positive_label,
            )
            suggestions.append(
                SuggestedEdit(
                    description=f"report {', '.join(missing)} in {evaluator_node}",
                    category=ChangeCategory.POSTPROCESS,
                    workflow=_clone_with_replacement(workflow, evaluator_node, replacement),
                    rationale="richer evaluation is nearly free thanks to reuse",
                )
            )

    # --- Feature engineering (purple) suggestions ----------------------------------
    if assembler_node is not None:
        assembler: FeatureAssembler = workflow.operator(assembler_node)
        compiled = compile_workflow(workflow) if workflow.outputs() else None
        if compiled is not None:
            dangling = [
                name
                for name in unused_nodes(compiled)
                if workflow.operator(name).category is ChangeCategory.DATA_PREP and name != assembler_node
            ]
            for name in dangling[:2]:
                replacement = FeatureAssembler(
                    extractors=list(assembler.extractors) + [name], label=assembler.label
                )
                suggestions.append(
                    SuggestedEdit(
                        description=f"add declared-but-unused extractor {name!r} to {assembler_node}",
                        category=ChangeCategory.DATA_PREP,
                        workflow=_clone_with_replacement(workflow, assembler_node, replacement),
                        rationale="the extractor is already declared in the program but not fed to the learner",
                    )
                )

        for extractor_name in assembler.extractors:
            operator = workflow.operator(extractor_name)
            if isinstance(operator, Bucketizer):
                replacement = Bucketizer(operator.source, bins=operator.bins * config.bucket_factor)
                suggestions.append(
                    SuggestedEdit(
                        description=f"increase {extractor_name}.bins to {operator.bins * config.bucket_factor}",
                        category=ChangeCategory.DATA_PREP,
                        workflow=_clone_with_replacement(workflow, extractor_name, replacement),
                        rationale="finer discretization of a numeric feature",
                    )
                )
                break

    if not suggestions:
        raise WorkflowError("no suggestions available for this workflow (no learner/evaluator/assembler found)")
    return suggestions[: config.max_suggestions]
