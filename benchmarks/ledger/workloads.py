"""The five ledger workloads: generated inputs, iteration sequences, session keywords.

Every workload is a closed loop: the next iteration (or a client's next
request) starts when the previous one returns.  ``--seed`` feeds
``CensusConfig.seed`` / ``NewsConfig.seed`` and nothing else; the program
under test sees only the generated inputs.

A session workload is a list of :class:`Step` plus the ``HelixSession``
keywords that *define* it (``partitions``, ``backend``, ``parallelism``).
Every other session setting — ``compiled``, store backend, codec, catalog —
stays at the session default on purpose: a later change of a default must
show up as a change in seconds, not break the benchmark, and all workloads
share one store configuration.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.datagen.census import CENSUS_FIELDS, CensusConfig, generate_census_dataset
from repro.datagen.news import NewsConfig
from repro.dsl.operators import (
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FileSource,
    LabelExtractor,
    Learner,
    Predictor,
)
from repro.dsl.workflow import Workflow
from repro.workloads.census_workload import NUMERIC_FIELDS, census_workload
from repro.workloads.ie_workload import ie_workload

#: Input sizes.  ISSUE 11 probed 30000/7500 census rows and 300/100 IE docs
#: (8-12 s per repeat); the benchmark contract allows ~30 s per invocation for
#: the oracle child and every timed child with its set-up, so the floor on
#: repeats was cut to three first and the inputs then shrunk to 1.2-2 s per
#: repeat (README.md, *Sizes*).  ``smoke`` is what ``test_ledger.py`` runs
#: inside tier-1.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "census_iter": {"n_train": 5000, "n_test": 1250},
        "ie_iter": {"n_train_docs": 45, "n_test_docs": 15},
        "dense_prep": {"rows": 2500, "n_test": 320, "partitions": 16, "max_iter": 15},
        "incremental_append": {"rows": 5000, "n_test": 500, "partitions": 16, "max_iter": 15},
        "service_shared": {"n_train": 3000, "n_test": 750},
    },
    "smoke": {
        "census_iter": {"n_train": 240, "n_test": 60},
        "ie_iter": {"n_train_docs": 8, "n_test_docs": 3},
        "dense_prep": {"rows": 160, "n_test": 80, "partitions": 8, "max_iter": 5},
        "incremental_append": {"rows": 320, "n_test": 80, "partitions": 8, "max_iter": 5},
        "service_shared": {"n_train": 240, "n_test": 60},
    },
}

DENSE_FIELDS = ["age", "education_num", "capital_gain", "capital_loss", "hours_per_week"]
APPEND_STEPS = 8
APPEND_GROWTH = 0.05


@dataclass
class Step:
    """One iteration: how to build its workflow and what to do to the inputs first."""

    label: str
    category: str
    build: Callable[[], Workflow]
    #: Brings the generated inputs to this iteration's state (grow the feed);
    #: runs outside the timed call, because arriving data is not the system's work.
    prepare: Optional[Callable[[], None]] = None


@dataclass
class SessionWorkload:
    name: str
    session_kwargs: Dict[str, Any]
    steps: List[Step]
    #: Bytes of raw generated input (denominator of ``store_bytes_per_input_byte``).
    raw_input_bytes: int = 0
    #: sha256 over the generated inputs: same seed, same digest.
    input_digest: str = ""


@dataclass
class ServiceWorkload:
    name: str
    #: tenant → its sequence of steps; ``t0`` seeds the cache during set-up.
    tenants: Dict[str, List[Step]] = field(default_factory=dict)
    raw_input_bytes: int = 0
    input_digest: str = ""


def _sizes(name: str, smoke: bool) -> Dict[str, int]:
    return SIZES["smoke" if smoke else "full"][name]


def _census_lines(config: CensusConfig) -> "tuple[List[str], List[str]]":
    dataset = generate_census_dataset(config)
    return tuple(  # type: ignore[return-value]
        [",".join(str(record[name]) for name in CENSUS_FIELDS) for record in split.records()]
        for split in (dataset.train, dataset.test)
    )


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _census_input_stats(config: CensusConfig) -> "tuple[int, str]":
    train, test = _census_lines(config)
    lines = train + test
    return sum(len(line) + 1 for line in lines), _digest(lines)


def _spec_steps(spec) -> List[Step]:
    return [Step(it.description, it.category, it.build) for it in spec.iterations]


# ---------------------------------------------------------------------------
# census_iter / ie_iter: the paper's two 10-iteration sequences, serial
# ---------------------------------------------------------------------------
def census_iter(root: str, seed: int, smoke: bool) -> SessionWorkload:
    size = _sizes("census_iter", smoke)
    config = CensusConfig(n_train=size["n_train"], n_test=size["n_test"], seed=seed)
    raw_bytes, digest = _census_input_stats(config)
    return SessionWorkload(
        "census_iter", {"partitions": 1}, _spec_steps(census_workload(config)),
        raw_input_bytes=raw_bytes, input_digest=digest,
    )


def ie_iter(root: str, seed: int, smoke: bool) -> SessionWorkload:
    from repro.datagen.news import generate_news_dataset

    size = _sizes("ie_iter", smoke)
    config = NewsConfig(n_train_docs=size["n_train_docs"], n_test_docs=size["n_test_docs"], seed=seed)
    dataset = generate_news_dataset(config)
    texts = [
        "|".join(str(record[name]) for name in sorted(record))
        for split in (dataset.train, dataset.test)
        for record in split.records()
    ]
    return SessionWorkload(
        "ie_iter", {"partitions": 1}, _spec_steps(ie_workload(config)),
        raw_input_bytes=sum(len(text) + 1 for text in texts), input_digest=_digest(texts),
    )


# ---------------------------------------------------------------------------
# dense_prep / incremental_append: the file-backed dense census pipeline
# ---------------------------------------------------------------------------
def _write_feed(path: str, lines: List[str]) -> str:
    """Write the feed file; returns the content stamp ``FileSource`` signs with."""
    body = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(body)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def dense_workflow(
    train_path: str, test_path: str, version: str,
    embed_dim: int, reg_param: float, max_iter: int,
) -> Workflow:
    """FileSource → CsvScanner → DenseFeaturizer → … → Evaluator (every wave has width 1)."""
    wf = Workflow("census_dense")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    dense = wf.add(
        "dense",
        DenseFeaturizer(rows, fields=DENSE_FIELDS, embed_dim=embed_dim, passes=3, out_features=6),
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


def dense_prep(root: str, seed: int, smoke: bool) -> SessionWorkload:
    """Base run, 7 data-prep edits (``embed_dim`` 384…432), 2 model edits, on an unchanged feed."""
    size = _sizes("dense_prep", smoke)
    train, test = _census_lines(CensusConfig(n_train=size["rows"], n_test=size["n_test"], seed=seed))
    train_path, test_path = os.path.join(root, "train.csv"), os.path.join(root, "test.csv")
    version = _write_feed(train_path, train) + _write_feed(test_path, test)

    def step(label: str, category: str, embed_dim: int, reg_param: float) -> Step:
        return Step(label, category, lambda: dense_workflow(
            train_path, test_path, version, embed_dim, reg_param, size["max_iter"]))

    steps = [step("base run, embed_dim=376", "initial", 376, 0.1)]
    steps += [
        step(f"data-prep edit: embed_dim={dim}", "purple", dim, 0.1) for dim in range(384, 433, 8)
    ]
    steps += [
        step(f"model edit: reg_param={reg}", "orange", 432, reg) for reg in (0.05, 0.02)
    ]
    lines = train + test
    return SessionWorkload(
        "dense_prep",
        {"partitions": size["partitions"], "backend": "thread", "parallelism": 2},
        steps,
        raw_input_bytes=sum(len(line) + 1 for line in lines), input_digest=_digest(lines),
    )


def incremental_append(root: str, seed: int, smoke: bool) -> SessionWorkload:
    """Code fixed; the train feed grows by 5% of the base per iteration, 8 times."""
    size = _sizes("incremental_append", smoke)
    grow = max(1, int(size["rows"] * APPEND_GROWTH))
    train, test = _census_lines(CensusConfig(
        n_train=size["rows"] + APPEND_STEPS * grow, n_test=size["n_test"], seed=seed))
    train_path, test_path = os.path.join(root, "train.csv"), os.path.join(root, "test.csv")
    test_version = _write_feed(test_path, test)
    #: The stamp of the feed currently on disk; ``prepare`` moves it, ``build`` reads it.
    state = {"version": ""}

    def step(index: int) -> Step:
        n_rows = size["rows"] + index * grow

        def prepare() -> None:
            state["version"] = _write_feed(train_path, train[:n_rows]) + test_version

        return Step(
            "base feed" if index == 0 else f"append {grow} rows → {n_rows}",
            "initial" if index == 0 else "append",
            lambda: dense_workflow(train_path, test_path, state["version"], 192, 0.1, size["max_iter"]),
            prepare,
        )

    lines = train + test
    return SessionWorkload(
        "incremental_append", {"partitions": size["partitions"]},
        [step(index) for index in range(APPEND_STEPS + 1)],
        raw_input_bytes=sum(len(line) + 1 for line in lines), input_digest=_digest(lines),
    )


# ---------------------------------------------------------------------------
# service_shared: one tenant seeds the shared cache, two run concurrently
# ---------------------------------------------------------------------------
def _offset_learner(build: Callable[[], Workflow], tenant_index: int) -> Callable[[], Workflow]:
    """The tenant's own hyperparameters: data prep stays shareable, the model does not."""
    def build_offset() -> Workflow:
        workflow = build()
        learner = workflow.operator("incPred")
        if learner.model_type == "naive_bayes":
            learner.hyperparams["alpha"] = 1.0 + 0.25 * tenant_index
        else:
            learner.hyperparams["reg_param"] *= 1.0 + 0.5 * tenant_index
            learner.hyperparams["learning_rate"] *= 1.0 - 0.1 * tenant_index
        return workflow
    return build_offset


def service_shared(root: str, seed: int, smoke: bool) -> ServiceWorkload:
    size = _sizes("service_shared", smoke)
    config = CensusConfig(n_train=size["n_train"], n_test=size["n_test"], seed=seed)
    raw_bytes, digest = _census_input_stats(config)
    workload = ServiceWorkload("service_shared", raw_input_bytes=raw_bytes, input_digest=digest)
    for index, tenant in enumerate(("t0", "t1", "t2")):
        workload.tenants[tenant] = [
            Step(it.description, it.category, _offset_learner(it.build, index))
            for it in census_workload(config).iterations
        ]
    return workload


BUILDERS: Dict[str, Callable[[str, int, bool], Any]] = {
    "census_iter": census_iter,
    "ie_iter": ie_iter,
    "dense_prep": dense_prep,
    "incremental_append": incremental_append,
    "service_shared": service_shared,
}
