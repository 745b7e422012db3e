"""Tests for the record-workflow operators (Census-style pipeline)."""

import pytest

from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.dataflow.features import ExampleCollection, FeatureBlock, LabelBlock, PredictionSet
from repro.datagen.census import CENSUS_FIELDS, CensusConfig
from repro.dsl.operators import (
    Bucketizer,
    ChangeCategory,
    CsvScanner,
    Evaluator,
    FeatureAssembler,
    FieldExtractor,
    FileSource,
    InteractionFeature,
    LabelExtractor,
    Learner,
    Predictor,
    Reducer,
    SyntheticCensusSource,
    UDFFeatureExtractor,
)
from repro.errors import DataError, ExecutionError, WorkflowError


@pytest.fixture
def rows_dataset():
    """A tiny typed dataset standing in for the CsvScanner output."""
    schema = Schema(["age", "occupation", "education", "target"], {"age": float, "target": int})
    train = [
        {"age": 25.0, "occupation": "Sales", "education": "HS", "target": 0},
        {"age": 45.0, "occupation": "Exec", "education": "PhD", "target": 1},
        {"age": 35.0, "occupation": "Sales", "education": "BS", "target": 1},
        {"age": 52.0, "occupation": "Exec", "education": "PhD", "target": 1},
    ]
    test = [
        {"age": 30.0, "occupation": "Exec", "education": "BS", "target": 1},
        {"age": 22.0, "occupation": "Sales", "education": "HS", "target": 0},
    ]
    return Dataset(
        train=DataCollection.from_records(train, schema=schema),
        test=DataCollection.from_records(test, schema=schema),
        name="rows",
    )


class TestSources:
    def test_synthetic_census_source_emits_lines(self):
        dataset = SyntheticCensusSource(CensusConfig(n_train=10, n_test=5, seed=0)).apply({})
        assert len(dataset.train) == 10 and len(dataset.test) == 5
        assert set(dataset.train[0]) == {"line"}
        assert dataset.train[0]["line"].count(",") == len(CENSUS_FIELDS) - 1

    def test_synthetic_census_source_category_and_params(self):
        operator = SyntheticCensusSource(CensusConfig(n_train=5, n_test=2, seed=1))
        assert operator.category is ChangeCategory.SOURCE
        assert operator.params()["config"]["n_train"] == 5
        assert operator.dependencies() == []

    def test_file_source_reads_both_splits(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("1,a\n2,b\n")
        test.write_text("3,c\n")
        dataset = FileSource(str(train), str(test)).apply({})
        assert len(dataset.train) == 2 and len(dataset.test) == 1
        assert dataset.train[0]["line"] == "1,a"

    def test_file_source_lines_equal_the_per_line_reference(self, tmp_path):
        """Lines end at "\\n" only: \\x1c-\\x1e, \\x85 and \\u2028 stay inside a line,
        and lines blank after strip() are dropped, as iterating the file did."""
        text = "a\x1cb,1\n\n  \n\tc\x1d\x1e,2 \nd\x85e\u2028f,3\r\ng,4"
        path = tmp_path / "feed.csv"
        path.write_text(text, encoding="utf-8")
        with open(path) as handle:
            reference = [line.rstrip("\n") for line in handle if line.strip()]
        dataset = FileSource(str(path), str(path)).apply({})
        assert dataset.train.column("line").values() == reference == dataset.test.column("line").values()
        assert len(reference) == 4

    def test_csv_scanner_equals_the_per_record_reference(self):
        fields, numeric = ["age", "occupation", "note"], ["age"]
        lines = [" 39 , Sales,x", "44,Exec , y y", "1e3,Sales,", "-0.0,\tExec\t,z"]
        schema = Schema(fields, {name: float for name in numeric})
        reference = [schema.convert(dict(zip(fields, [piece.strip() for piece in line.split(",")]))) for line in lines]
        data = Dataset(DataCollection({"line": lines}), DataCollection({"line": lines[:1]}))
        parsed = CsvScanner("data", fields=fields, numeric_fields=numeric).apply({"data": data})
        assert repr(parsed.train.records()) == repr(reference) and parsed.test.records() == reference[:1]
        assert parsed.train.columns["age"].data.dtype.str == "<f8"

    def test_csv_scanner_names_a_value_that_does_not_convert(self):
        data = Dataset(DataCollection({"line": ["1,a", "x,b"]}), DataCollection({"line": []}))
        scanner = CsvScanner("data", fields=["age", "occupation"], numeric_fields=["age"])
        with pytest.raises(DataError, match="cannot convert field 'age'='x'"):
            scanner.apply({"data": data})

    def test_csv_scanner_parses_and_types(self):
        lines = Dataset(
            train=DataCollection.from_records([{"line": "39,Sales"}]),
            test=DataCollection.from_records([{"line": "44,Exec"}]),
        )
        scanner = CsvScanner("data", fields=["age", "occupation"], numeric_fields=["age"])
        parsed = scanner.apply({"data": lines})
        assert parsed.train[0] == {"age": 39.0, "occupation": "Sales"}

    def test_csv_scanner_arity_mismatch_raises(self):
        lines = Dataset(train=DataCollection.from_records([{"line": "1,2,3"}]), test=DataCollection.from_records([]))
        scanner = CsvScanner("data", fields=["a", "b"])
        with pytest.raises(ExecutionError, match="expected 2 fields, got 3: '1,2,3'"):
            scanner.apply({"data": lines})

    def test_missing_input_raises(self):
        scanner = CsvScanner("data", fields=["a"])
        with pytest.raises(ExecutionError):
            scanner.apply({})


class TestExtractors:
    def test_field_extractor_numeric(self, rows_dataset):
        block = FieldExtractor("rows", field="age").apply({"rows": rows_dataset})
        assert block.rows("train")[0] == {"value": 25.0}
        assert len(block.test) == 2

    def test_field_extractor_categorical_one_hot(self, rows_dataset):
        block = FieldExtractor("rows", field="occupation").apply({"rows": rows_dataset})
        assert block.rows("train")[0] == {"occupation=Sales": 1.0}
        assert block.rows("train")[1] == {"occupation=Exec": 1.0}

    def test_field_extractor_forced_categorical(self, rows_dataset):
        block = FieldExtractor("rows", field="age", numeric=False).apply({"rows": rows_dataset})
        assert block.rows("train")[0] == {"age=25.0": 1.0}

    def test_label_extractor_produces_labels(self, rows_dataset):
        labels = LabelExtractor("rows", field="target").apply({"rows": rows_dataset})
        assert labels.train == [0, 1, 1, 1]
        assert labels.test == [1, 0]

    def test_label_extractor_positive_value_binarizes(self, rows_dataset):
        labels = LabelExtractor("rows", field="occupation", positive_value="Exec").apply({"rows": rows_dataset})
        assert labels.train == [0, 1, 0, 1]

    def test_bucketizer_buckets_train_and_test_consistently(self, rows_dataset):
        age = FieldExtractor("rows", field="age").apply({"rows": rows_dataset})
        buckets = Bucketizer("age", bins=3).apply({"age": age})
        assert all(len(row) == 1 and list(row.values()) == [1.0] for row in buckets.rows("train"))
        # min age (25) goes to bucket 0, max age (52) to the last bucket.
        assert "bucket=0" in buckets.rows("train")[0]
        assert "bucket=2" in buckets.rows("train")[3]
        # test-split values outside the train range are clipped into valid buckets.
        assert all(list(row)[0].startswith("bucket=") for row in buckets.rows("test"))

    def test_bucketizer_invalid_bins_rejected(self):
        with pytest.raises(WorkflowError):
            Bucketizer("age", bins=0)

    def test_bucketizer_empty_train_raises(self):
        empty = FeatureBlock.from_rows("age", [], [])
        with pytest.raises(ExecutionError):
            Bucketizer("age", bins=2).apply({"age": empty})

    def test_interaction_feature_crosses_blocks(self, rows_dataset):
        edu = FieldExtractor("rows", field="education").apply({"rows": rows_dataset})
        occ = FieldExtractor("rows", field="occupation").apply({"rows": rows_dataset})
        crossed = InteractionFeature(["edu", "occ"]).apply({"edu": edu, "occ": occ})
        assert crossed.rows("train")[0] == {"education=HS&occupation=Sales": 1.0}

    def test_interaction_feature_requires_two_sources(self):
        with pytest.raises(WorkflowError):
            InteractionFeature(["only"])

    def test_udf_feature_extractor_applies_function(self, rows_dataset):
        def age_squared(record):
            return {"age_sq": record["age"] ** 2}

        block = UDFFeatureExtractor("rows", udf=age_squared).apply({"rows": rows_dataset})
        assert block.rows("train")[0] == {"age_sq": 625.0}
        assert UDFFeatureExtractor("rows", udf=age_squared).udf_sources()[0].find("** 2") > 0


class TestAssemblerAndLearning:
    def build_examples(self, rows_dataset):
        age = FieldExtractor("rows", field="age").apply({"rows": rows_dataset})
        occ = FieldExtractor("rows", field="occupation").apply({"rows": rows_dataset})
        target = LabelExtractor("rows", field="target").apply({"rows": rows_dataset})
        assembler = FeatureAssembler(extractors=["age", "occ"], label="target")
        return assembler.apply({"age": age, "occ": occ, "target": target})

    def test_feature_assembler_merges_and_labels(self, rows_dataset):
        examples = self.build_examples(rows_dataset)
        assert isinstance(examples, ExampleCollection)
        assert examples.n_train() == 4 and examples.n_test() == 2
        assert "age.value" in examples.features.rows("train")[0]
        assert "occupation.occupation=Sales" in examples.features.rows("train")[0]

    def test_feature_assembler_requires_extractors(self):
        with pytest.raises(WorkflowError):
            FeatureAssembler(extractors=[], label="target")

    def test_learner_trains_and_predictor_predicts(self, rows_dataset):
        examples = self.build_examples(rows_dataset)
        model = Learner("examples", model_type="logistic_regression", reg_param=0.01).apply({"examples": examples})
        assert model.model_type == "logistic_regression"
        predictions = Predictor("model", "examples").apply({"model": model, "examples": examples})
        assert isinstance(predictions, PredictionSet)
        assert len(predictions.train_predictions) == 4
        assert set(predictions.test_predictions) <= {0, 1}

    def test_learner_naive_bayes_path(self, rows_dataset):
        examples = self.build_examples(rows_dataset)
        model = Learner("examples", model_type="naive_bayes", alpha=0.5).apply({"examples": examples})
        assert model.scaler is None
        assert len(model.predict(examples.features, "test")) == 2

    def test_learner_unknown_model_type_rejected(self):
        with pytest.raises(WorkflowError):
            Learner("examples", model_type="deep_net")

    def test_learner_params_capture_hyperparameters(self):
        operator = Learner("examples", reg_param=0.3, max_iter=10)
        params = operator.params()
        assert params["hyperparams"]["reg_param"] == 0.3
        assert operator.category is ChangeCategory.ML


class TestEvaluationOperators:
    def make_predictions(self):
        return PredictionSet(
            name="p",
            train_predictions=[1, 0, 1],
            train_labels=[1, 0, 0],
            test_predictions=[1, 1],
            test_labels=[1, 0],
        )

    def test_evaluator_computes_requested_metrics(self):
        evaluator = Evaluator("predictions", metrics=("accuracy", "f1"))
        results = evaluator.apply({"predictions": self.make_predictions()})
        assert results["train_accuracy"] == pytest.approx(2 / 3)
        assert results["test_accuracy"] == pytest.approx(0.5)
        assert "test_f1" in results and "test_precision" not in results

    def test_evaluator_unknown_metric_rejected(self):
        with pytest.raises(WorkflowError):
            Evaluator("predictions", metrics=("auc",))

    def test_evaluator_category_is_postprocess(self):
        assert Evaluator("p").category is ChangeCategory.POSTPROCESS

    def test_reducer_applies_udf(self):
        def count_positive(prediction_set):
            return sum(prediction_set.test_predictions)

        reducer = Reducer("predictions", udf=count_positive)
        assert reducer.apply({"predictions": self.make_predictions()}) == 2
        assert "count_positive" in reducer.params()["udf_name"]

    def test_describe_mentions_operator_and_params(self):
        text = Evaluator("p", metrics=("accuracy",)).describe()
        assert text.startswith("Evaluator(") and "accuracy" in text
