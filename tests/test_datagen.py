"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datagen.census import CENSUS_FIELDS, CensusConfig, census_schema, generate_census_dataset
from repro.datagen.news import NewsConfig, generate_news_dataset, gold_bio_tags
from repro.text.tokenizer import tokenize_document


class TestCensusGenerator:
    def test_sizes_match_config(self, tiny_census_config):
        dataset = generate_census_dataset(tiny_census_config)
        assert len(dataset.train) == tiny_census_config.n_train
        assert len(dataset.test) == tiny_census_config.n_test

    def test_records_have_full_schema(self, tiny_census_config):
        dataset = generate_census_dataset(tiny_census_config)
        for record in dataset.train.records()[:10]:
            assert set(record) == set(CENSUS_FIELDS)

    def test_deterministic_given_seed(self, tiny_census_config):
        first = generate_census_dataset(tiny_census_config)
        second = generate_census_dataset(tiny_census_config)
        assert first.train.records() == second.train.records()

    def test_different_seed_changes_data(self, tiny_census_config):
        other = generate_census_dataset(CensusConfig(n_train=200, n_test=80, seed=99))
        base = generate_census_dataset(tiny_census_config)
        assert other.train.records() != base.train.records()

    def test_labels_are_binary_and_mixed(self, tiny_census_config):
        dataset = generate_census_dataset(tiny_census_config)
        labels = set(dataset.train.column("target").values())
        assert labels == {0, 1}

    def test_planted_rule_is_learnable_signal(self):
        """Higher education should correlate with the positive label."""
        dataset = generate_census_dataset(CensusConfig(n_train=3000, n_test=10, seed=3))
        records = dataset.train.records()
        high = [r["target"] for r in records if r["education_num"] >= 14]
        low = [r["target"] for r in records if r["education_num"] <= 9]
        assert np.mean(high) > np.mean(low) + 0.2

    def test_numeric_ranges_sane(self, tiny_census_config):
        dataset = generate_census_dataset(tiny_census_config)
        ages = dataset.train.column("age").values()
        hours = dataset.train.column("hours_per_week").values()
        assert min(ages) >= 17 and max(ages) < 80
        assert min(hours) >= 10 and max(hours) <= 90

    def test_schema_converts_numeric_fields(self):
        schema = census_schema()
        record = dict(zip(CENSUS_FIELDS, ["39", "Private", "Bachelors", "13", "Married", "Sales",
                                          "White", "Male", "0", "0", "40", "United-States", "1"]))
        converted = schema.convert(record)
        assert converted["age"] == 39 and converted["target"] == 1


class TestNewsGenerator:
    def test_sizes_match_config(self, tiny_news_config):
        dataset = generate_news_dataset(tiny_news_config)
        assert len(dataset.train) == tiny_news_config.n_train_docs
        assert len(dataset.test) == tiny_news_config.n_test_docs

    def test_deterministic_given_seed(self, tiny_news_config):
        first = generate_news_dataset(tiny_news_config)
        second = generate_news_dataset(tiny_news_config)
        assert first.train.records() == second.train.records()

    def test_documents_have_text_and_mentions(self, tiny_news_config):
        dataset = generate_news_dataset(tiny_news_config)
        with_mentions = [r for r in dataset.train if r["gold_mentions"]]
        assert len(with_mentions) > 0
        assert all("text" in r and r["doc_id"] for r in dataset.train)

    def test_gold_mentions_actually_appear_in_text(self, tiny_news_config):
        dataset = generate_news_dataset(tiny_news_config)
        for record in dataset.train.records()[:20]:
            for mention in filter(None, record["gold_mentions"].split(";")):
                # The full name, or at least the surname, must appear verbatim.
                assert mention.split()[-1] in record["text"]

    def test_gold_bio_tags_mark_mentions(self):
        tokens = ["Yesterday", "Doris", "Xin", "spoke", "."]
        tags = gold_bio_tags(tokens, ["Doris Xin"])
        assert tags == ["O", "B-PER", "I-PER", "O", "O"]

    def test_gold_bio_tags_multiple_and_missing_mentions(self):
        tokens = ["Ann", "met", "Bob", "."]
        tags = gold_bio_tags(tokens, ["Ann", "Bob", "Carol"])
        assert tags == ["B-PER", "O", "B-PER", "O"]

    def test_generated_documents_produce_taggable_sentences(self, tiny_news_config):
        dataset = generate_news_dataset(tiny_news_config)
        record = next(r for r in dataset.train if r["gold_mentions"])
        mentions = record["gold_mentions"].split(";")
        tagged_any = False
        for tokens in tokenize_document(record["text"]):
            if any(tag != "O" for tag in gold_bio_tags(tokens, mentions)):
                tagged_any = True
        assert tagged_any
