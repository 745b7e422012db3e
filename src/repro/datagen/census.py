"""Synthetic Census (UCI Adult) dataset generator.

The paper's Census application predicts whether income exceeds $50K from
demographic attributes [Lichman 2013].  The real dataset cannot be downloaded
offline, so this module generates records with the Adult schema and a planted,
noisy income rule over education, age, occupation, hours-per-week and
capital-gain — the same covariate structure the real task exposes, so feature
engineering iterations (bucketizing age, interacting education with
occupation) genuinely change model quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dataflow.collection import DataCollection, Dataset, Schema

#: Field order of the generated records (a subset of the UCI Adult schema).
CENSUS_FIELDS = [
    "age",
    "workclass",
    "education",
    "education_num",
    "marital_status",
    "occupation",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours_per_week",
    "native_country",
    "target",
]

WORKCLASSES = ["Private", "Self-emp", "Federal-gov", "State-gov", "Local-gov"]
EDUCATIONS: List[Tuple[str, int]] = [
    ("HS-grad", 9),
    ("Some-college", 10),
    ("Assoc", 11),
    ("Bachelors", 13),
    ("Masters", 14),
    ("Doctorate", 16),
]
MARITAL_STATUSES = ["Married", "Never-married", "Divorced", "Widowed", "Separated"]
OCCUPATIONS = [
    "Tech-support", "Craft-repair", "Sales", "Exec-managerial", "Prof-specialty",
    "Handlers-cleaners", "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
    "Transport-moving", "Protective-serv", "Other-service",
]
#: Occupations that carry a positive income bump in the planted rule.
HIGH_INCOME_OCCUPATIONS = {"Exec-managerial", "Prof-specialty", "Tech-support", "Sales"}
RACES = ["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"]
SEXES = ["Male", "Female"]
COUNTRIES = ["United-States", "Mexico", "Philippines", "Germany", "Canada", "India", "England"]


@dataclass(frozen=True)
class CensusConfig:
    """Size and noise controls for the synthetic Census generator."""

    n_train: int = 2000
    n_test: int = 500
    seed: int = 7
    label_noise: float = 0.05


def census_schema() -> Schema:
    """Schema of the generated records with numeric converters."""
    return Schema(
        CENSUS_FIELDS,
        {
            "age": int,
            "education_num": int,
            "capital_gain": int,
            "capital_loss": int,
            "hours_per_week": int,
            "target": int,
        },
    )


def _generate_record(rng: np.random.Generator, label_noise: float) -> Tuple[object, ...]:
    """One record's values in :data:`CENSUS_FIELDS` order."""
    age = int(rng.integers(17, 80))
    workclass = WORKCLASSES[rng.integers(len(WORKCLASSES))]
    education, education_num = EDUCATIONS[rng.integers(len(EDUCATIONS))]
    marital_status = MARITAL_STATUSES[rng.integers(len(MARITAL_STATUSES))]
    occupation = OCCUPATIONS[rng.integers(len(OCCUPATIONS))]
    race = RACES[rng.integers(len(RACES))]
    sex = SEXES[rng.integers(len(SEXES))]
    capital_gain = int(rng.choice([0, 0, 0, 0, 2000, 5000, 15000], p=[0.55, 0.15, 0.1, 0.05, 0.06, 0.05, 0.04]))
    capital_loss = int(rng.choice([0, 0, 0, 1500, 2500], p=[0.7, 0.12, 0.08, 0.06, 0.04]))
    hours_per_week = int(np.clip(rng.normal(41, 11), 10, 90))

    # Planted income rule: a logistic score over the informative covariates.
    score = (
        0.35 * (education_num - 10)
        + 0.045 * (age - 38)
        + 0.03 * (hours_per_week - 40)
        + (1.2 if occupation in HIGH_INCOME_OCCUPATIONS else -0.4)
        + (0.8 if marital_status == "Married" else -0.3)
        + 0.00012 * capital_gain
        - 0.0003 * capital_loss
        - 1.0
    )
    probability = 1.0 / (1.0 + np.exp(-score))
    label = int(rng.random() < probability)
    if rng.random() < label_noise:
        label = 1 - label

    return (
        age, workclass, education, education_num, marital_status, occupation, race, sex,
        capital_gain, capital_loss, hours_per_week, COUNTRIES[rng.integers(len(COUNTRIES))], label,
    )


def generate_census_dataset(config: CensusConfig = CensusConfig()) -> Dataset:
    """Generate a seeded train/test :class:`~repro.dataflow.collection.Dataset`."""
    rng = np.random.default_rng(config.seed)
    schema = census_schema()

    def split(n_rows: int, name: str) -> DataCollection:
        rows = [_generate_record(rng, config.label_noise) for _ in range(n_rows)]
        columns = zip(*rows) if rows else [()] * len(CENSUS_FIELDS)
        return DataCollection(dict(zip(CENSUS_FIELDS, columns)), schema=schema, name=name, length=n_rows)

    train = split(config.n_train, "census.train")
    return Dataset(train=train, test=split(config.n_test, "census.test"), name="census")


def write_census_csv(path_train: str, path_test: str, config: CensusConfig = CensusConfig()) -> None:
    """Write the synthetic dataset to two headerless CSV files (for the DSL's FileSource)."""
    dataset = generate_census_dataset(config)
    dataset.train.to_csv(path_train)
    dataset.test.to_csv(path_test)
