"""Data structures flowing along workflow DAG edges.

Helix's DSL keeps features in a human-readable format during pre-processing
and converts them to a numeric format only when they reach a learner.  The
types in this package mirror that design:

* :class:`~repro.dataflow.collection.DataCollection` — an ordered collection of
  raw records, one typed :class:`~repro.dataflow.collection.Column` per field,
  rendered as one dict per record by ``records()``; the output of scanners.
* :class:`~repro.dataflow.collection.Dataset` — a train/test pair of
  ``DataCollection`` objects; the output of data sources.
* :class:`~repro.dataflow.features.FeatureBlock` — named feature values per
  record, produced by extractor operators: a sorted key table plus one CSR
  triple per split, rendered as one dict per record by ``rows()``.
* :class:`~repro.dataflow.features.ExampleCollection` — assembled (features,
  label) examples, the input of learners.
* :class:`~repro.dataflow.sequences.SequenceCorpus` and
  :class:`~repro.dataflow.sequences.SequenceFeatureBlock` — token-level
  equivalents used by the structured-prediction (information extraction)
  workload.
"""

from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.dataflow.features import ExampleCollection, FeatureBlock, PredictionSet
from repro.dataflow.sequences import SequenceCorpus, SequenceExampleSet, SequenceFeatureBlock, SequencePredictions, Sentence

__all__ = [
    "DataCollection",
    "Dataset",
    "Schema",
    "FeatureBlock",
    "ExampleCollection",
    "PredictionSet",
    "SequenceCorpus",
    "Sentence",
    "SequenceFeatureBlock",
    "SequenceExampleSet",
    "SequencePredictions",
]
