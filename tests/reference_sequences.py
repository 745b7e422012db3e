"""The dict-layout sequence feature block: the columnar one's reference.

``repro.dataflow.sequences.SequenceFeatureBlock`` once held one ``dict`` per
token, and ``merge_sequence_blocks`` merged those dicts with the code below,
verbatim.  ``rows()`` of every columnar merge must equal what this merge
returns (``tests/test_sequence_columns.py``), and a pickle of this class is the
dict-layout state ``SequenceFeatureBlock.__setstate__`` converts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import DataError

TokenFeatures = Dict[str, float]


@dataclass
class SequenceFeatureBlock:
    """Per-token feature dicts, one list per sentence, per split."""

    name: str
    train: List[List[TokenFeatures]]
    test: List[List[TokenFeatures]]

    def split(self, split_name: str) -> List[List[TokenFeatures]]:
        if split_name == "train":
            return self.train
        if split_name == "test":
            return self.test
        raise DataError(f"unknown split {split_name!r}")

    def feature_names(self) -> List[str]:
        names = set()
        for sentences in (self.train, self.test):
            for sentence in sentences:
                for token_features in sentence:
                    names.update(token_features)
        return sorted(names)


def merge_sequence_blocks(blocks: Sequence[SequenceFeatureBlock]) -> SequenceFeatureBlock:
    """Merge aligned token-level blocks, namespacing keys by block name.

    Block names must be distinct: two blocks with one name would namespace
    their keys identically and the later block's values would silently
    replace the earlier's.
    """
    if not blocks:
        raise DataError("cannot merge an empty list of sequence feature blocks")
    seen = set()
    for block in blocks:
        if block.name in seen:
            raise DataError(
                f"two sequence feature blocks are named {block.name!r}; their keys would collide "
                "(give each extractor a distinct name)"
            )
        seen.add(block.name)

    def merge_split(split_name: str) -> List[List[TokenFeatures]]:
        reference = blocks[0].split(split_name)
        merged = [[dict() for _ in sentence] for sentence in reference]
        for block in blocks:
            sentences = block.split(split_name)
            if len(sentences) != len(reference):
                raise DataError(
                    f"sequence block {block.name!r} has {len(sentences)} sentences in "
                    f"{split_name!r}, expected {len(reference)}"
                )
            for merged_sentence, sentence in zip(merged, sentences):
                if len(sentence) != len(merged_sentence):
                    raise DataError(f"sequence block {block.name!r} has a token-length mismatch")
                for merged_token, token in zip(merged_sentence, sentence):
                    for key, value in token.items():
                        merged_token[f"{block.name}.{key}"] = value
        return merged

    return SequenceFeatureBlock(
        name="+".join(b.name for b in blocks), train=merge_split("train"), test=merge_split("test")
    )
