"""Token-level feature extractors for the person-mention IE task.

Each function maps a token (in its sentence context) to a dictionary of named
features.  The extractor operators in :mod:`repro.dsl.ie_operators` wrap these
functions as DAG nodes, which is exactly where the iterative "add a feature"
changes of the IE workload land.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set

_DIGITS = re.compile(r"\d")

#: Honorifics that frequently precede a person mention.
HONORIFICS = {"mr", "mrs", "ms", "dr", "prof", "president", "senator", "gov", "rep", "judge"}


def word_shape(token: str) -> str:
    """Collapse a token into a shape string: ``Xx`` for ``Doris``, ``dd`` for ``42``."""
    shape_chars = []
    for char in token:
        if char.isupper():
            shape_chars.append("X")
        elif char.islower():
            shape_chars.append("x")
        elif char.isdigit():
            shape_chars.append("d")
        else:
            shape_chars.append(char)
    # Collapse runs so shapes stay low-cardinality.
    collapsed: List[str] = []
    for char in shape_chars:
        if not collapsed or collapsed[-1] != char:
            collapsed.append(char)
    return "".join(collapsed)


def shape_features(tokens: Sequence[str], position: int) -> Dict[str, float]:
    """Orthographic features of the token at ``position``."""
    token = tokens[position]
    features: Dict[str, float] = {
        f"word={token.lower()}": 1.0,
        f"shape={word_shape(token)}": 1.0,
        f"suffix3={token[-3:].lower()}": 1.0,
        f"prefix2={token[:2].lower()}": 1.0,
    }
    if token[:1].isupper():
        features["is_capitalized"] = 1.0
    if token.isupper() and len(token) > 1:
        features["is_all_caps"] = 1.0
    if _DIGITS.search(token):
        features["has_digit"] = 1.0
    if position == 0:
        features["sentence_start"] = 1.0
    return features


def context_window_features(tokens: Sequence[str], position: int, window: int = 1) -> Dict[str, float]:
    """Lowercased neighbour-word features within ``window`` positions."""
    features: Dict[str, float] = {}
    for offset in range(-window, window + 1):
        if offset == 0:
            continue
        neighbor = position + offset
        if 0 <= neighbor < len(tokens):
            features[f"ctx[{offset}]={tokens[neighbor].lower()}"] = 1.0
        else:
            features[f"ctx[{offset}]=<PAD>"] = 1.0
    previous = tokens[position - 1].lower().rstrip(".") if position > 0 else ""
    if previous in HONORIFICS:
        features["prev_is_honorific"] = 1.0
    return features


def gazetteer_features(
    tokens: Sequence[str],
    position: int,
    first_names: Set[str],
    last_names: Set[str],
) -> Dict[str, float]:
    """Dictionary-lookup features against first/last name gazetteers."""
    token = tokens[position].lower()
    features: Dict[str, float] = {}
    if token in first_names:
        features["in_first_name_gazetteer"] = 1.0
    if token in last_names:
        features["in_last_name_gazetteer"] = 1.0
    if position + 1 < len(tokens) and tokens[position + 1].lower() in last_names and token in first_names:
        features["first_then_last"] = 1.0
    return features
