"""Tokenization.

Recipe items are short phrases ("red lentil", "olive oil").  :func:`tokenize`
splits them into words; :class:`~repro.text.stages.JoinStage` then keeps the
words (the TF-IDF form) or joins each item's words into one item token (the
sequential-model form, preserving the item-level sequence of the paper).
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"[a-zA-Z']+")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split *text* into word tokens.

    Only alphabetic runs (plus apostrophes) count as tokens, matching the
    paper's digits-and-symbols removal.
    """
    tokens = _TOKEN.findall(text)
    if lowercase:
        tokens = [token.lower() for token in tokens]
    return tokens
