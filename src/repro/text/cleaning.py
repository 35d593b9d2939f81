"""Cleaning of raw recipe items.

Section IV of the paper: "the digits or symbols were omitted from the items to
only keep words, thereby reducing the noise in this highly sparse dataset".
"""

from __future__ import annotations

import re

_NON_WORD = re.compile(r"[^a-zA-Z\s]+")
_MULTI_SPACE = re.compile(r"\s+")


def remove_digits_and_symbols(text: str) -> str:
    """Strip digits and punctuation/symbols from *text*, keeping letters and spaces."""
    cleaned = _NON_WORD.sub(" ", text)
    return _MULTI_SPACE.sub(" ", cleaned).strip()


def clean_item(item: str, lowercase: bool = True) -> str:
    """Clean a single recipe item (ingredient phrase, process or utensil).

    Applies digit/symbol removal, whitespace normalisation and (by default)
    lower-casing.  May return an empty string when the item contained nothing
    but digits/symbols; callers should drop such items.
    """
    cleaned = remove_digits_and_symbols(item)
    return cleaned.lower() if lowercase else cleaned
