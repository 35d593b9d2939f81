"""Tests for tokenization."""

from repro.text.tokenizer import tokenize


class TestTokenize:
    def test_splits_on_whitespace_and_symbols(self):
        assert tokenize("olive oil, extra-virgin") == ["olive", "oil", "extra", "virgin"]

    def test_drops_digits(self):
        assert tokenize("2 cups of flour") == ["cups", "of", "flour"]

    def test_lowercases(self):
        assert tokenize("Red Lentil") == ["red", "lentil"]

    def test_lowercase_disabled(self):
        assert tokenize("Red Lentil", lowercase=False) == ["Red", "Lentil"]

    def test_keeps_apostrophes(self):
        assert tokenize("za'atar") == ["za'atar"]

    def test_empty_string(self):
        assert tokenize("") == []

