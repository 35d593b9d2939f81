"""Tests for cleaning (digit/symbol removal, Section IV of the paper)."""

import pytest

from repro.text.cleaning import clean_item, remove_digits_and_symbols


class TestRemoveDigitsAndSymbols:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("red lentil", "red lentil"),
            ("2 cups flour", "cups flour"),
            ("olive-oil!", "olive oil"),
            ("100% whole wheat", "whole wheat"),
            ("salt & pepper", "salt pepper"),
            ("  extra   spaces  ", "extra spaces"),
            ("1234", ""),
            ("", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert remove_digits_and_symbols(raw) == expected

    def test_keeps_only_letters_and_spaces(self):
        cleaned = remove_digits_and_symbols("a1b2c3 (d)")
        assert all(ch.isalpha() or ch == " " for ch in cleaned)


class TestCleanItem:
    def test_lowercases_by_default(self):
        assert clean_item("Red Lentil") == "red lentil"

    def test_lowercase_can_be_disabled(self):
        assert clean_item("Red Lentil", lowercase=False) == "Red Lentil"

    def test_symbol_only_item_becomes_empty(self):
        assert clean_item("***") == ""

