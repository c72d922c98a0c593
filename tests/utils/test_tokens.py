"""Tests for the token counters."""

from __future__ import annotations

import string

from hypothesis import given, strategies as st

from repro.utils.tokens import (
    count_joined,
    count_tokens,
    tokenize_code,
    tokenize_text,
)

#: ASCII letters, digits, punctuation and whitespace, and three non-ASCII
#: characters that are a letter, a decimal digit and a digit elsewhere.
_JOIN_ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation
    + string.whitespace + "é٣²"
)


class TestTokenizeText:
    def test_words_and_punct(self):
        assert tokenize_text("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_count(self):
        assert count_tokens("a b c") == 3

    def test_empty(self):
        assert count_tokens("") == 0

    @given(st.text(max_size=200))
    def test_no_whitespace_tokens(self, text):
        assert all(not t.isspace() for t in tokenize_text(text))


class TestCountJoined:
    def test_runs_merge_across_a_join(self):
        assert count_joined(["int", "main"]) == 1
        assert count_joined(["12", "34"]) == 1
        assert count_joined(["ab", "", "cd"]) == 1

    def test_other_boundaries_split_nothing(self):
        assert count_joined(["a", "1"]) == 2
        assert count_joined(["a", " b"]) == 2
        assert count_joined(["é", "a"]) == 2
        assert count_joined(["٣", "4"]) == 2
        assert count_joined([]) == 0

    @given(st.lists(st.text(alphabet=_JOIN_ALPHABET, max_size=8), max_size=8))
    def test_equals_the_count_of_the_join(self, parts):
        assert count_joined(parts) == count_tokens("".join(parts))


class TestTokenizeCode:
    def test_identifiers_and_operators(self):
        toks = tokenize_code("int i = a[j] + 2;")
        assert toks == ["int", "i", "=", "a", "[", "j", "]", "+", "2", ";"]

    def test_multichar_operators_single_tokens(self):
        toks = tokenize_code("a += b << 2; c &&= d")
        assert "+=" in toks and "<<" in toks

    def test_cuda_launch_tokens(self):
        toks = tokenize_code("k<<<g, b>>>(x)")
        assert "<<<" in toks and ">>>" in toks

    def test_float_literals(self):
        toks = tokenize_code("x = 1.5f + .25 + 2e3;")
        assert "1.5f" in toks and ".25" in toks and "2e3" in toks

    def test_string_is_one_token(self):
        toks = tokenize_code('printf("a b c", x)')
        assert '"a b c"' in toks

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120))
    def test_reassembly_preserves_nonspace_chars(self, text):
        # Tokenization must neither invent nor drop non-whitespace characters
        # outside of strings (strings may contain spaces).
        if '"' in text or "'" in text:
            return
        joined = "".join(tokenize_code(text))
        assert sorted(joined) == sorted(text.replace(" ", "").replace("\t", "").replace("\n", "").replace("\x0b", "").replace("\x0c", "").replace("\r", ""))
