"""Tests for the mini-language lexer."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.minilang.diagnostics import DiagnosticBag
from repro.minilang.lexer import Lexer, TokenKind
from repro.minilang.source import Dialect
from repro.toolchain import compiler_for


def lex_all(src: str, cuda: bool = False):
    bag = DiagnosticBag()
    toks = Lexer(src, bag, cuda_launch_syntax=cuda).tokens()
    return toks, bag


def texts(src: str, cuda: bool = False):
    toks, _ = lex_all(src, cuda)
    return [t.text for t in toks[:-1]]  # drop EOF


class TestBasics:
    def test_identifiers_and_keywords(self):
        toks, _ = lex_all("int foo;")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENT
        assert toks[1].text == "foo"

    def test_int_and_float_literals(self):
        toks, _ = lex_all("42 3.14 1e5 0x1F 2.5f 10u")
        kinds = [t.kind for t in toks[:-1]]
        assert kinds == [
            TokenKind.INT_LIT, TokenKind.FLOAT_LIT, TokenKind.FLOAT_LIT,
            TokenKind.INT_LIT, TokenKind.FLOAT_LIT, TokenKind.INT_LIT,
        ]

    def test_string_with_escape(self):
        toks, bag = lex_all(r'"a\nb"')
        assert not bag.has_errors
        assert toks[0].kind is TokenKind.STRING_LIT

    def test_char_literal(self):
        toks, _ = lex_all("'x' '\\n'")
        assert [t.kind for t in toks[:-1]] == [TokenKind.CHAR_LIT, TokenKind.CHAR_LIT]

    def test_multichar_operators(self):
        assert texts("a <<= b >>= c == d != e <= f >= g && h || i ++ --") == [
            "a", "<<=", "b", ">>=", "c", "==", "d", "!=", "e", "<=", "f",
            ">=", "g", "&&", "h", "||", "i", "++", "--",
        ]

    def test_line_and_block_comments_skipped(self):
        assert texts("a // comment\nb /* block */ c") == ["a", "b", "c"]

    def test_unterminated_block_comment_diagnosed(self):
        _, bag = lex_all("a /* never")
        assert bag.has_errors

    def test_unterminated_string_diagnosed(self):
        _, bag = lex_all('"abc')
        assert any(d.code == "unterminated-string" for d in bag.errors)

    def test_line_col_tracking(self):
        toks, _ = lex_all("a\n  b")
        assert (toks[0].span.line, toks[0].span.col) == (1, 1)
        assert (toks[1].span.line, toks[1].span.col) == (2, 3)

    def test_invalid_character_reported_and_skipped(self):
        toks, bag = lex_all("a @ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]
        assert any(d.code == "invalid-character" for d in bag.errors)


class TestCudaLaunchSyntax:
    def test_launch_delimiters_in_cuda_mode(self):
        assert "<<<" in texts("k<<<1, 2>>>()", cuda=True)

    def test_no_launch_delimiters_in_c_mode(self):
        toks = texts("a <<< b")
        assert "<<<" not in toks
        assert "<<" in toks


class TestDirectives:
    def test_pragma_captured_whole(self):
        toks, _ = lex_all("#pragma omp parallel for\nint x;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].text == "#pragma omp parallel for"

    def test_pragma_with_continuation(self):
        toks, _ = lex_all("#pragma omp target \\\n  map(to: a)\nx;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert "map(to: a)" in toks[0].text

    def test_include_skipped(self):
        toks, bag = lex_all("#include <stdio.h>\nint x;")
        assert toks[0].kind is TokenKind.KEYWORD
        assert not bag.has_errors

    def test_unknown_directive_diagnosed(self):
        _, bag = lex_all("#warning hello\nint x;")
        assert any(d.code == "unknown-directive" for d in bag.errors)


class TestUntrustedInput:
    """LLM output reaches the compiler unchecked: whatever the text,
    ``compile`` returns a failed result with diagnostics, never raises."""

    @staticmethod
    def error_codes(text):
        result = compiler_for(Dialect.OMP).compile(text)
        assert not result.ok
        return [d.code for d in result.diagnostics.errors]

    def test_non_ascii_digits_are_invalid_characters(self):
        # Numbers start with an ASCII digit, as in C: not with a
        # superscript two, an Arabic-Indic three or a fullwidth three.
        for digit in ("\u00b2", "\u0663", "\uff13"):
            codes = self.error_codes(f"int main() {{ int x = {digit}; return 0; }}")
            assert codes[0] == "invalid-character"

    def test_many_skipped_directives(self):
        assert self.error_codes("#include <stdio.h>\n" * 1200) == ["no-main"]

    def test_many_invalid_characters(self):
        codes = self.error_codes("@" * 1200)
        assert codes.count("invalid-character") == 1200


_C_LIKE = st.sampled_from(list(
    "ab_Z09 \t\r\n#\"'\\/*.<>=+-;:{}()[]@$`exfuL\x0c\u00e9\u00b2\u0663"
))
_SNIPPETS = st.sampled_from([
    "/*", "*/", "//", "\\\n", "#pragma omp parallel for", "#include <x>",
    "<<<", ">>>", "...", "0x1F", "1e5f", ".5", "'\\", '"\\', "\r\n", "int",
])
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=_C_LIKE),
    st.lists(st.one_of(_SNIPPETS, st.text(alphabet=_C_LIKE, max_size=3))).map("".join),
)
_LOCATED = {
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT_LIT,
    TokenKind.FLOAT_LIT, TokenKind.PUNCT,
}


class TestArbitraryText:
    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT, cuda=st.booleans())
    def test_tokens_sit_where_the_source_has_them(self, text, cuda):
        toks, _ = lex_all(text, cuda)
        assert toks[-1].kind is TokenKind.EOF
        assert [t.kind for t in toks].count(TokenKind.EOF) == 1
        lines = text.split("\n")
        for tok in toks:
            if tok.kind in _LOCATED:
                line = lines[tok.span.line - 1]
                col = tok.span.col - 1
                assert line[col:col + len(tok.text)] == tok.text
