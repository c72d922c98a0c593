"""Tests for code-fence extraction and text normalization."""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.hecbench import all_apps
from repro.utils.text import (
    dedent_code,
    extract_code_block,
    normalize_stdout,
    strip_comments,
)


class TestExtractCodeBlock:
    def test_single_fenced_block(self):
        resp = "Here is the code:\n```cuda\nint main() { return 0; }\n```\nDone."
        assert extract_code_block(resp) == "int main() { return 0; }\n"

    def test_prefers_language_tag(self):
        resp = (
            "```python\nprint('hi')\n```\n"
            "```cuda\nint main() { return 0; }\n```\n"
        )
        out = extract_code_block(resp, prefer_langs=["cuda"])
        assert "int main" in out

    def test_prefers_longest_among_equal_rank(self):
        resp = (
            "```cpp\nshort();\n```\n"
            "```cpp\nint main() { longer_body(); return 0; }\n```\n"
        )
        out = extract_code_block(resp)
        assert "longer_body" in out

    def test_untagged_block(self):
        resp = "```\nint x = 1;\n```"
        assert extract_code_block(resp) == "int x = 1;\n"

    def test_bare_code_without_fences(self):
        resp = "int main() {\n  return 0;\n}\n"
        assert extract_code_block(resp).strip().startswith("int main")

    def test_bare_kernel_without_fences(self):
        resp = "__global__ void k(int* p) { p[0] = 1; }"
        assert "__global__" in extract_code_block(resp)

    def test_no_code_returns_none(self):
        assert extract_code_block("I cannot translate this code, sorry.") is None

    def test_empty_fence_returns_none(self):
        assert extract_code_block("```\n\n```") is None

    def test_crlf_fences(self):
        resp = "```cpp\r\nint main() { return 0; }\r\n```"
        assert "int main" in extract_code_block(resp)


def strip_comments_by_char(code: str) -> str:
    """The character-at-a-time ``strip_comments`` that the one-pattern
    version replaced: the reference it must agree with."""
    out: List[str] = []
    i, n = 0, len(code)
    in_string = False
    while i < n:
        ch = code[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(code[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and code[i + 1] == "/":
            while i < n and code[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and code[i + 1] == "*":
            j = code.find("*/", i + 2)
            # Preserve line structure of the removed block comment.
            block = code[i: (j + 2) if j != -1 else n]
            out.append("\n" * block.count("\n"))
            i = (j + 2) if j != -1 else n
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class TestStripComments:
    @given(st.text(alphabet=['"', "\\", "/", "*", "'", "\n", " ", "x"], max_size=40))
    @settings(max_examples=500)
    def test_matches_the_character_loop(self, code):
        assert strip_comments(code) == strip_comments_by_char(code)

    def test_matches_the_character_loop_on_the_apps(self):
        for app in all_apps():
            for code in (app.cuda_source, app.omp_source):
                assert strip_comments(code) == strip_comments_by_char(code)

    def test_quirks(self):
        # A '"' char literal opens a string (which runs to the end here);
        # a string can end in a lone backslash.
        assert strip_comments("c = '\"'; // x\n") == "c = '\"'; // x\n"
        assert strip_comments('s = "a\\') == 's = "a\\'
        assert strip_comments('s = "a\\"; // x') == 's = "a\\"; // x'
        assert strip_comments("a /*/ b */ c") == "a  c"
        assert strip_comments("a //* b\nc */") == "a \nc */"

    def test_line_comment(self):
        assert strip_comments("int a; // hello\nint b;") == "int a; \nint b;"

    def test_block_comment_preserves_lines(self):
        src = "int a;/* one\ntwo */int b;"
        out = strip_comments(src)
        assert out.count("\n") == 1
        assert "int a;" in out and "int b;" in out

    def test_comment_marker_inside_string_survives(self):
        src = 'printf("// not a comment");'
        assert strip_comments(src) == src

    def test_unterminated_block_comment(self):
        assert strip_comments("int a; /* never ends") == "int a; "


class TestDedent:
    def test_common_indent_removed(self):
        assert dedent_code("    a\n      b\n") == "a\n  b\n"

    def test_blank_lines_ignored_for_indent(self):
        assert dedent_code("  a\n\n  b") == "a\n\nb"

    def test_no_indent_unchanged(self):
        assert dedent_code("a\nb") == "a\nb"


class TestNormalizeStdout:
    def test_strips_trailing_space_and_edge_blanks(self):
        assert normalize_stdout("\n\nresult 1  \nresult 2\n\n") == "result 1\nresult 2"

    def test_crlf(self):
        assert normalize_stdout("a\r\nb\r\n") == "a\nb"

    def test_interior_blank_lines_kept(self):
        assert normalize_stdout("a\n\nb") == "a\n\nb"

    def test_numbers_not_rounded(self):
        assert normalize_stdout("x 1.23456789") == "x 1.23456789"
