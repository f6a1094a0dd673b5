"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.minic.lexer import tokenize
from repro.minic.tokens import TK_CHAR, TK_EOF, TK_IDENT, TK_INT, TK_KEYWORD, TK_PUNCT, TK_STRING


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == TK_EOF

    def test_identifier(self):
        tok = tokenize("hello")[0]
        assert tok.kind == TK_IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        tok = tokenize("_foo42_bar")[0]
        assert tok.kind == TK_IDENT

    def test_keywords_recognized(self):
        for word in ("int", "char", "void", "private", "struct", "return",
                     "if", "else", "while", "for", "break", "continue",
                     "sizeof", "extern", "trusted"):
            tok = tokenize(word)[0]
            assert tok.kind == TK_KEYWORD, word

    def test_keyword_prefix_is_identifier(self):
        tok = tokenize("integer")[0]
        assert tok.kind == TK_IDENT

    def test_decimal_literal(self):
        tok = tokenize("12345")[0]
        assert tok.kind == TK_INT
        assert tok.value == 12345

    def test_hex_literal(self):
        tok = tokenize("0xDEAD")[0]
        assert tok.value == 0xDEAD

    def test_zero(self):
        assert tokenize("0")[0].value == 0


class TestCharAndString:
    def test_char_literal(self):
        tok = tokenize("'A'")[0]
        assert tok.kind == TK_CHAR
        assert tok.value == 65

    def test_char_escapes(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\t'")[0].value == 9
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\\'")[0].value == 92
        assert tokenize(r"'\''")[0].value == 39

    def test_hex_escape(self):
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == TK_STRING
        assert tok.value == b"hello"

    def test_string_with_escapes(self):
        assert tokenize(r'"a\nb\0c"')[0].value == b"a\nb\x00c"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestPunctuation:
    def test_longest_match(self):
        assert texts("<<=") == ["<<="]
        assert texts("<<") == ["<<"]
        assert texts("<= <") == ["<=", "<"]
        assert texts("->") == ["->"]
        assert texts("...") == ["..."]

    def test_increment_vs_plus(self):
        assert texts("++ +") == ["++", "+"]

    def test_all_operators_lex(self):
        source = "+ - * / % & | ^ ~ ! < > = ( ) { } [ ] ; , . && || == !="
        assert all(k == TK_PUNCT for k in kinds(source)[:-1])

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("$")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_preprocessor_lines_skipped(self):
        assert texts("#define X 1\na") == ["a"]

    def test_locations_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[1].loc.col == 3

    def test_unterminated_block_comment_raises_at_its_opening(self):
        with pytest.raises(LexError, match="unterminated block comment") as err:
            tokenize("a\n  /* never ends")
        assert (err.value.loc.line, err.value.loc.col) == (2, 3)

    def test_location_after_multiline_block_comment(self):
        toks = tokenize("a /* one\ntwo\n three */ b\n c")
        assert [(t.loc.line, t.loc.col) for t in toks] == [
            (1, 1), (3, 11), (4, 2), (4, 3),
        ]

    def test_location_after_hash_line(self):
        toks = tokenize("  # a directive\n\tx")
        assert (toks[0].text, toks[0].loc.line, toks[0].loc.col) == ("x", 2, 2)

    def test_crlf_counts_one_line_and_cr_one_column(self):
        toks = tokenize("a\r\n b\r\nc")
        assert [(t.loc.line, t.loc.col) for t in toks[:-1]] == [
            (1, 1), (2, 2), (3, 1),
        ]


class TestLineDirective:
    def test_sets_file_and_next_line(self):
        toks = tokenize('int a;\n#line 1 "err.mc"\nint b;\n  c', "<input>")
        assert repr(toks[0].loc) == "<input>:1:1"
        assert repr(toks[3].loc) == "err.mc:1:1"
        assert repr(toks[6].loc) == "err.mc:2:3"
        assert repr(toks[-1].loc) == "err.mc:2:4"

    def test_errors_after_directive_use_the_new_file(self):
        with pytest.raises(LexError) as err:
            tokenize('#line 1 "err.mc"\n\nint $;')
        assert repr(err.value.loc) == "err.mc:2:5"

    def test_other_hash_lines_are_trivia(self):
        toks = tokenize('#define X 1\n#line "f.mc"\n#linex 3 "g"\ny')
        assert repr(toks[0].loc) == "<input>:4:1"


class TestMalformedInput:
    """Every malformed input raises LexError, never a Python error."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("0x", "empty hex literal"),
            ("0xg", "empty hex literal"),
            ("int x = ²;", "unexpected character '²'"),
            ('"€"', "string literal holds a character above 0xFF"),
            ("'€'", "char literal holds a character above 0xFF"),
            pytest.param("1" * 5000, "too long an integer literal",
                         id="5000-digits"),
        ],
    )
    def test_malformed_literal_is_a_lex_error(self, source, message):
        with pytest.raises(LexError, match=message):
            tokenize(source)

    @pytest.mark.parametrize("source", ["café", "x²", "٣", "'''", "'\n'"])
    def test_non_ascii_text_and_bad_chars_raise(self, source):
        with pytest.raises(LexError):
            tokenize(source)

    def test_latin1_literals_lex(self):
        assert tokenize('"é"')[0].value == b"\xe9"
        assert tokenize("'é'")[0].value == 0xE9
        assert texts("/* € */ // ²\nx") == ["x"]

    @pytest.mark.parametrize(
        "source, message",
        [
            ('"ab\\', r"unknown escape \\$"),
            ('"a\\x"', "empty hex escape"),
            ("'\\x4142'", "unterminated char literal"),
            ('"abc\ndef"', "unterminated string literal"),
            ('"\\q€"', r"unknown escape \\q"),
            ("''", "unterminated char literal"),
        ],
    )
    def test_first_fault_from_the_left(self, source, message):
        with pytest.raises(LexError, match=message) as err:
            tokenize("  " + source)
        assert err.value.loc.col == 3


def _totality_sources():
    from repro.apps.spec import SPEC_NAMES, kernel_source
    from repro.serve.apps import SERVE_APPS

    return [kernel_source(name) for name in SPEC_NAMES] + [
        app.source for app in SERVE_APPS.values()
    ]


def _lexes_or_lex_error(source):
    try:
        tokenize(source)
    except LexError:
        pass


class TestTotality:
    """Strided over the 11 kernels and 4 serve apps: nothing but
    LexError escapes the lexer."""

    STRIDE = 97
    REPLACEMENTS = ("$", "@", "\\", "'", '"', "²", "é", "€", "\x00")

    def test_every_strided_prefix(self):
        for source in _totality_sources():
            for end in range(0, len(source) + 1, self.STRIDE):
                _lexes_or_lex_error(source[:end])

    def test_strided_one_character_replacements(self):
        # Position i * STRIDE gets replacement i mod 9, so every
        # replacement lands on about a ninth of the strided positions.
        replacements = self.REPLACEMENTS
        for source in _totality_sources():
            for i, pos in enumerate(range(0, len(source), self.STRIDE)):
                char = replacements[i % len(replacements)]
                _lexes_or_lex_error(source[:pos] + char + source[pos + 1:])
