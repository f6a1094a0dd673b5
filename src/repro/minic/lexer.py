"""MiniC lexer: one compiled master regex over the whole source.

Identifiers and numbers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``,
``[0-9]+``, ``0[xX][0-9A-Fa-f]+``).  Whitespace, ``//`` and ``/*...*/``
comments and ``#`` lines are trivia; the one ``#`` line it reads is
``#line N "file"``, after which the next line is line N of ``file``.
Char and string literals hold characters up to 0xFF and the escapes
``\\n \\t \\r \\0 \\\\ \\' \\"`` and ``\\xH``/``\\xHH``.  Any other
input raises :class:`LexError` at the offending token.
"""

from __future__ import annotations

import re

from ..errors import LexError, SourceLocation
from .tokens import (KEYWORDS, PUNCTUATORS, TK_CHAR, TK_EOF, TK_IDENT,
                     TK_INT, TK_KEYWORD, TK_PUNCT, TK_STRING, Token)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}
_ESCAPE = r"\\(?:x[0-9A-Fa-f]{1,2}|[ntr0\\'\"])"
_ESCAPE_RE = re.compile(_ESCAPE)
_PUNCT = "|".join(
    re.escape(p) for p in sorted(PUNCTUATORS, key=len, reverse=True)
)
# Alternatives are tried in order: trivia first, so that `//` and `/*`
# are never punctuators, and an unterminated `/*` or literal ("open")
# before punctuators, so that it raises at its opening column.
_MASTER = re.compile(
    rf"""(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
    |(?P<hash>\#[^\n]*)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<int>0[xX][0-9A-Fa-f]*|[0-9]+)
    |(?P<char>'(?:[^'\\\n\u0100-\U0010ffff]|{_ESCAPE})')
    |(?P<string>"(?:[^"\\\n\u0100-\U0010ffff]|{_ESCAPE})*")
    |(?P<open>/\*|['"])
    |(?P<punct>{_PUNCT})
    |(?P<stray>.)""",
    re.S | re.X,
)
# One escape or character of a literal that the master regex rejected;
# the empty match at the end stops every scan.
_LITERAL_PART = re.compile(
    rf"{_ESCAPE}|(?P<hex>\\x)|(?P<bad>\\.?)|(?P<plain>.)|\Z", re.S
)
_LINE_DIRECTIVE = re.compile(r'#line[ \t]+([0-9]+)[ \t]+"(.*)"[ \t]*')


def _unescape(match: re.Match) -> str:
    text = match.group()
    return chr(int(text[2:], 16) if text[1] == "x" else _ESCAPES[text[1]])


def _error(source: str, pos: int, loc: SourceLocation) -> LexError:
    """The error for the stray character, unterminated comment or
    malformed literal at ``pos``: the first fault from the left."""
    quote = source[pos]
    if source.startswith("/*", pos):
        return LexError("unterminated block comment", loc)
    if quote not in "'\"":
        return LexError(f"unexpected character {quote!r}", loc)
    kind = "char" if quote == "'" else "string"
    for part in _LITERAL_PART.finditer(source, pos + 1):
        text, group = part.group(), part.lastgroup
        if group == "hex":
            return LexError("empty hex escape", loc)
        if group == "bad":
            return LexError(f"unknown escape {text}", loc)
        if text in ("", "\n", quote) or (
            kind == "char" and not source.startswith("'", part.end())
        ):
            return LexError(f"unterminated {kind} literal", loc)
        if kind == "char" or group == "plain" and ord(text) > 0xFF:
            return LexError(f"{kind} literal holds a character above 0xFF", loc)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Lex ``source`` into tokens terminated by EOF."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _MASTER.finditer(source):
        group, text, start = match.lastgroup, match.group(), match.start()
        if group == "trivia":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        loc = SourceLocation(line, start - line_start + 1, filename)
        if group == "ident":
            kind = TK_KEYWORD if text in KEYWORDS else TK_IDENT
            append(Token(kind, text, loc))
        elif group == "punct":
            append(Token(TK_PUNCT, text, loc))
        elif group == "int":
            base = 16 if text[:2] in ("0x", "0X") else 10
            try:
                append(Token(TK_INT, text, loc, value=int(text, base)))
            except ValueError:  # no hex digits, or past int()'s digit limit
                message = "empty hex" if base == 16 else "too long an integer"
                raise LexError(f"{message} literal", loc) from None
        elif group == "string":
            data = _ESCAPE_RE.sub(_unescape, text[1:-1]).encode("latin-1")
            append(Token(TK_STRING, "", loc, value=data))
        elif group == "char":
            value = ord(_ESCAPE_RE.sub(_unescape, text[1:-1]))
            append(Token(TK_CHAR, "", loc, value=value))
        elif group == "hash":
            directive = _LINE_DIRECTIVE.fullmatch(text)
            if directive:
                line = int(directive.group(1)) - 1
                filename = directive.group(2)
        else:
            raise _error(source, start, loc)
    column = len(source) - line_start + 1
    append(Token(TK_EOF, "", SourceLocation(line, column, filename)))
    return tokens
