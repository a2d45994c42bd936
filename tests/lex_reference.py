"""Reference lexer: one regex match per token or per skipped run.

This is the tokenizer that the single-match lexer in
``threadlint.frontend.lexer`` replaced. It is kept only as the reference for
the parity property in test_frontend.py, so it stays as it was: whitespace
runs and comments are separate matches, and lines are counted over each.
The one change since: a line ends at ``\n``, ``\r`` or ``\r\n`` (JLS §3.4),
in line comments, in literals and in the line count, as in the lexer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from threadlint.errors import ParseError
from threadlint.frontend.lexer import KEYWORDS
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[\ \t\r\n\f]+)
  | (?P<linecomment>//[^\r\n]*)
  | (?P<blockcomment>/\*.*?\*/)
  | (?P<number>
        0[xX][0-9a-fA-F_]+[lL]?
      | \d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | \d[\d_]*[eE][+-]?\d+[fFdD]?
      | \d[\d_]*[lLfFdD]?
    )
  | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<string>"(?:\\u[0-9a-fA-F]{4}|\\[^\r\n]|[^"\\\r\n])*")
  | (?P<char>'(?:\\u[0-9a-fA-F]{4}|\\[^\r\n]|[^'\\\r\n])')
  | (?P<punct>
        >>>=|>>=|<<=|>>>|>>|<<|\+\+|--|&&|\|\||<=|>=|==|!=|->|::
      | \+=|-=|\*=|/=|%=|&=|\|=|\^=
      | [{}()\[\];,.=<>!~?:&|+\-*/%^@]
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_LINE_END = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | number | string | char | punct | eof
    text: str
    start: int
    end: int
    line: int
    col: int


def tokenize(source: str, path: str = "<string>") -> list[Token]:
    """Lex ``source`` into a token list terminated by an ``eof`` token."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            ch = source[pos]
            if ch == '"':
                raise ParseError(line, col, "unterminated string literal")
            if ch == "'":
                raise ParseError(line, col, "unterminated character literal")
            if source.startswith("/*", pos):
                raise ParseError(line, col, "unterminated block comment")
            raise ParseError(line, col, f"unexpected character {ch!r}")
        kind = m.lastgroup
        text = m.group()
        if kind == "punct" and text == "/" and source.startswith("/*", pos):
            raise ParseError(line, pos - line_start + 1, "unterminated block comment")
        if kind in ("ws", "linecomment", "blockcomment"):
            ends = [e.end() for e in _LINE_END.finditer(text)]
            if ends:
                line += len(ends)
                line_start = m.start() + ends[-1]
        else:
            col = m.start() - line_start + 1
            if kind == "word":
                kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, m.start(), m.end(), line, col))
        pos = m.end()
    tokens.append(Token("eof", "", n, n, line, n - line_start + 1))
    return tokens
