"""Tokenizer for the supported Java subset.

Comments and whitespace are discarded; every token keeps character offsets
plus 1-based line/column so the parser can build exact spans.

Each token costs one regex match: the pattern's optional prefix swallows the
whitespace and comments before the token, and the line count advances by the
newlines in that prefix. The token part is optional too, so the match never
fails and never backtracks into the prefix; a match that ends in no token
group is the end of the input or an error at the first unlexable character.
String and character literals end at a line break, escaped or not, as in
javac, so a token never spans lines. The escapes are javac's:
``\\b \\t \\n \\f \\r \\s \\" \\' \\\\``, ``\\uXXXX`` and octal escapes of up to
three digits, ``\\0`` through ``\\377``; a literal with any other escape is an
error at the literal.

:class:`Token` is a ``NamedTuple`` because a pass builds one per token:
a tuple is several times cheaper to build than a frozen dataclass, and it is
just as immutable and hashable.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from threadlint.errors import ParseError

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>(?:[\ \t\r\n\f]+|//[^\n]*|/\*.*?\*/)*)
    (?:
        (?P<number>
            0[xX][0-9a-fA-F_]+[lL]?
          | \d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
          | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
          | \d[\d_]*[eE][+-]?\d+[fFdD]?
          | \d[\d_]*[lLfFdD]?
        )
      | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
      | (?P<string>"(?:\\(?:u[0-9a-fA-F]{4}|[btnfrs"'\\]|[0-3][0-7][0-7]|[0-7][0-7]?)|[^"\\\n])*")
      | (?P<char>'(?:\\(?:u[0-9a-fA-F]{4}|[btnfrs"'\\]|[0-3][0-7][0-7]|[0-7][0-7]?)|[^'\\\n])')
      | (?P<punct>
            >>>=|>>=|<<=|>>>|>>|<<|\+\+|--|&&|\|\||<=|>=|==|!=|->|::
          | \+=|-=|\*=|/=|%=|&=|\|=|\^=
          | [{}()\[\];,.=<>!~?:&|+\-*/%^@]
        )
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

# A literal that ends on its line once any character may follow a backslash:
# when _TOKEN_RE does not lex it, one of its escapes is illegal.
_LOOSE_LITERAL_RE = re.compile(r"""
    "(?:\\[^\n]|[^"\\\n])*"
  | '(?:\\u[0-9a-fA-F]{4}|\\[0-3][0-7][0-7]|\\[0-7][0-7]?|\\[^\n]|[^'\\\n])'
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # ident | keyword | number | string | char | punct | eof
    text: str
    start: int
    end: int
    line: int
    col: int


def tokenize(source: str, path: str = "<string>") -> list[Token]:
    """Lex ``source`` into a token list terminated by an ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token's own __new__ is a Python-level call
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    # the pattern matches at every position, so consecutive matches tile the
    # source; the first match without a token ends the loop
    for m in _TOKEN_RE.finditer(source):
        start = m.end(1)
        if start != pos:
            nl = source.count("\n", pos, start)
            if nl:
                line += nl
                line_start = source.rindex("\n", pos, start) + 1
        kind = m.lastgroup
        if kind == "skip":
            if start == n:
                break
            col = start - line_start + 1
            ch = source[start]
            if ch in "\"'":
                what = "string" if ch == '"' else "character"
                if _LOOSE_LITERAL_RE.match(source, start):
                    raise ParseError(line, col, f"illegal escape character in {what} literal")
                raise ParseError(line, col, f"unterminated {what} literal")
            raise ParseError(line, col, f"unexpected character {ch!r}")
        pos = m.end()
        text = source[start:pos]
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "punct" and text == "/" and source.startswith("/*", start):
            raise ParseError(line, start - line_start + 1, "unterminated block comment")
        append(new(Token, (kind, text, start, pos, line, start - line_start + 1)))
    append(Token("eof", "", n, n, line, n - line_start + 1))
    return tokens
