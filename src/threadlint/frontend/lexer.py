"""Tokenizer for the supported Java subset.

Comments and whitespace are discarded. A token is a plain tuple
``(kind, text, start, end)`` of half-open character offsets; a
:class:`LineTable` turns an offset into a 1-based ``line:col`` when a report
or an error needs one.

The lexer runs no Python statement per token. One pattern runs under
``findall``; its groups are the whitespace and comments skipped and the
optional token after them, so each match starts where the last ended, and
the first with no token is the end of the input or an error there. Offsets
are running sums of the pieces' lengths. A kind is looked up by text
(keywords, punctuators), else by first character. Only an unterminated
block comment lexes as a ``/*`` token, an error too.

A line ends at ``\\n``, ``\\r`` or ``\\r\\n`` (JLS §3.4). String and character
literals end at a line end, escaped or not, as in javac, so a token never
spans lines. The escapes are javac's: ``\\b \\t \\n \\f \\r \\s \\" \\' \\\\``,
``\\uXXXX`` and octal escapes of up to three digits, ``\\0`` through
``\\377``; a literal with any other escape is an error at the literal.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from itertools import accumulate, chain
from operator import itemgetter

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

_PUNCTUATORS = """>>>= >>= <<= >>> >> << ++ -- && || <= >= == != -> :: += -= *= /= %= &= |= ^=
    { } ( ) [ ] ; , . = < > ! ~ ? : & | + - * / % ^ @""".split()

# whitespace and comments: what the lexer skips before each token
_SKIP = r"(?:[\ \t\r\n\f]+|//[^\r\n]*|/\*.*?\*/)*"
_WORD = r"[A-Za-z_$][A-Za-z0-9_$]*"
_ESCAPE = r"""\\(?:u[0-9a-fA-F]{4}|[btnfrs"'\\]|[0-3][0-7][0-7]|[0-7][0-7]?)"""

_TOKEN_RE = re.compile(
    "(" + _SKIP + ")" + r"""
    (
        0[xX][0-9a-fA-F_]+[lL]?
      | \d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | \d[\d_]*[eE][+-]?\d+[fFdD]?
      | \d[\d_]*[lLfFdD]?
      | """ + _WORD + r"""
      | "(?:""" + _ESCAPE + r"""|[^"\\\r\n])*"
      | '(?:""" + _ESCAPE + r"""|[^'\\\r\n])'
      | /\*
      | """ + "|".join(map(re.escape, sorted(_PUNCTUATORS, key=len, reverse=True))) + r"""
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

# A literal that ends on its line once any character may follow a backslash:
# when _TOKEN_RE does not lex it, one of its escapes is illegal.
_LOOSE_LITERAL_RE = re.compile(r"""
    "(?:\\[^\r\n]|[^"\\\r\n])*"
  | '(?:\\u[0-9a-fA-F]{4}|\\[0-3][0-7][0-7]|\\[0-7][0-7]?|\\[^\r\n]|[^'\\\r\n])'
""", re.VERBOSE)

# a token's kind: its text's entry, else its first character's
_KIND = dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(_PUNCTUATORS, "punct")
_FIRST = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", "ident")
          | dict.fromkeys("0123456789.", "number") | {'"': "string", "'": "char"})

_LINE_END = re.compile(r"\r\n?|\n")

# (kind, text, start, end); kind is ident | keyword | number | string | char | punct | eof
Token = tuple[str, str, int, int]


class LineTable:
    """The line starts of one source text, found on first need, mapping a
    character offset to its 1-based ``(line, col)``. Tables of equal texts
    are equal, so are the spans that refer to them."""

    __slots__ = ("source", "_starts")

    def __init__(self, source: str):
        self.source = source
        self._starts = None  # list[int] once built

    def line_col(self, offset: int) -> tuple[int, int]:
        starts = self._starts
        if starts is None:
            starts = self._starts = [0, *(m.end() for m in _LINE_END.finditer(self.source))]
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, LineTable) and self.source == other.source

    def __hash__(self) -> int:
        return hash(self.source)

    def __repr__(self) -> str:
        return f"LineTable(<{len(self.source)} characters>)"


def tokenize(source: str, path: str = "<string>") -> list[Token]:
    """Lex ``source`` into a token list terminated by an ``eof`` token."""
    pieces = _TOKEN_RE.findall(source)
    offsets = list(accumulate(map(len, chain.from_iterable(pieces)), initial=0))
    texts = list(map(itemgetter(1), pieces))
    # the pieces before the first with no token tile the source; past it, all are empty on success
    k = texts.index("")
    n = len(source)
    pos = offsets[2 * k + 1]
    if pos != n or "/*" in texts:
        if "/*" in texts[:k]:
            pos, message = offsets[2 * texts.index("/*") + 1], "unterminated block comment"
        elif source[pos] in "\"'":
            what = "string" if source[pos] == '"' else "character"
            illegal = _LOOSE_LITERAL_RE.match(source, pos)
            message = f"illegal escape character in {what} literal" if illegal else f"unterminated {what} literal"
        else:
            message = f"unexpected character {source[pos]!r}"
        raise ParseError(*LineTable(source).line_col(pos), message)
    del texts[k:]
    kinds = map(_KIND.get, texts, map(_FIRST.get, map(itemgetter(0), texts)))
    return [*zip(kinds, texts, offsets[1:2 * k:2], offsets[2:2 * k + 1:2]), ("eof", "", n, n)]


@functools.lru_cache(maxsize=16)
def annotation_pattern(names: tuple[str, ...]) -> re.Pattern:
    """The pattern of an annotation that ``annotated_as_thread_safe`` matches
    to one of ``names`` by simple name: ``@``, an optional dotted qualifier
    and the simple name, with the lexer's whitespace and comments allowed
    between the tokens. Every such annotation the parser reads matches it,
    so a text it finds nothing in declares no class so annotated; a match
    inside a comment or a string literal is a false lead, not an error.

    A lookahead captures each gap as the lexer skips it and a backreference
    consumes it, so the search never backtracks into a gap (an atomic group
    needs Python 3.11)."""

    def gap(group: int) -> str:
        return "(?=(" + _SKIP + "))\\" + str(group)

    simple = "|".join(re.escape(n.rsplit(".", 1)[-1]) for n in names)
    return re.compile(
        "@" + gap(1) + "(?:" + _WORD + gap(2) + r"\." + gap(3) + ")*(?:" + simple + ")(?![A-Za-z0-9_$])",
        re.DOTALL,
    )
