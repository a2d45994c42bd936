"""Tokenizer for the supported Java subset.

Comments and whitespace are discarded. ``tokenize`` returns the tokens as
:class:`Tokens`: four parallel columns of kinds, texts and half-open
character offsets, the ``eof`` token included, which the parser indexes by
token number; iterating it yields ``(kind, text, start, end)`` tuples. A
:class:`LineTable` turns an offset into a 1-based ``line:col`` when a report
or an error needs one.

The lexer runs no Python statement per token. One pattern runs under
``findall``; its groups are the whitespace and comments skipped and the
token after them, or the empty string, so each match starts where the last
ended, and the first with an empty token is the end of the input or an error
there. The pattern has no optional group, and its one repeat of an
alternation is entered only after a comment, so sre lexes a token that
follows whitespace alone without its slow general repeat. The token
alternatives start with identifiers, the most common tokens, and end in the
empty string. No possessive quantifier or atomic group is used: Python 3.10
has neither. Offsets are running sums of the pieces' lengths. A kind is
looked up by text (keywords, punctuators), else by first character. Only an
unterminated block comment lexes as a ``/*`` token, an error too.

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

# whitespace and comments: what the lexer skips before each token; the
# repeat over comments is entered only once a first comment has matched
_WS = r"[\ \t\r\n\f]*"
_COMMENT = r"(?://[^\r\n]*|/\*.*?\*/)"
_SKIP = _WS + "(?:" + _COMMENT + _WS + "(?:" + _COMMENT + _WS + ")*|)"
_WORD = r"[A-Za-z_$][A-Za-z0-9_$]*"
_ESCAPE = r"""\\(?:u[0-9a-fA-F]{4}|[btnfrs"'\\]|[0-3][0-7][0-7]|[0-7][0-7]?)"""

# The token alternatives, most frequent first where no earlier one can take
# a prefix of a later one's match: multi-character punctuators longest first
# before the single-character class, ``.5`` before ``.`` and ``/*`` before
# ``/``. The last alternative is empty: the end of the input or an error.
_TOKEN_RE = re.compile(
    "(" + _SKIP + ")(" + _WORD + "|"
    + "|".join(re.escape(p) for p in sorted(_PUNCTUATORS, key=len, reverse=True) if len(p) > 1)
    + r"""
      | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | /\*
      | [""" + "".join(re.escape(p) for p in _PUNCTUATORS if len(p) == 1) + r"""]
      | 0[xX][0-9a-fA-F_]+[lL]?
      | \d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | \d[\d_]*[eE][+-]?\d+[fFdD]?
      | \d[\d_]*[lLfFdD]?
      | "(?:""" + _ESCAPE + r"""|[^"\\\r\n])*"
      | '(?:""" + _ESCAPE + r"""|[^'\\\r\n])'
      |
    )""",
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

# (kind, text, start, end), as iterating Tokens yields; kind is
# ident | keyword | number | string | char | punct | eof
Token = tuple[str, str, int, int]


class Tokens:
    """The tokens of one source text, the ``eof`` token last, as four
    parallel lists: token ``i`` is ``kinds[i]``, ``texts[i]`` and the
    half-open character offsets ``starts[i]`` to ``ends[i]``. Iterating
    yields each token as a :data:`Token` tuple."""

    __slots__ = ("kinds", "texts", "starts", "ends")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int], ends: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        return zip(self.kinds, self.texts, self.starts, self.ends)


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


def tokenize(source: str, path: str = "<string>") -> Tokens:
    """Lex ``source`` into its tokens, an ``eof`` token last."""
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
    kinds = list(map(_KIND.get, texts, map(_FIRST.get, map(itemgetter(0), texts))))
    kinds.append("eof")
    texts.append("")
    starts = offsets[1:2 * k + 2:2]  # the last is n, the eof token's start
    ends = offsets[2:2 * k + 1:2]
    ends.append(n)
    return Tokens(kinds, texts, starts, ends)


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
