"""Recursive-descent parser for the supported Java subset.

Supported: package/import declarations; top-level and nested named classes;
fields, methods, constructors; statements (blocks, local declarations,
assignments and expression statements, if/else, while, for, for-each, return,
throw, synchronized blocks, try/catch/finally); expressions (literals, names,
field accesses, method calls, new, unary/binary/assignment operators, array
index, parentheses, class literals). Lambdas, generics beyond opaque
type-argument text, anonymous classes, switch, and labeled statements are
rejected with a ParseError.

Multi-declarator field declarations (``int a, b;``) are split into one
FieldDecl per name.

Statements are dispatched on their first token, and the parser never backs
up: each statement is parsed on one path, and its first error is the one
reported. A token lookahead, which moves nothing, decides whether a statement
or a for-header is a local declaration: it is one when the tokens ahead read
``[final] Type name``. The lookahead and ``parse_type`` share one type
scanner (a primitive keyword or a dotted name, optional balanced type
arguments, any number of ``[]`` pairs), so they agree on what a type is. A
statement the lookahead reads as a declaration is parsed as one, and an
error in it is reported at the token at fault; nothing is retried as an
expression (``a<b>c + 1;`` is an error, as in javac). In a for-header the
token after the name picks a for-each (``:``) or declarators.

Each operand of an expression (its prefix operators, a primary and the
primary's selectors) is parsed in one method, and the hot paths index the
token list directly instead of going through the token helpers. A token is
the lexer's plain ``(kind, text, start, end)`` tuple, read by index. A span
holds the offsets of its first and last tokens and the file's
``LineTable``, which gives ``line:col`` only to an error or a report.

Nesting is capped at ``MAX_NESTING`` levels, counting classes, statements,
nested expressions, and each further operand of an operator, assignment or
selector chain (``a + b + c`` and ``a.b.c`` grow the tree one level per
operand). Deeper input raises a ParseError instead of exhausting Python's
recursion limit here or in the tree walks of the later phases. A finally
block is lowered once per way out (see ``threadlint.cfg``), so the copies
double with each finally block around it; finally blocks are capped at
``MAX_FINALLY_NESTING`` levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from threadlint.errors import ParseError
from threadlint.frontend import ast as A
from threadlint.frontend.lexer import PRIMITIVE_TYPES, LineTable, Token, tokenize
from threadlint.frontend.printer import to_source

MODIFIER_KEYWORDS = frozenset(
    {"public", "private", "protected", "static", "final", "volatile",
     "synchronized", "transient", "abstract", "native", "strictfp"}
)
VISIBILITY_KEYWORDS = frozenset({"public", "private", "protected"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="})
_PREFIX_OPS = frozenset({"+", "-", "!", "~", "++", "--"})
_SELECTORS = frozenset({".", "[", "++", "--"})
# tokens that can start the operand of a cast but follow no parenthesized expression
_CAST_OPERAND_KINDS = frozenset({"ident", "number", "string", "char"})
_CAST_OPERAND_WORDS = frozenset({"(", "this", "new", "true", "false", "null"})

# binary operators by precedence level, loosest first; all left-associative
_BINARY_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

MAX_NESTING = 100
MAX_FINALLY_NESTING = 8
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels is not supported"


_UNSUPPORTED_STMT_KEYWORDS = {
    "switch": "switch statements are not supported",
    "do": "do/while loops are not supported",
    "break": "break statements are not supported",
    "continue": "continue statements are not supported",
    "assert": "assert statements are not supported",
    "case": "switch statements are not supported",
    "default": "switch statements are not supported",
}
# operators outside the subset that follow a complete operand: the parser
# stops before them and reports them where it expected another token
_UNSUPPORTED_OPERATORS = {
    "?": "conditional expressions are not supported",
    "instanceof": "instanceof expressions are not supported",
    "::": "method references are not supported",
}
# first tokens that decide a statement's kind on their own
_STATEMENT_HEADS = frozenset(
    {"{", ";", "if", "while", "for", "return", "throw", "synchronized", "try"}
) | frozenset(_UNSUPPORTED_STMT_KEYWORDS)
# tokens that stand for themselves inside type arguments, besides names
_TYPE_ARG_TOKENS = frozenset({"extends", "super", ",", ".", "?"})
_CLOSERS = frozenset({">", ">>", ">>>"})

_new = tuple.__new__  # SourceSpan's own __new__ is a Python-level call
_SourceSpan = A.SourceSpan


@dataclass(frozen=True)
class SourceFile:
    """One UTF-8 Java source file."""

    path: str
    content: str

    def __post_init__(self):
        if not self.path:
            raise ValueError("SourceFile.path must be nonempty")


def _is_name(e: A.Expr) -> bool:
    """A simple or qualified name, as a cast to a class type puts in parentheses."""
    while type(e) is A.FieldSel:
        e = e.qualifier
    return type(e) is A.Name


def _number_kind(text: str) -> str:
    is_hex = text[:2].lower() == "0x"
    if text[-1] in "lL":
        return "long"
    if not is_hex and text[-1] in "fF":
        return "float"
    if not is_hex and (text[-1] in "dD" or "." in text or "e" in text or "E" in text):
        return "double"
    return "int"


class _Parser:
    def __init__(self, tokens: list[Token], src: SourceFile):
        # two spare eof tokens let a lookahead index pos + 2 without clamping
        self.toks = tokens + [tokens[-1]] * 2
        self.src = src
        self.path = src.path
        self.lines = LineTable(src.content)
        self.pos = 0
        self.depth = 0  # current nesting, see MAX_NESTING
        self.finally_depth = 0  # finally blocks around the current token, see MAX_FINALLY_NESTING
        # simple-name -> qualified-name map built from exact imports
        self.import_map: dict[str, str] = {}
        self.wildcard_packages: list[str] = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        return self.toks[self.pos][1] == text

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    # accept and expect take nonempty texts, so the token they consume is never eof

    def accept(self, text: str) -> Optional[Token]:
        t = self.toks[self.pos]
        if t[1] == text:
            self.pos += 1
            return t
        return None

    def expect(self, text: str, what: str = "") -> Token:
        t = self.toks[self.pos]
        if t[1] != text:
            found = repr(t[1]) if t[0] != "eof" else "end of file"
            msg = f"expected {text!r}{' ' + what if what else ''}, found {found}"
            raise self.error(_UNSUPPORTED_OPERATORS.get(t[1], msg))
        self.pos += 1
        return t

    def expect_ident(self, what: str = "name") -> Token:
        t = self.toks[self.pos]
        if t[0] != "ident":
            raise self.error(f"expected {what}, found {t[1]!r}" if t[0] != "eof" else f"expected {what}, found end of file")
        self.pos += 1
        return t

    def error(self, msg: str, t: Optional[Token] = None) -> ParseError:
        """A ParseError at token ``t``, by default the current one."""
        return ParseError(*self.lines.line_col((self.toks[self.pos] if t is None else t)[2]), msg)

    def nest(self) -> None:
        """Enter one more nesting level; the caller restores ``self.depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(_TOO_DEEP)

    def span_from(self, start_tok: Token, end_tok: Optional[Token] = None) -> A.SourceSpan:
        if end_tok is None:
            end_tok = self.toks[self.pos - 1 if self.pos else 0]
        return _new(_SourceSpan, (self.path, start_tok[2], end_tok[3], self.lines))

    # -- compilation unit ----------------------------------------------------

    def parse_unit(self) -> A.Ast:
        package = None
        if self.at("package"):
            self.advance()
            package = self.parse_qualified_name()
            self.expect(";", "after package declaration")
        imports: list[A.ImportDecl] = []
        while self.at("import"):
            start = self.advance()
            is_static = self.accept("static") is not None
            name = self.parse_qualified_name()
            wildcard = False
            if self.accept("."):
                self.expect("*", "in wildcard import")
                wildcard = True
            self.expect(";", "after import")
            imp = A.ImportDecl(name, wildcard, is_static, self.span_from(start))
            imports.append(imp)
            if wildcard:
                self.wildcard_packages.append(name)
            elif not is_static:
                self.import_map.setdefault(imp.simple_name, name)
        classes: list[A.ClassDecl] = []
        while self.toks[self.pos][0] != "eof":
            classes.append(self.parse_class_decl())
        ast = A.Ast(self.src.path, self.src.content, package, imports, classes)
        prefix = package + "." if package else ""
        for c in classes:
            _qualify(c, prefix)
        return ast

    def parse_qualified_name(self) -> str:
        toks = self.toks
        parts = [self.expect_ident("identifier")[1]]
        while toks[self.pos][1] == "." and toks[self.pos + 1][0] == "ident":
            parts.append(toks[self.pos + 1][1])
            self.pos += 2
        return ".".join(parts)

    # -- annotations and modifiers -------------------------------------------

    def parse_annotations(self) -> list[A.Annotation]:
        anns = []
        while self.at("@"):
            start = self.advance()
            name = self.parse_qualified_name()
            args_src = None
            if self.at("("):
                open_tok = self.advance()
                depth = 1
                while depth:
                    t = self.advance()
                    if t[0] == "eof":
                        raise self.error("unclosed annotation argument list", open_tok)
                    if t[1] == "(":
                        depth += 1
                    elif t[1] == ")":
                        depth -= 1
                end = self.toks[self.pos - 1]
                args_src = self.src.content[open_tok[2] : end[3]]
            anns.append(A.Annotation(name, args_src, self.span_from(start)))
        return anns

    def parse_modifiers(self) -> frozenset[str]:
        toks = self.toks
        mods = []
        while toks[self.pos][0] == "keyword" and toks[self.pos][1] in MODIFIER_KEYWORDS:
            tok = self.advance()
            if tok[1] in mods:
                raise self.error(f"repeated modifier {tok[1]!r}", tok)
            mods.append(tok[1])
        vis = [m for m in mods if m in VISIBILITY_KEYWORDS]
        if len(vis) > 1:
            t = toks[self.pos - 1]
            raise self.error(f"conflicting visibility modifiers {vis[0]!r} and {vis[1]!r}", t)
        if "volatile" in mods and "final" in mods:
            t = toks[self.pos - 1]
            raise self.error("a field cannot be both volatile and final", t)
        return frozenset(mods)

    @staticmethod
    def visibility_of(mods: frozenset[str]) -> str:
        for v in VISIBILITY_KEYWORDS:
            if v in mods:
                return v
        return "package"

    # -- types ----------------------------------------------------------------

    # _scan_type and _scan_type_args are the type grammar. They read tokens
    # and move nothing, so the declaration lookahead, parse_type, class type
    # parameters and ``new`` accept the same types.

    def _scan_type(self, i: int, void: bool = False, dims: bool = True) -> tuple[int, bool]:
        """Scan the type at token ``i``: ``void`` (only with ``void``), a
        primitive keyword, or a dotted name with optional type arguments;
        then, except after ``void``, with ``dims`` any ``[]`` pairs. Returns
        the index past the type and True, or the index of the token at fault
        and False."""
        toks = self.toks
        t = toks[i]
        if t[0] == "ident":
            i += 1
            while toks[i][1] == "." and toks[i + 1][0] == "ident":
                i += 2
            if toks[i][1] == "<":
                i, ok = self._scan_type_args(i)
                if not ok:
                    return i, False
        elif t[1] == "void":
            return (i + 1, True) if void else (i, False)
        elif t[0] == "keyword" and t[1] in PRIMITIVE_TYPES:
            i += 1
        else:
            return i, False
        if dims:
            while toks[i][1] == "[" and toks[i + 1][1] == "]":
                i += 2
        return i, True

    def _scan_type_args(self, i: int) -> tuple[int, bool]:
        """Scan balanced ``<...>`` from the ``<`` at token ``i``; the contents
        are names, ``extends``, ``super``, ``, . ?``, ``[]`` and primitive
        keywords other than ``void`` that ``[]`` follows (javac rejects
        ``List<int>``, not ``List<int[]>``). Returns as ``_scan_type`` does."""
        toks = self.toks
        i += 1
        depth = 1
        while depth:
            t = toks[i]
            if t[0] == "ident" or t[1] in _TYPE_ARG_TOKENS:
                i += 1
            elif t[1] == "[" and toks[i + 1][1] == "]":
                i += 2
            elif (t[1] in PRIMITIVE_TYPES and t[1] != "void"
                  and toks[i + 1][1] == "[" and toks[i + 2][1] == "]"):
                i += 3
            elif t[1] == "<":
                i += 1
                depth += 1
            elif t[1] in _CLOSERS and len(t[1]) <= depth:
                i += 1
                depth -= len(t[1])
            else:
                return i, False
        return i, True

    def _take_type(self, end: int, ok: bool) -> str:
        """Move past the type scanned from here to ``end`` and return its
        normalized text, or raise the error at the token at fault."""
        toks = self.toks
        if not ok:
            t = toks[end]
            if end == self.pos:
                if t[1] == "void":
                    raise self.error("'void' is only valid as a return type", t)
                raise self.error(f"expected a type, found {t[1]!r}", t)
            if t[1] in _CLOSERS:
                raise self.error("unbalanced '>' in type arguments", t)
            raise self.error(f"unexpected {t[1]!r} in type arguments", t)
        text = self._type_text(self.pos, end)
        self.pos = end
        return text

    def _type_text(self, i: int, end: int) -> str:
        """The whitespace-free text of the type in tokens ``i`` to ``end``;
        ``extends`` and ``super`` keep one space after them."""
        toks = self.toks
        if end == i + 1:
            return toks[i][1]
        return "".join([t[1] + " " if t[1] in ("extends", "super") else t[1] for t in toks[i:end]])

    def parse_type(self, allow_void: bool = False) -> str:
        """Parse a type reference; returns its normalized (whitespace-free) text."""
        return self._take_type(*self._scan_type(self.pos, allow_void))

    def _at_local_decl(self) -> int:
        """The index of the name when the tokens ahead read ``[final] Type
        name``; otherwise -1 when they start with ``final``, as only a
        declaration can, and else 0. Moves nothing; the caller parses a
        declaration exactly when this is nonzero."""
        toks = self.toks
        i = self.pos
        final = toks[i][1] == "final"
        end, ok = self._scan_type(i + final)
        if ok and toks[end][0] == "ident":
            return end
        return -1 if final else 0

    def resolve_type(self, type_text: str) -> str:
        """Qualify a type via the file's imports when possible."""
        base = type_text.split("<", 1)[0].rstrip("[]")
        suffix = type_text[len(base):]
        if "." in base or base in PRIMITIVE_TYPES:
            return type_text
        if base in self.import_map:
            return self.import_map[base] + suffix
        if len(self.wildcard_packages) == 1:
            return self.wildcard_packages[0] + "." + base + suffix
        return type_text

    # -- class members ---------------------------------------------------------

    def parse_class_decl(self) -> A.ClassDecl:
        first = self.peek()
        anns = self.parse_annotations()
        mods = self.parse_modifiers()
        return self._finish_class(anns, mods, first)

    def _finish_class(self, anns, mods, first: Token) -> A.ClassDecl:
        if self.at("interface") or self.at("enum"):
            raise self.error(f"{self.peek()[1]} declarations are not supported")
        depth = self.depth
        self.nest()
        self.expect("class")
        name_tok = self.expect_ident("class name")
        if self.toks[self.pos][1] == "<":  # type parameters
            self._take_type(*self._scan_type_args(self.pos))
        extends = None
        if self.accept("extends"):
            extends = self.parse_type()
        implements: list[str] = []
        if self.accept("implements"):
            implements.append(self.parse_type())
            while self.accept(","):
                implements.append(self.parse_type())
        self.expect("{", "to open class body")
        fields: list[A.FieldDecl] = []
        methods: list[A.MethodDecl] = []
        ctors: list[A.MethodDecl] = []
        nested: list[A.ClassDecl] = []
        while not self.at("}"):
            if self.toks[self.pos][0] == "eof":
                raise self.error(f"unclosed class body for {name_tok[1]!r}", first)
            self.parse_member(name_tok[1], fields, methods, ctors, nested)
        close = self.expect("}")
        self.depth = depth
        return A.ClassDecl(
            span=self.span_from(first, close),
            name=name_tok[1],
            annotations=anns,
            fields=fields,
            methods=methods,
            constructors=ctors,
            nested=nested,
            modifiers=mods,
            extends=extends,
            implements=implements,
        )

    def parse_member(self, class_name, fields, methods, ctors, nested) -> None:
        first = self.peek()
        anns = self.parse_annotations()
        mods = self.parse_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            nested.append(self._finish_class(anns, mods, first))
            return
        if self.at("{"):
            raise self.error("initializer blocks are not supported")
        if self.toks[self.pos][1] == class_name and self.toks[self.pos + 1][1] == "(":
            name_tok = self.advance()
            ctors.append(self.parse_callable(name_tok, None, mods, anns, first, is_constructor=True))
            return
        type_tok = self.peek()
        rtype = self.parse_type(allow_void=True)
        name_tok = self.expect_ident("member name")
        if self.at("("):
            methods.append(self.parse_callable(name_tok, rtype, mods, anns, first))
            return
        if rtype == "void":
            if self.at("{"):
                raise self.error("expected '(' after method name, found '{'")
            raise self.error("'void' is only valid as a return type", type_tok)
        # field declaration, possibly with several declarators
        while True:
            init = None
            if self.accept("="):
                init = self.parse_expression()
            fields.append(
                A.FieldDecl(
                    span=self.span_from(first),
                    name=name_tok[1],
                    declared_type=rtype,
                    resolved_type=self.resolve_type(rtype),
                    modifiers=mods,
                    initializer=init,
                    annotations=anns,
                )
            )
            if self.accept(","):
                name_tok = self.expect_ident("field name")
                continue
            semi = self.expect(";", "after field declaration")
            fields[-1].span = self.span_from(first, semi)
            break

    def parse_callable(self, name_tok, rtype, mods, anns, start, is_constructor=False) -> A.MethodDecl:
        self.expect("(")
        params: list[A.Param] = []
        if not self.at(")"):
            while True:
                p_start = self.peek()
                p_final = self.accept("final") is not None
                p_type = self.parse_type()
                p_name = self.expect_ident("parameter name")
                params.append(A.Param(p_type, p_name[1], self.span_from(p_start), p_final))
                if not self.accept(","):
                    break
        self.expect(")")
        throws: list[str] = []
        if self.accept("throws"):
            throws.append(self.parse_qualified_name())
            while self.accept(","):
                throws.append(self.parse_qualified_name())
        body = None
        if self.at("{"):
            body = self.parse_block()
        else:
            self.expect(";", "or method body")
        return A.MethodDecl(
            span=self.span_from(start),
            name=name_tok[1],
            visibility=self.visibility_of(mods),
            is_static="static" in mods,
            is_synchronized="synchronized" in mods,
            params=params,
            body=body,
            return_type=rtype,
            modifiers=mods,
            annotations=anns,
            is_constructor=is_constructor,
            throws=throws,
        )

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> A.Block:
        open_tok = self.expect("{")
        toks = self.toks
        stmts = []
        while toks[self.pos][1] != "}":
            if toks[self.pos][0] == "eof":
                raise self.error("unclosed block", open_tok)
            stmts.append(self.parse_statement())
        close = toks[self.pos]
        self.pos += 1
        return A.Block(self.span_from(open_tok, close), stmts)

    def parse_statement(self) -> A.Stmt:
        """One statement, dispatched on its first token; see the module docstring."""
        toks = self.toks
        t = toks[self.pos]
        depth = self.depth
        if depth >= MAX_NESTING:
            raise self.error(_TOO_DEEP, t)
        self.depth = depth + 1
        text = t[1]
        if text not in _STATEMENT_HEADS:
            if t[0] == "ident" and toks[self.pos + 1][1] == ":":
                raise self.error("labeled statements are not supported", t)
            name = self._at_local_decl()
            if name:
                stmt = self._parse_local_decl(name)
            else:
                expr = self.parse_expression()
                self.expect(";", "after expression statement")
                stmt = A.ExprStmt(self.span_from(t), expr)
        elif text == "{":
            stmt = self.parse_block()
        elif text == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then = self.parse_statement()
            els = None
            if self.accept("else"):
                els = self.parse_statement()
            stmt = A.If(self.span_from(t), cond, then, els)
        elif text == "return":
            self.pos += 1
            value = None if toks[self.pos][1] == ";" else self.parse_expression()
            self.expect(";", "after return")
            stmt = A.Return(self.span_from(t), value)
        elif text == "synchronized":
            self.pos += 1
            self.expect("(", "after synchronized")
            monitor = self.parse_expression()
            self.expect(")")
            body = self.parse_block()
            stmt = A.Sync(self.span_from(t), monitor, body)
        elif text == "for":
            stmt = self._parse_for()
        elif text == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            stmt = A.While(self.span_from(t), cond, body)
        elif text == "try":
            stmt = self._parse_try()
        elif text == "throw":
            self.pos += 1
            value = self.parse_expression()
            self.expect(";", "after throw")
            stmt = A.Throw(self.span_from(t), value)
        elif text == ";":
            self.pos += 1
            stmt = A.Empty(self.span_from(t))
        else:
            raise self.error(_UNSUPPORTED_STMT_KEYWORDS[text], t)
        self.depth = depth
        return stmt

    def _parse_for(self) -> A.Stmt:
        start = self.expect("for")
        self.expect("(")
        init: Optional[A.Stmt] = None
        name = self._at_local_decl()
        if name:
            init = self._parse_local_decl(name, start)
            if type(init) is A.ForEach:
                return init
        elif self.at(";"):
            self.pos += 1
        else:
            e_start = self.peek()
            exprs = [self.parse_expression()]
            while self.accept(","):
                exprs.append(self.parse_expression())
            init = A.Block(self.span_from(e_start), [A.ExprStmt(x.span, x) for x in exprs])
            self.expect(";", "in for header")
        cond = None if self.at(";") else self.parse_expression()
        self.expect(";", "in for header")
        update: list[A.Expr] = []
        if not self.at(")"):
            update.append(self.parse_expression())
            while self.accept(","):
                update.append(self.parse_expression())
        self.expect(")")
        body = self.parse_statement()
        return A.For(self.span_from(start), init, cond, update, body)

    def _parse_try(self) -> A.Try:
        start = self.expect("try")
        if self.at("("):
            raise self.error("try-with-resources is not supported")
        body = self.parse_block()
        catches: list[A.Catch] = []
        while self.at("catch"):
            c_start = self.advance()
            self.expect("(")
            self.accept("final")
            c_type = self.parse_type()
            while self.accept("|"):  # multi-catch types
                c_type += "|" + self.parse_type()
            c_var = self.expect_ident("exception variable")
            self.expect(")")
            c_body = self.parse_block()
            catches.append(A.Catch(c_type, c_var[1], c_body, self.span_from(c_start)))
        finally_block = None
        if self.at("finally"):
            if self.finally_depth >= MAX_FINALLY_NESTING:
                raise self.error(f"finally blocks nested deeper than {MAX_FINALLY_NESTING} levels are not supported")
            self.pos += 1
            self.finally_depth += 1
            finally_block = self.parse_block()
            self.finally_depth -= 1
        if not catches and finally_block is None:
            raise self.error("try requires at least one catch or finally", start)
        return A.Try(self.span_from(start), body, catches, finally_block)

    def _parse_local_decl(self, name: int, for_start: Optional[Token] = None) -> A.Stmt:
        """The local declaration whose first name ``_at_local_decl`` found at
        token ``name``. In the header of the for loop that starts at
        ``for_start``, a ``:`` after the name makes the whole loop a for-each,
        which is returned instead."""
        toks = self.toks
        start = toks[self.pos]
        is_final = start[1] == "final"
        if name < 0:  # no ``Type name`` after ``final``: raise at the token at fault
            self.pos += 1
            self.parse_type()
            self.expect_ident()
        type_text = self._type_text(self.pos + is_final, name)
        if for_start is not None and toks[name + 1][1] == ":":
            self.pos = name + 2
            iterable = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return A.ForEach(self.span_from(for_start), type_text, toks[name][1], iterable, body, is_final)
        self.pos = name
        declarators = []
        while True:
            name_tok = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expression()
            declarators.append(A.Declarator(name_tok[1], init, self.span_from(name_tok)))
            if not self.accept(","):
                break
        self.expect(";", "after local declaration" if for_start is None else "in for header")
        return A.LocalDecl(self.span_from(start), type_text, declarators, is_final)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        """An expression; an assignment's value is parsed as a nested expression."""
        toks = self.toks
        start = toks[self.pos]
        depth = self.depth
        if depth >= MAX_NESTING:
            raise self.error(_TOO_DEEP, start)
        self.depth = depth + 1
        expr = self._parse_operand()
        t = toks[self.pos]
        if t[1] in _BINARY_LEVEL:
            expr = self._parse_binary(0, expr, start)
            t = toks[self.pos]
        if t[1] in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.FieldSel, A.Index)):
                raise self.error("invalid assignment target", t)
            self.pos += 1
            value = self.parse_expression()
            expr = A.Assign(self.span_from(start), expr, t[1], value)
        self.depth = depth
        return expr

    def _parse_binary(self, min_level: int, left: A.Expr, start: Token) -> A.Expr:
        """Precedence climbing: extend ``left``, which begins at ``start``,
        over operators of ``min_level`` and tighter."""
        toks = self.toks
        depth = self.depth
        while True:
            t = toks[self.pos]
            level = _BINARY_LEVEL.get(t[1])
            if level is None or level < min_level:
                break
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(_TOO_DEEP, t)
            self.pos += 1
            r_start = toks[self.pos]
            right = self._parse_operand()
            tighter = _BINARY_LEVEL.get(toks[self.pos][1])
            if tighter is not None and tighter > level:
                right = self._parse_binary(level + 1, right, r_start)
            left = A.Binary(self.span_from(start), t[1], left, right)
        self.depth = depth
        return left

    def _parse_operand(self) -> A.Expr:
        """One operand: its prefix operators, a primary and the primary's
        selectors (``.name``, ``.m(...)``, ``.class``, ``[i]``, postfix
        ``++``/``--``). Each prefix operator and each selector nests one level
        further than what it wraps."""
        toks = self.toks
        depth = self.depth
        t = toks[self.pos]
        prefix = None
        if t[1] in _PREFIX_OPS:
            prefix = []
            while t[1] in _PREFIX_OPS:
                prefix.append(t)
                self.pos += 1
                t = toks[self.pos]
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise self.error(_TOO_DEEP, t)
        kind = t[0]
        if kind == "ident":
            self.pos += 1
            if toks[self.pos][1] == "(":
                args = self._parse_args()
                expr = A.Call(self.span_from(t), None, t[1], args)
            else:
                expr = A.Name(_new(_SourceSpan, (self.path, t[2], t[3], self.lines)), t[1])
        elif kind == "number":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), _number_kind(t[1]), t[1])
        elif kind == "string" or kind == "char":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), kind, t[1])
        elif t[1] == "this":
            self.pos += 1
            expr = A.This(self.span_from(t, t))
        elif t[1] == "(":
            if toks[self.pos + 1][1] == ")" and toks[self.pos + 2][1] == "->":
                raise self.error("lambdas are not supported", t)
            self.pos += 1
            i = self.pos
            first = toks[i]
            try:
                inner = self.parse_expression()
                self.expect(")")
            except ParseError:
                if self._is_generic_cast(i):
                    raise self.error("cast expressions are not supported", first) from None
                raise
            nxt = toks[self.pos]
            if nxt[1] == "->":
                raise self.error("lambdas are not supported", t)
            if _is_name(inner) and (nxt[0] in _CAST_OPERAND_KINDS or nxt[1] in _CAST_OPERAND_WORDS):
                raise self.error("cast expressions are not supported", first)
            expr = A.Paren(self.span_from(t), inner)
        elif t[1] == "true" or t[1] == "false":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), "boolean", t[1])
        elif t[1] == "null":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), "null", t[1])
        elif t[1] == "new":
            expr = self._parse_new(t)
        elif t[1] == "->" or t[1] == "::":
            raise self.error("lambdas and method references are not supported", t)
        elif kind == "keyword" and t[1] in PRIMITIVE_TYPES:
            raise self.error(self._primitive_in_expression(), t)
        else:
            raise self.error(f"unexpected token {t[1]!r} in expression" if kind != "eof" else "unexpected end of file in expression", t)
        start = t
        while toks[self.pos][1] in _SELECTORS:
            t = toks[self.pos]
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(_TOO_DEEP, t)
            if t[1] == ".":
                nxt = toks[self.pos + 1]
                self.pos += 2
                if nxt[1] == "class":
                    expr = A.ClassLit(self.span_from(start), to_source(expr))
                elif nxt[1] == "<":
                    raise self.error("explicit type arguments are not supported", nxt)
                elif nxt[0] != "ident":
                    raise self.error(f"expected member name after '.', found {nxt[1]!r}", nxt)
                elif toks[self.pos][1] == "(":
                    args = self._parse_args()
                    expr = A.Call(self.span_from(start), expr, nxt[1], args)
                else:
                    expr = A.FieldSel(self.span_from(start), expr, nxt[1])
            elif t[1] == "[":
                self.pos += 1
                index = self.parse_expression()
                self.expect("]")
                expr = A.Index(self.span_from(start), expr, index)
            else:
                self.pos += 1
                expr = A.Unary(self.span_from(start), t[1], expr, False)
        if prefix:
            for op in reversed(prefix):
                expr = A.Unary(self.span_from(op), op[1], expr, True)
        self.depth = depth
        return expr

    def _is_generic_cast(self, i: int) -> bool:
        """Whether token ``i``, just after a ``(``, starts a type with type
        arguments that ``)`` and a cast's operand follow, as in
        ``(List<String>) o``. Parsed as an expression, such a type fails as
        a comparison, so only the error path asks."""
        toks = self.toks
        end, ok = self._scan_type(i)
        if not ok or toks[end][1] != ")" or not any(toks[j][1] == "<" for j in range(i, end)):
            return False
        nxt = toks[end + 1]
        return nxt[0] in _CAST_OPERAND_KINDS or nxt[1] in _CAST_OPERAND_WORDS

    def _primitive_in_expression(self) -> str:
        """The error for the primitive type keyword at the current token,
        which starts no supported operand, as in the cast ``(long) a`` or
        the class literal ``int.class``."""
        toks, pos = self.toks, self.pos
        after = pos + 1
        while toks[after][1] == "[" and toks[after + 1][1] == "]":
            after += 2
        if toks[after][1] == "." and toks[after + 1][1] == "class":
            return "primitive class literals are not supported"
        if toks[pos - 1][1] == "(" and toks[pos + 1][1] in (")", "["):
            return "cast expressions are not supported"
        return f"unexpected type keyword {toks[pos][1]!r} in expression"

    def _parse_args(self) -> list[A.Expr]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expression())
            while self.accept(","):
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def _parse_new(self, start: Token) -> A.Expr:
        self.pos += 1
        end, ok = self._scan_type(self.pos, dims=False)
        if end == self.pos:
            self.expect_ident("identifier")  # raises: no type starts here
        type_text = self._take_type(end, ok)
        if self.at("("):
            args = self._parse_args()
            if self.at("{"):
                raise self.error("anonymous classes are not supported")
            return A.New(self.span_from(start), type_text, args, None)
        if self.at("["):
            dims = []
            while self.accept("["):
                if self.at("]"):
                    self.advance()
                    continue
                dims.append(self.parse_expression())
                self.expect("]")
            if self.at("{"):
                raise self.error("array initializer expressions are not supported")
            return A.New(self.span_from(start), type_text, None, dims)
        raise self.error("expected '(' or '[' after new")


def _qualify(c: A.ClassDecl, prefix: str) -> None:
    c.qualified_name = prefix + c.name
    for n in c.nested:
        _qualify(n, c.qualified_name + ".")


def parse_compilation_unit(src: SourceFile) -> A.Ast:
    """Parse one source file into an Ast.

    Raises ParseError (with 1-based line/col) on malformed input or syntax
    outside the supported subset.
    """
    return _Parser(tokenize(src.content, src.path), src).parse_unit()


def parse_source(content: str, path: str = "<string>") -> A.Ast:
    return parse_compilation_unit(SourceFile(path, content))
