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
token list directly instead of going through the token helpers.

Nesting is capped at ``MAX_NESTING`` levels, counting classes, statements,
nested expressions, and each further operand of an operator, assignment or
selector chain (``a + b + c`` and ``a.b.c`` grow the tree one level per
operand). Deeper input raises a ParseError instead of exhausting Python's
recursion limit here or in the tree walks of the later phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from threadlint.errors import ParseError
from threadlint.frontend import ast as A
from threadlint.frontend.lexer import PRIMITIVE_TYPES, Token, tokenize
from threadlint.frontend.printer import to_source

MODIFIER_KEYWORDS = frozenset(
    {"public", "private", "protected", "static", "final", "volatile",
     "synchronized", "transient", "abstract", "native", "strictfp"}
)
VISIBILITY_KEYWORDS = frozenset({"public", "private", "protected"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="})
_PREFIX_OPS = frozenset({"+", "-", "!", "~", "++", "--"})
_SELECTORS = frozenset({".", "[", "++", "--"})

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


_UNSUPPORTED_STMT_KEYWORDS = {
    "switch": "switch statements are not supported",
    "do": "do/while loops are not supported",
    "break": "break statements are not supported",
    "continue": "continue statements are not supported",
    "assert": "assert statements are not supported",
    "case": "switch statements are not supported",
    "default": "switch statements are not supported",
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


def _too_deep(t: Token) -> ParseError:
    return ParseError(t.line, t.col, f"nesting deeper than {MAX_NESTING} levels is not supported")


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
        self.pos = 0
        self.depth = 0  # current nesting, see MAX_NESTING
        # simple-name -> qualified-name map built from exact imports
        self.import_map: dict[str, str] = {}
        self.wildcard_packages: list[str] = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    # accept and expect take nonempty texts, so the token they consume is never eof

    def accept(self, text: str) -> Optional[Token]:
        t = self.toks[self.pos]
        if t.text == text:
            self.pos += 1
            return t
        return None

    def expect(self, text: str, what: str = "") -> Token:
        t = self.toks[self.pos]
        if t.text != text:
            found = repr(t.text) if t.kind != "eof" else "end of file"
            msg = f"expected {text!r}{' ' + what if what else ''}, found {found}"
            raise ParseError(t.line, t.col, msg)
        self.pos += 1
        return t

    def expect_ident(self, what: str = "name") -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident":
            raise ParseError(t.line, t.col, f"expected {what}, found {t.text!r}" if t.kind != "eof" else f"expected {what}, found end of file")
        self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.toks[self.pos]
        return ParseError(t.line, t.col, msg)

    def nest(self) -> None:
        """Enter one more nesting level; the caller restores ``self.depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(self.toks[self.pos])

    def span_from(self, start_tok: Token, end_tok: Optional[Token] = None) -> A.SourceSpan:
        if end_tok is None:
            end_tok = self.toks[self.pos - 1 if self.pos else 0]
        return _new(_SourceSpan, (
            self.path, start_tok.start, end_tok.end,
            start_tok.line, start_tok.col,
            end_tok.line, end_tok.col + len(end_tok.text),
        ))

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
        while self.toks[self.pos].kind != "eof":
            classes.append(self.parse_class_decl())
        ast = A.Ast(self.src.path, self.src.content, package, imports, classes)
        prefix = package + "." if package else ""
        for c in classes:
            _qualify(c, prefix)
        return ast

    def parse_qualified_name(self) -> str:
        toks = self.toks
        parts = [self.expect_ident("identifier").text]
        while toks[self.pos].text == "." and toks[self.pos + 1].kind == "ident":
            parts.append(toks[self.pos + 1].text)
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
                    if t.kind == "eof":
                        raise ParseError(open_tok.line, open_tok.col, "unclosed annotation argument list")
                    if t.text == "(":
                        depth += 1
                    elif t.text == ")":
                        depth -= 1
                end = self.toks[self.pos - 1]
                args_src = self.src.content[open_tok.start : end.end]
            anns.append(A.Annotation(name, args_src, self.span_from(start)))
        return anns

    def parse_modifiers(self) -> frozenset[str]:
        toks = self.toks
        mods = []
        while toks[self.pos].kind == "keyword" and toks[self.pos].text in MODIFIER_KEYWORDS:
            tok = self.advance()
            if tok.text in mods:
                raise ParseError(tok.line, tok.col, f"repeated modifier {tok.text!r}")
            mods.append(tok.text)
        vis = [m for m in mods if m in VISIBILITY_KEYWORDS]
        if len(vis) > 1:
            t = toks[self.pos - 1]
            raise ParseError(t.line, t.col, f"conflicting visibility modifiers {vis[0]!r} and {vis[1]!r}")
        if "volatile" in mods and "final" in mods:
            t = toks[self.pos - 1]
            raise ParseError(t.line, t.col, "a field cannot be both volatile and final")
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
        if t.kind == "ident":
            i += 1
            while toks[i].text == "." and toks[i + 1].kind == "ident":
                i += 2
            if toks[i].text == "<":
                i, ok = self._scan_type_args(i)
                if not ok:
                    return i, False
        elif t.text == "void":
            return (i + 1, True) if void else (i, False)
        elif t.kind == "keyword" and t.text in PRIMITIVE_TYPES:
            i += 1
        else:
            return i, False
        if dims:
            while toks[i].text == "[" and toks[i + 1].text == "]":
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
            if t.kind == "ident" or t.text in _TYPE_ARG_TOKENS:
                i += 1
            elif t.text == "[" and toks[i + 1].text == "]":
                i += 2
            elif (t.text in PRIMITIVE_TYPES and t.text != "void"
                  and toks[i + 1].text == "[" and toks[i + 2].text == "]"):
                i += 3
            elif t.text == "<":
                i += 1
                depth += 1
            elif t.text in _CLOSERS and len(t.text) <= depth:
                i += 1
                depth -= len(t.text)
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
                if t.text == "void":
                    raise ParseError(t.line, t.col, "'void' is only valid as a return type")
                raise ParseError(t.line, t.col, f"expected a type, found {t.text!r}")
            if t.text in _CLOSERS:
                raise ParseError(t.line, t.col, "unbalanced '>' in type arguments")
            raise ParseError(t.line, t.col, f"unexpected {t.text!r} in type arguments")
        text = self._type_text(self.pos, end)
        self.pos = end
        return text

    def _type_text(self, i: int, end: int) -> str:
        """The whitespace-free text of the type in tokens ``i`` to ``end``;
        ``extends`` and ``super`` keep one space after them."""
        toks = self.toks
        if end == i + 1:
            return toks[i].text
        return "".join([t.text + " " if t.text in ("extends", "super") else t.text for t in toks[i:end]])

    def parse_type(self, allow_void: bool = False) -> str:
        """Parse a type reference; returns its normalized (whitespace-free) text."""
        return self._take_type(*self._scan_type(self.pos, allow_void))

    def _at_local_decl(self) -> int:
        """The index of the name when the tokens ahead read ``[final] Type
        name``, else 0. Moves nothing; the caller parses a declaration
        exactly when this is nonzero."""
        toks = self.toks
        i = self.pos
        if toks[i].text == "final":
            i += 1
        end, ok = self._scan_type(i)
        return end if ok and toks[end].kind == "ident" else 0

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
            raise self.error(f"{self.peek().text} declarations are not supported")
        depth = self.depth
        self.nest()
        self.expect("class")
        name_tok = self.expect_ident("class name")
        if self.toks[self.pos].text == "<":  # type parameters
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
            if self.toks[self.pos].kind == "eof":
                raise ParseError(first.line, first.col, f"unclosed class body for {name_tok.text!r}")
            self.parse_member(name_tok.text, fields, methods, ctors, nested)
        close = self.expect("}")
        self.depth = depth
        return A.ClassDecl(
            span=self.span_from(first, close),
            name=name_tok.text,
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
        if self.toks[self.pos].text == class_name and self.toks[self.pos + 1].text == "(":
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
            raise ParseError(type_tok.line, type_tok.col, "'void' is only valid as a return type")
        # field declaration, possibly with several declarators
        while True:
            init = None
            if self.accept("="):
                init = self.parse_expression()
            fields.append(
                A.FieldDecl(
                    span=self.span_from(first),
                    name=name_tok.text,
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
                params.append(A.Param(p_type, p_name.text, self.span_from(p_start), p_final))
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
            name=name_tok.text,
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
        while toks[self.pos].text != "}":
            if toks[self.pos].kind == "eof":
                raise ParseError(open_tok.line, open_tok.col, "unclosed block")
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
            raise _too_deep(t)
        self.depth = depth + 1
        text = t.text
        if text not in _STATEMENT_HEADS:
            if t.kind == "ident" and toks[self.pos + 1].text == ":":
                raise ParseError(t.line, t.col, "labeled statements are not supported")
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
            value = None if toks[self.pos].text == ";" else self.parse_expression()
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
            raise ParseError(t.line, t.col, _UNSUPPORTED_STMT_KEYWORDS[text])
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
            catches.append(A.Catch(c_type, c_var.text, c_body, self.span_from(c_start)))
        finally_block = None
        if self.accept("finally"):
            finally_block = self.parse_block()
        if not catches and finally_block is None:
            raise ParseError(start.line, start.col, "try requires at least one catch or finally")
        return A.Try(self.span_from(start), body, catches, finally_block)

    def _parse_local_decl(self, name: int, for_start: Optional[Token] = None) -> A.Stmt:
        """The local declaration whose first name ``_at_local_decl`` found at
        token ``name``. In the header of the for loop that starts at
        ``for_start``, a ``:`` after the name makes the whole loop a for-each,
        which is returned instead."""
        toks = self.toks
        start = toks[self.pos]
        is_final = start.text == "final"
        type_text = self._type_text(self.pos + is_final, name)
        if for_start is not None and toks[name + 1].text == ":":
            self.pos = name + 2
            iterable = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return A.ForEach(self.span_from(for_start), type_text, toks[name].text, iterable, body, is_final)
        self.pos = name
        declarators = []
        while True:
            name_tok = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expression()
            declarators.append(A.Declarator(name_tok.text, init, self.span_from(name_tok)))
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
            raise _too_deep(start)
        self.depth = depth + 1
        expr = self._parse_operand()
        t = toks[self.pos]
        if t.text in _BINARY_LEVEL:
            expr = self._parse_binary(0, expr, start)
            t = toks[self.pos]
        if t.text in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.FieldSel, A.Index)):
                raise ParseError(t.line, t.col, "invalid assignment target")
            self.pos += 1
            value = self.parse_expression()
            expr = A.Assign(self.span_from(start), expr, t.text, value)
        self.depth = depth
        return expr

    def _parse_binary(self, min_level: int, left: A.Expr, start: Token) -> A.Expr:
        """Precedence climbing: extend ``left``, which begins at ``start``,
        over operators of ``min_level`` and tighter."""
        toks = self.toks
        depth = self.depth
        while True:
            t = toks[self.pos]
            level = _BINARY_LEVEL.get(t.text)
            if level is None or level < min_level:
                break
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise _too_deep(t)
            self.pos += 1
            r_start = toks[self.pos]
            right = self._parse_operand()
            tighter = _BINARY_LEVEL.get(toks[self.pos].text)
            if tighter is not None and tighter > level:
                right = self._parse_binary(level + 1, right, r_start)
            left = A.Binary(self.span_from(start), t.text, left, right)
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
        if t.text in _PREFIX_OPS:
            prefix = []
            while t.text in _PREFIX_OPS:
                prefix.append(t)
                self.pos += 1
                t = toks[self.pos]
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise _too_deep(t)
        kind = t.kind
        if kind == "ident":
            self.pos += 1
            if toks[self.pos].text == "(":
                args = self._parse_args()
                expr = A.Call(self.span_from(t), None, t.text, args)
            else:
                expr = A.Name(_new(_SourceSpan, (
                    self.path, t.start, t.end, t.line, t.col, t.line, t.col + len(t.text),
                )), t.text)
        elif kind == "number":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), _number_kind(t.text), t.text)
        elif kind == "string" or kind == "char":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), kind, t.text)
        elif t.text == "this":
            self.pos += 1
            expr = A.This(self.span_from(t, t))
        elif t.text == "(":
            if toks[self.pos + 1].text == ")" and toks[self.pos + 2].text == "->":
                raise ParseError(t.line, t.col, "lambdas are not supported")
            self.pos += 1
            inner = self.parse_expression()
            self.expect(")")
            if toks[self.pos].text == "->":
                raise ParseError(t.line, t.col, "lambdas are not supported")
            expr = A.Paren(self.span_from(t), inner)
        elif t.text == "true" or t.text == "false":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), "boolean", t.text)
        elif t.text == "null":
            self.pos += 1
            expr = A.Literal(self.span_from(t, t), "null", t.text)
        elif t.text == "new":
            expr = self._parse_new(t)
        elif t.text == "->" or t.text == "::":
            raise ParseError(t.line, t.col, "lambdas and method references are not supported")
        elif kind == "keyword" and t.text in PRIMITIVE_TYPES:
            # only valid as Foo.class qualifiers, e.g. int.class — unsupported
            raise ParseError(t.line, t.col, f"unexpected type keyword {t.text!r} in expression")
        else:
            raise ParseError(t.line, t.col, f"unexpected token {t.text!r} in expression" if kind != "eof" else "unexpected end of file in expression")
        start = t
        while toks[self.pos].text in _SELECTORS:
            t = toks[self.pos]
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise _too_deep(t)
            if t.text == ".":
                nxt = toks[self.pos + 1]
                self.pos += 2
                if nxt.text == "class":
                    expr = A.ClassLit(self.span_from(start), to_source(expr))
                elif nxt.kind != "ident":
                    raise ParseError(nxt.line, nxt.col, f"expected member name after '.', found {nxt.text!r}")
                elif toks[self.pos].text == "(":
                    args = self._parse_args()
                    expr = A.Call(self.span_from(start), expr, nxt.text, args)
                else:
                    expr = A.FieldSel(self.span_from(start), expr, nxt.text)
            elif t.text == "[":
                self.pos += 1
                index = self.parse_expression()
                self.expect("]")
                expr = A.Index(self.span_from(start), expr, index)
            else:
                self.pos += 1
                expr = A.Unary(self.span_from(start), t.text, expr, False)
        if prefix:
            for op in reversed(prefix):
                expr = A.Unary(self.span_from(op), op.text, expr, True)
        self.depth = depth
        return expr

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
    tokens = tokenize(src.content, src.path)
    parser = _Parser(tokens, src)
    return parser.parse_unit()


def parse_source(content: str, path: str = "<string>") -> A.Ast:
    return parse_compilation_unit(SourceFile(path, content))
