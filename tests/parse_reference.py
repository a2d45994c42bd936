"""Reference parser: the recursive-descent parser that tries a local
declaration before every statement and backtracks when it fails.

This is the parser that the lookahead parser in
``threadlint.frontend.parser`` replaced. It is kept only as the reference for
the parity property in test_frontend.py, so it stays as it was: it takes its
tokens from the same ``tokenize`` and builds the same AST nodes, and a
property checks that both parsers give the same tree or the same error.
Since tokens became columns, it reads each through ``Token``, which adds the
line and column of the token's start. Changes since: a primitive keyword
in type arguments must be followed by ``[]``, as in the shipped type scanner
and in javac; a class literal's type is named by the canonical text of the
expression before ``.class``; and the nodes lost the fields the shipped
parser no longer fills (a method's visibility, static and synchronized
flags, which its modifiers give, and a file's path and text).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from threadlint.errors import ParseError
from threadlint.frontend import ast as A
from threadlint.frontend.lexer import PRIMITIVE_TYPES, LineTable, tokenize
from threadlint.frontend.parser import SourceFile

MODIFIER_KEYWORDS = frozenset(
    {"public", "private", "protected", "static", "final", "volatile",
     "synchronized", "transient", "abstract", "native", "strictfp"}
)
VISIBILITY_KEYWORDS = frozenset({"public", "private", "protected"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="})

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


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int
    line: int
    col: int


class _Unsupported(ParseError):
    """Raised for constructs outside the subset; never backtracked over."""

_UNSUPPORTED_STMT_KEYWORDS = {
    "switch": "switch statements are not supported",
    "do": "do/while loops are not supported",
    "break": "break statements are not supported",
    "continue": "continue statements are not supported",
    "assert": "assert statements are not supported",
    "case": "switch statements are not supported",
    "default": "switch statements are not supported",
}
# operators outside the subset that follow a complete operand, named where
# another token was expected
_UNSUPPORTED_OPERATORS = {
    "?": "conditional expressions are not supported",
    "instanceof": "instanceof expressions are not supported",
    "::": "method references are not supported",
}


class _Parser:
    def __init__(self, tokens: list[Token], src: SourceFile):
        # two spare eof tokens let peek(k) for k <= 2 index without clamping
        self.toks = tokens + [tokens[-1]] * 2
        self.src = src
        self.lines = LineTable(src.content)
        self.pos = 0
        self.depth = 0  # current nesting, see MAX_NESTING
        # simple-name -> qualified-name map built from exact imports
        self.import_map: dict[str, str] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def at_kind(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, text: str) -> Optional[Token]:
        if self.toks[self.pos].text == text:
            return self.advance()
        return None

    def expect(self, text: str, what: str = "") -> Token:
        t = self.peek()
        if t.text != text:
            found = repr(t.text) if t.kind != "eof" else "end of file"
            msg = f"expected {text!r}{' ' + what if what else ''}, found {found}"
            raise ParseError(t.line, t.col, _UNSUPPORTED_OPERATORS.get(t.text, msg))
        return self.advance()

    def expect_ident(self, what: str = "name") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(t.line, t.col, f"expected {what}, found {t.text!r}" if t.kind != "eof" else f"expected {what}, found end of file")
        return self.advance()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(t.line, t.col, msg)

    def nest(self) -> None:
        """Enter one more nesting level; the caller restores ``self.depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.peek()
            raise _Unsupported(t.line, t.col, f"nesting deeper than {MAX_NESTING} levels is not supported")

    def span_from(self, start_tok: Token, end_tok: Optional[Token] = None) -> A.SourceSpan:
        if end_tok is None:
            end_tok = self.toks[self.pos - 1 if self.pos else 0]
        return A.SourceSpan(self.src.path, start_tok.start, end_tok.end, self.lines)

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
            if not (wildcard or is_static):
                self.import_map.setdefault(imp.simple_name, name)
        classes: list[A.ClassDecl] = []
        while not self.at_kind("eof"):
            classes.append(self.parse_class_decl())
        ast = A.Ast(package, imports, classes)
        prefix = package + "." if package else ""
        for c in classes:
            _qualify(c, prefix)
        return ast

    def parse_qualified_name(self) -> str:
        parts = [self.expect_ident("identifier").text]
        while self.peek().text == "." and self.peek(1).kind == "ident":
            self.advance()
            parts.append(self.advance().text)
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
        mods = []
        while self.peek().kind == "keyword" and self.peek().text in MODIFIER_KEYWORDS:
            tok = self.advance()
            if tok.text in mods:
                raise ParseError(tok.line, tok.col, f"repeated modifier {tok.text!r}")
            mods.append(tok.text)
        vis = [m for m in mods if m in VISIBILITY_KEYWORDS]
        if len(vis) > 1:
            t = self.toks[self.pos - 1]
            raise ParseError(t.line, t.col, f"conflicting visibility modifiers {vis[0]!r} and {vis[1]!r}")
        if "volatile" in mods and "final" in mods:
            t = self.toks[self.pos - 1]
            raise ParseError(t.line, t.col, "a field cannot be both volatile and final")
        return frozenset(mods)

    # -- types ----------------------------------------------------------------

    def parse_type(self, allow_void: bool = False) -> str:
        """Parse a type reference; returns its normalized (whitespace-free) text."""
        t = self.peek()
        if t.kind == "keyword" and t.text in PRIMITIVE_TYPES:
            if t.text == "void" and not allow_void:
                raise self.error("'void' is only valid as a return type")
            self.advance()
            text = t.text
        elif t.kind == "ident":
            text = self.parse_qualified_name()
        else:
            raise self.error(f"expected a type, found {t.text!r}")
        if self.at("<"):
            text += self._parse_type_args()
        while self.peek().text == "[" and self.peek(1).text == "]":
            self.advance()
            self.advance()
            text += "[]"
        return text

    def _parse_type_args(self) -> str:
        """Opaque balanced ``<...>`` text; raises when the contents are not
        type-like. A primitive keyword other than ``void`` is type-like only
        before ``[]``: javac rejects ``List<int>``, not ``List<int[]>``."""
        self.expect("<")
        parts = ["<"]
        depth = 1
        while depth:
            t = self.peek()
            if t.kind in ("ident",):
                parts.append(self.advance().text)
            elif t.text in ("extends", "super"):
                self.advance()
                parts.append(t.text + " ")
            elif (t.kind == "keyword" and t.text in PRIMITIVE_TYPES and t.text != "void"
                  and self.peek(1).text == "[" and self.peek(2).text == "]"):
                self.advance()
                parts.append(t.text)
            elif t.text in (",", ".", "?"):
                self.advance()
                parts.append(t.text)
            elif t.text == "[" and self.peek(1).text == "]":
                self.advance()
                self.advance()
                parts.append("[]")
            elif t.text == "<":
                self.advance()
                depth += 1
                parts.append("<")
            elif t.text in (">", ">>", ">>>"):
                closers = len(t.text)
                if closers > depth:
                    raise self.error("unbalanced '>' in type arguments")
                self.advance()
                depth -= closers
                parts.append(">" * closers)
            else:
                raise self.error(f"unexpected {t.text!r} in type arguments")
        return "".join(parts)

    def resolve_type(self, type_text: str) -> str:
        """Qualify a type via the file's single-type imports. A name that only
        a wildcard import may cover stays as written: which package declares
        it is not known, so it is not guessed."""
        base = type_text.split("<", 1)[0].rstrip("[]")
        suffix = type_text[len(base):]
        if "." in base or base in PRIMITIVE_TYPES:
            return type_text
        if base in self.import_map:
            return self.import_map[base] + suffix
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
        if self.at("<"):
            self._parse_type_args()
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
            if self.at_kind("eof"):
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
        start = self.peek()
        mods = self.parse_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            nested.append(self._finish_class(anns, mods, first))
            return
        if self.at("{"):
            raise self.error("initializer blocks are not supported")
        if self.peek().text == class_name and self.peek(1).text == "(":
            name_tok = self.advance()
            ctors.append(self.parse_callable(name_tok, None, mods, anns, first, is_constructor=True))
            return
        rtype = self.parse_type(allow_void=True)
        name_tok = self.expect_ident("member name")
        if self.at("("):
            methods.append(self.parse_callable(name_tok, rtype, mods, anns, first))
            return
        # field declaration, possibly with several declarators
        while True:
            init = None
            eq = self.accept("=")
            if eq:
                init = self.parse_expression()
            end = self.toks[self.pos - 1]
            fields.append(
                A.FieldDecl(
                    span=A.SourceSpan(self.src.path, first.start, end.end, self.lines),
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
            last = fields[-1]
            last.span = A.SourceSpan(last.span.file, last.span.start, semi.end, self.lines)
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
        stmts = []
        while not self.at("}"):
            if self.at_kind("eof"):
                raise ParseError(open_tok.line, open_tok.col, "unclosed block")
            stmts.append(self.parse_statement())
        close = self.expect("}")
        return A.Block(self.span_from(open_tok, close), stmts)

    def parse_statement(self) -> A.Stmt:
        depth = self.depth
        self.nest()
        stmt = self._parse_statement()
        self.depth = depth
        return stmt

    def _parse_statement(self) -> A.Stmt:
        t = self.peek()
        if t.text in _UNSUPPORTED_STMT_KEYWORDS:
            raise ParseError(t.line, t.col, _UNSUPPORTED_STMT_KEYWORDS[t.text])
        if t.text == "{":
            return self.parse_block()
        if t.text == ";":
            self.advance()
            return A.Empty(self.span_from(t))
        if t.text == "if":
            return self._parse_if()
        if t.text == "while":
            return self._parse_while()
        if t.text == "for":
            return self._parse_for()
        if t.text == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expression()
            self.expect(";", "after return")
            return A.Return(self.span_from(t), value)
        if t.text == "throw":
            self.advance()
            value = self.parse_expression()
            self.expect(";", "after throw")
            return A.Throw(self.span_from(t), value)
        if t.text == "synchronized":
            self.advance()
            self.expect("(", "after synchronized")
            monitor = self.parse_expression()
            self.expect(")")
            body = self.parse_block()
            return A.Sync(self.span_from(t), monitor, body)
        if t.text == "try":
            return self._parse_try()
        if t.kind == "ident" and self.peek(1).text == ":":
            raise _Unsupported(t.line, t.col, "labeled statements are not supported")
        decl = self._try_parse_local_decl()
        if decl is not None:
            return decl
        expr = self.parse_expression()
        self.expect(";", "after expression statement")
        return A.ExprStmt(self.span_from(t), expr)

    def _parse_if(self) -> A.If:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        els = None
        if self.accept("else"):
            els = self.parse_statement()
        return A.If(self.span_from(start), cond, then, els)

    def _parse_while(self) -> A.While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return A.While(self.span_from(start), cond, body)

    def _parse_for(self) -> A.Stmt:
        start = self.expect("for")
        self.expect("(")
        # for-each: for ([final] Type name : expr)
        snap, depth = self.pos, self.depth
        try:
            is_final = self.accept("final") is not None
            type_text = self.parse_type()
            var_tok = self.expect_ident()
            if self.accept(":"):
                iterable = self.parse_expression()
                self.expect(")")
                body = self.parse_statement()
                return A.ForEach(self.span_from(start), type_text, var_tok.text, iterable, body, is_final)
        except _Unsupported:
            raise
        except ParseError:
            pass
        self.pos, self.depth = snap, depth
        init: Optional[A.Stmt] = None
        if not self.at(";"):
            init = self._try_parse_local_decl(in_for_header=True)
            if init is None:
                e_start = self.peek()
                exprs = [self.parse_expression()]
                while self.accept(","):
                    exprs.append(self.parse_expression())
                init = A.Block(self.span_from(e_start), [A.ExprStmt(x.span, x) for x in exprs])
                self.expect(";", "in for header")
        else:
            self.advance()
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

    def _try_parse_local_decl(self, in_for_header: bool = False) -> Optional[A.LocalDecl]:
        snap, depth = self.pos, self.depth
        start = self.peek()
        try:
            is_final = self.accept("final") is not None
            type_text = self.parse_type()
            if not self.at_kind("ident"):
                self.pos = snap
                return None
            declarators = []
            while True:
                name_tok = self.expect_ident()
                init = None
                if self.accept("="):
                    init = self.parse_expression()
                end = self.toks[self.pos - 1]
                declarators.append(
                    A.Declarator(
                        name_tok.text, init,
                        A.SourceSpan(self.src.path, name_tok.start, end.end, self.lines),
                    )
                )
                if not self.accept(","):
                    break
            if not in_for_header:
                self.expect(";", "after local declaration")
            else:
                self.expect(";", "in for header")
            return A.LocalDecl(self.span_from(start), type_text, declarators, is_final)
        except _Unsupported:
            raise
        except ParseError:
            self.pos, self.depth = snap, depth
            return None

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        """An expression; an assignment's value is parsed as a nested expression."""
        depth = self.depth
        self.nest()
        start = self.peek()
        expr = self._parse_binary(0)
        t = self.peek()
        if t.text in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.FieldSel, A.Index)):
                raise ParseError(t.line, t.col, "invalid assignment target")
            self.advance()
            value = self.parse_expression()
            expr = A.Assign(self.span_from(start), expr, t.text, value)
        self.depth = depth
        return expr

    def _parse_binary(self, min_level: int) -> A.Expr:
        """Precedence climbing over operators of ``min_level`` and tighter."""
        depth = self.depth
        start = self.peek()
        left = self._parse_unary()
        while True:
            level = _BINARY_LEVEL.get(self.peek().text)
            if level is None or level < min_level:
                break
            self.nest()
            op = self.advance().text
            right = self._parse_binary(level + 1)
            left = A.Binary(self.span_from(start), op, left, right)
        self.depth = depth
        return left

    def _parse_unary(self) -> A.Expr:
        t = self.peek()
        if t.text in ("+", "-", "!", "~", "++", "--"):
            self.advance()
            depth = self.depth
            self.nest()
            operand = self._parse_unary()
            self.depth = depth
            return A.Unary(self.span_from(t), t.text, operand, prefix=True)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        depth = self.depth
        start = self.peek()
        expr = self._parse_primary()
        while True:
            t = self.peek()
            if t.text in (".", "[", "++", "--"):
                self.nest()
            if t.text == ".":
                nxt = self.peek(1)
                if nxt.text == "class":
                    self.advance()
                    self.advance()
                    expr = A.ClassLit(self.span_from(start), A.canonical_text(expr))
                    continue
                if nxt.text == "<":
                    raise ParseError(nxt.line, nxt.col, "explicit type arguments are not supported")
                if nxt.kind != "ident":
                    raise ParseError(nxt.line, nxt.col, f"expected member name after '.', found {nxt.text!r}")
                self.advance()
                name_tok = self.advance()
                if self.at("("):
                    args = self._parse_args()
                    expr = A.Call(self.span_from(start), expr, name_tok.text, args)
                else:
                    expr = A.FieldSel(self.span_from(start), expr, name_tok.text)
                continue
            if t.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = A.Index(self.span_from(start), expr, index)
                continue
            if t.text in ("++", "--"):
                self.advance()
                expr = A.Unary(self.span_from(start), t.text, expr, prefix=False)
                continue
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

    def _parse_primary(self) -> A.Expr:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            is_hex = t.text[:2].lower() == "0x"
            if t.text[-1] in "lL":
                kind = "long"
            elif not is_hex and t.text[-1] in "fF":
                kind = "float"
            elif not is_hex and (t.text[-1] in "dD" or "." in t.text or "e" in t.text or "E" in t.text):
                kind = "double"
            else:
                kind = "int"
            return A.Literal(self.span_from(t), kind, t.text)
        if t.kind == "string":
            self.advance()
            return A.Literal(self.span_from(t), "string", t.text)
        if t.kind == "char":
            self.advance()
            return A.Literal(self.span_from(t), "char", t.text)
        if t.text in ("true", "false"):
            self.advance()
            return A.Literal(self.span_from(t), "boolean", t.text)
        if t.text == "null":
            self.advance()
            return A.Literal(self.span_from(t), "null", t.text)
        if t.text == "this":
            self.advance()
            return A.This(self.span_from(t))
        if t.text == "(":
            if self.peek(1).text == ")" and self.peek(2).text == "->":
                raise _Unsupported(t.line, t.col, "lambdas are not supported")
            self.advance()
            first = self.peek()
            snap = self.pos
            try:
                inner = self.parse_expression()
                self.expect(")")
            except ParseError:
                if self._generic_cast_at(snap):
                    raise ParseError(first.line, first.col, "cast expressions are not supported") from None
                raise
            if self.at("->"):
                raise _Unsupported(t.line, t.col, "lambdas are not supported")
            nxt = self.peek()
            named = inner
            while isinstance(named, A.FieldSel):
                named = named.qualifier
            if isinstance(named, A.Name) and (nxt.kind in ("ident", "number", "string", "char")
                                              or nxt.text in ("(", "this", "new", "true", "false", "null")):
                raise ParseError(first.line, first.col, "cast expressions are not supported")
            return A.Paren(self.span_from(t), inner)
        if t.text == "new":
            return self._parse_new(t)
        if t.text == "->" or t.text == "::":
            raise _Unsupported(t.line, t.col, "lambdas and method references are not supported")
        if t.kind == "ident":
            self.advance()
            if self.at("("):
                args = self._parse_args()
                return A.Call(self.span_from(t), None, t.text, args)
            return A.Name(self.span_from(t), t.text)
        if t.kind == "keyword" and t.text in PRIMITIVE_TYPES:
            k = 1
            while self.peek(k).text == "[" and self.peek(k + 1).text == "]":
                k += 2
            if self.peek(k).text == "." and self.peek(k + 1).text == "class":
                raise ParseError(t.line, t.col, "primitive class literals are not supported")
            if self.toks[self.pos - 1].text == "(" and self.peek(1).text in (")", "["):
                raise ParseError(t.line, t.col, "cast expressions are not supported")
            raise ParseError(t.line, t.col, f"unexpected type keyword {t.text!r} in expression")
        raise ParseError(t.line, t.col, f"unexpected token {t.text!r} in expression" if t.kind != "eof" else "unexpected end of file in expression")

    def _generic_cast_at(self, pos: int) -> bool:
        """Whether a type with type arguments starts at ``pos``, followed by
        ``)`` and a token that starts a cast's operand."""
        saved = self.pos, self.depth
        self.pos = pos
        try:
            generic = "<" in self.parse_type() and self.accept(")") is not None
            after = self.peek()
        except ParseError:
            return False
        finally:
            self.pos, self.depth = saved
        return generic and (after.kind in ("ident", "number", "string", "char")
                            or after.text in ("(", "this", "new", "true", "false", "null"))

    def _parse_new(self, start: Token) -> A.Expr:
        self.advance()
        base = self.peek()
        if base.kind == "keyword" and base.text in PRIMITIVE_TYPES and base.text != "void":
            self.advance()
            type_text = base.text
        else:
            type_text = self.parse_qualified_name()
        if self.at("<"):
            type_text += self._parse_type_args()
        if self.at("("):
            args = self._parse_args()
            if self.at("{"):
                raise self.error("anonymous classes are not supported")
            return A.New(self.span_from(start), type_text, args, None)
        if self.at("["):
            dims = []
            while self.at("[") and self.peek(1).text != "]":
                self.advance()
                dims.append(self.parse_expression())
                self.expect("]")
            empty = 0
            while self.at("[") and self.peek(1).text == "]":
                self.advance()
                self.advance()
                empty += 1
            if self.at("{"):
                raise self.error("array initializer expressions are not supported")
            if not dims:
                raise self.error("array dimension missing")
            return A.New(self.span_from(start), type_text, None, dims, empty)
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
    lines = LineTable(src.content)
    tokens = [Token(*t, *lines.line_col(t[2])) for t in tokenize(src.content, src.path)]
    parser = _Parser(tokens, src)
    return parser.parse_unit()


def parse_source(content: str, path: str = "<string>") -> A.Ast:
    return parse_compilation_unit(SourceFile(path, content))
