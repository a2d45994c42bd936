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
token columns directly instead of going through the token helpers. A token
is its index into the lexer's ``Tokens`` columns, read as ``texts[i]``,
``kinds[i]``, ``starts[i]`` and ``ends[i]``; no token object is built. A
span holds the offsets of its first and last tokens and the file's
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

from typing import Optional

from threadlint.errors import ParseError
from threadlint.frontend import ast as A
from threadlint.frontend.lexer import PRIMITIVE_TYPES, LineTable, Tokens, tokenize
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


class SourceFile:
    """One UTF-8 Java source file."""

    __slots__ = ("path", "content")

    def __init__(self, path: str, content: str):
        if not path:
            raise ValueError("SourceFile.path must be nonempty")
        self.path = path
        self.content = content


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
    def __init__(self, tokens: Tokens, src: SourceFile):
        # two spare eof tokens let a lookahead index pos + 2 without clamping
        n = tokens.ends[-1]
        self.kinds = tokens.kinds + ["eof", "eof"]
        self.texts = tokens.texts + ["", ""]
        self.starts = tokens.starts + [n, n]
        self.ends = tokens.ends + [n, n]
        self.src = src
        self.path = src.path
        self.lines = LineTable(src.content)
        self.pos = 0
        self.depth = 0  # current nesting, see MAX_NESTING
        self.finally_depth = 0  # finally blocks around the current token, see MAX_FINALLY_NESTING
        # simple-name -> qualified-name map built from exact imports
        self.import_map: dict[str, str] = {}

    # -- token plumbing ------------------------------------------------------
    # A token is an index into the columns; the helpers return the index of
    # the token they consume.

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def advance(self) -> int:
        t = self.pos
        if self.kinds[t] != "eof":
            self.pos = t + 1
        return t

    # accept and expect take nonempty texts, so the token they consume is never eof

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, what: str = "") -> int:
        t = self.pos
        found = self.texts[t]
        if found != text:
            shown = repr(found) if self.kinds[t] != "eof" else "end of file"
            msg = f"expected {text!r}{' ' + what if what else ''}, found {shown}"
            raise self.error(_UNSUPPORTED_OPERATORS.get(found, msg))
        self.pos = t + 1
        return t

    def expect_ident(self, what: str = "name") -> int:
        t = self.pos
        kind = self.kinds[t]
        if kind != "ident":
            raise self.error(f"expected {what}, found {self.texts[t]!r}" if kind != "eof" else f"expected {what}, found end of file")
        self.pos = t + 1
        return t

    def error(self, msg: str, t: Optional[int] = None) -> ParseError:
        """A ParseError at token ``t``, by default the current one."""
        return ParseError(*self.lines.line_col(self.starts[self.pos if t is None else t]), msg)

    def nest(self) -> None:
        """Enter one more nesting level; the caller restores ``self.depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(_TOO_DEEP)

    def span_from(self, start_tok: int, end_tok: Optional[int] = None) -> A.SourceSpan:
        if end_tok is None:
            end_tok = self.pos - 1 if self.pos else 0
        return _new(_SourceSpan, (self.path, self.starts[start_tok], self.ends[end_tok], self.lines))

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
            is_static = self.accept("static")
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
        while self.kinds[self.pos] != "eof":
            classes.append(self.parse_class_decl())
        ast = A.Ast(self.src.path, self.src.content, package, imports, classes)
        prefix = package + "." if package else ""
        for c in classes:
            _qualify(c, prefix)
        return ast

    def parse_qualified_name(self) -> str:
        kinds, texts = self.kinds, self.texts
        parts = [texts[self.expect_ident("identifier")]]
        while texts[self.pos] == "." and kinds[self.pos + 1] == "ident":
            parts.append(texts[self.pos + 1])
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
                    if self.kinds[t] == "eof":
                        raise self.error("unclosed annotation argument list", open_tok)
                    if self.texts[t] == "(":
                        depth += 1
                    elif self.texts[t] == ")":
                        depth -= 1
                args_src = self.src.content[self.starts[open_tok] : self.ends[self.pos - 1]]
            anns.append(A.Annotation(name, args_src, self.span_from(start)))
        return anns

    def parse_modifiers(self) -> frozenset[str]:
        kinds, texts = self.kinds, self.texts
        mods = []
        while kinds[self.pos] == "keyword" and texts[self.pos] in MODIFIER_KEYWORDS:
            tok = self.advance()
            if texts[tok] in mods:
                raise self.error(f"repeated modifier {texts[tok]!r}", tok)
            mods.append(texts[tok])
        vis = [m for m in mods if m in VISIBILITY_KEYWORDS]
        if len(vis) > 1:
            raise self.error(f"conflicting visibility modifiers {vis[0]!r} and {vis[1]!r}", self.pos - 1)
        if "volatile" in mods and "final" in mods:
            raise self.error("a field cannot be both volatile and final", self.pos - 1)
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
        kinds, texts = self.kinds, self.texts
        kind = kinds[i]
        if kind == "ident":
            i += 1
            while texts[i] == "." and kinds[i + 1] == "ident":
                i += 2
            if texts[i] == "<":
                i, ok = self._scan_type_args(i)
                if not ok:
                    return i, False
        elif texts[i] == "void":
            return (i + 1, True) if void else (i, False)
        elif kind == "keyword" and texts[i] in PRIMITIVE_TYPES:
            i += 1
        else:
            return i, False
        if dims:
            while texts[i] == "[" and texts[i + 1] == "]":
                i += 2
        return i, True

    def _scan_type_args(self, i: int) -> tuple[int, bool]:
        """Scan balanced ``<...>`` from the ``<`` at token ``i``; the contents
        are names, ``extends``, ``super``, ``, . ?``, ``[]`` and primitive
        keywords other than ``void`` that ``[]`` follows (javac rejects
        ``List<int>``, not ``List<int[]>``). Returns as ``_scan_type`` does."""
        kinds, texts = self.kinds, self.texts
        i += 1
        depth = 1
        while depth:
            text = texts[i]
            if kinds[i] == "ident" or text in _TYPE_ARG_TOKENS:
                i += 1
            elif text == "[" and texts[i + 1] == "]":
                i += 2
            elif (text in PRIMITIVE_TYPES and text != "void"
                  and texts[i + 1] == "[" and texts[i + 2] == "]"):
                i += 3
            elif text == "<":
                i += 1
                depth += 1
            elif text in _CLOSERS and len(text) <= depth:
                i += 1
                depth -= len(text)
            else:
                return i, False
        return i, True

    def _take_type(self, end: int, ok: bool) -> str:
        """Move past the type scanned from here to ``end`` and return its
        normalized text, or raise the error at the token at fault."""
        if not ok:
            text = self.texts[end]
            if end == self.pos:
                if text == "void":
                    raise self.error("'void' is only valid as a return type", end)
                raise self.error(f"expected a type, found {text!r}", end)
            if text in _CLOSERS:
                raise self.error("unbalanced '>' in type arguments", end)
            raise self.error(f"unexpected {text!r} in type arguments", end)
        text = self._type_text(self.pos, end)
        self.pos = end
        return text

    def _type_text(self, i: int, end: int) -> str:
        """The whitespace-free text of the type in tokens ``i`` to ``end``;
        ``extends`` and ``super`` keep one space after them."""
        texts = self.texts
        if end == i + 1:
            return texts[i]
        return "".join([t + " " if t in ("extends", "super") else t for t in texts[i:end]])

    def parse_type(self, allow_void: bool = False) -> str:
        """Parse a type reference; returns its normalized (whitespace-free) text."""
        return self._take_type(*self._scan_type(self.pos, allow_void))

    def _at_local_decl(self) -> int:
        """The index of the name when the tokens ahead read ``[final] Type
        name``; otherwise -1 when they start with ``final``, as only a
        declaration can, and else 0. Moves nothing; the caller parses a
        declaration exactly when this is nonzero."""
        i = self.pos
        final = self.texts[i] == "final"
        end, ok = self._scan_type(i + final)
        if ok and self.kinds[end] == "ident":
            return end
        return -1 if final else 0

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
        first = self.pos
        anns = self.parse_annotations()
        mods = self.parse_modifiers()
        return self._finish_class(anns, mods, first)

    def _finish_class(self, anns, mods, first: int) -> A.ClassDecl:
        if self.at("interface") or self.at("enum"):
            raise self.error(f"{self.texts[self.pos]} declarations are not supported")
        depth = self.depth
        self.nest()
        self.expect("class")
        name = self.texts[self.expect_ident("class name")]
        if self.at("<"):  # type parameters
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
            if self.kinds[self.pos] == "eof":
                raise self.error(f"unclosed class body for {name!r}", first)
            self.parse_member(name, fields, methods, ctors, nested)
        close = self.expect("}")
        self.depth = depth
        return A.ClassDecl(
            span=self.span_from(first, close),
            name=name,
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
        texts = self.texts
        first = self.pos
        anns = self.parse_annotations()
        mods = self.parse_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            nested.append(self._finish_class(anns, mods, first))
            return
        if self.at("{"):
            raise self.error("initializer blocks are not supported")
        if texts[self.pos] == class_name and texts[self.pos + 1] == "(":
            name_tok = self.advance()
            ctors.append(self.parse_callable(name_tok, None, mods, anns, first, is_constructor=True))
            return
        type_tok = self.pos
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
                    name=texts[name_tok],
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
                p_start = self.pos
                p_final = self.accept("final")
                p_type = self.parse_type()
                p_name = self.texts[self.expect_ident("parameter name")]
                params.append(A.Param(p_type, p_name, self.span_from(p_start), p_final))
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
            name=self.texts[name_tok],
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
        kinds, texts = self.kinds, self.texts
        stmts = []
        while texts[self.pos] != "}":
            if kinds[self.pos] == "eof":
                raise self.error("unclosed block", open_tok)
            stmts.append(self.parse_statement())
        close = self.pos
        self.pos = close + 1
        return A.Block(self.span_from(open_tok, close), stmts)

    def parse_statement(self) -> A.Stmt:
        """One statement, dispatched on its first token; see the module docstring."""
        texts = self.texts
        t = self.pos
        depth = self.depth
        if depth >= MAX_NESTING:
            raise self.error(_TOO_DEEP, t)
        self.depth = depth + 1
        text = texts[t]
        if text not in _STATEMENT_HEADS:
            if self.kinds[t] == "ident" and texts[t + 1] == ":":
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
            self.pos = t + 1
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then = self.parse_statement()
            els = None
            if self.accept("else"):
                els = self.parse_statement()
            stmt = A.If(self.span_from(t), cond, then, els)
        elif text == "return":
            self.pos = t + 1
            value = None if texts[t + 1] == ";" else self.parse_expression()
            self.expect(";", "after return")
            stmt = A.Return(self.span_from(t), value)
        elif text == "synchronized":
            self.pos = t + 1
            self.expect("(", "after synchronized")
            monitor = self.parse_expression()
            self.expect(")")
            body = self.parse_block()
            stmt = A.Sync(self.span_from(t), monitor, body)
        elif text == "for":
            stmt = self._parse_for()
        elif text == "while":
            self.pos = t + 1
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            stmt = A.While(self.span_from(t), cond, body)
        elif text == "try":
            stmt = self._parse_try()
        elif text == "throw":
            self.pos = t + 1
            value = self.parse_expression()
            self.expect(";", "after throw")
            stmt = A.Throw(self.span_from(t), value)
        elif text == ";":
            self.pos = t + 1
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
            e_start = self.pos
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
            c_var = self.texts[self.expect_ident("exception variable")]
            self.expect(")")
            c_body = self.parse_block()
            catches.append(A.Catch(c_type, c_var, c_body, self.span_from(c_start)))
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

    def _parse_local_decl(self, name: int, for_start: Optional[int] = None) -> A.Stmt:
        """The local declaration whose first name ``_at_local_decl`` found at
        token ``name``. In the header of the for loop that starts at
        ``for_start``, a ``:`` after the name makes the whole loop a for-each,
        which is returned instead."""
        texts = self.texts
        start = self.pos
        is_final = texts[start] == "final"
        if name < 0:  # no ``Type name`` after ``final``: raise at the token at fault
            self.pos += 1
            self.parse_type()
            self.expect_ident()
        type_text = self._type_text(start + is_final, name)
        if for_start is not None and texts[name + 1] == ":":
            self.pos = name + 2
            iterable = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return A.ForEach(self.span_from(for_start), type_text, texts[name], iterable, body, is_final)
        self.pos = name
        declarators = []
        while True:
            name_tok = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expression()
            declarators.append(A.Declarator(texts[name_tok], init, self.span_from(name_tok)))
            if not self.accept(","):
                break
        self.expect(";", "after local declaration" if for_start is None else "in for header")
        return A.LocalDecl(self.span_from(start), type_text, declarators, is_final)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        """An expression; an assignment's value is parsed as a nested expression."""
        texts = self.texts
        start = self.pos
        depth = self.depth
        if depth >= MAX_NESTING:
            raise self.error(_TOO_DEEP, start)
        self.depth = depth + 1
        expr = self._parse_operand()
        op = texts[self.pos]
        if op in _BINARY_LEVEL:
            expr = self._parse_binary(0, expr, start)
            op = texts[self.pos]
        if op in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.FieldSel, A.Index)):
                raise self.error("invalid assignment target")
            self.pos += 1
            value = self.parse_expression()
            expr = A.Assign(self.span_from(start), expr, op, value)
        self.depth = depth
        return expr

    def _parse_binary(self, min_level: int, left: A.Expr, start: int) -> A.Expr:
        """Precedence climbing: extend ``left``, which begins at token
        ``start``, over operators of ``min_level`` and tighter."""
        texts = self.texts
        depth = self.depth
        while True:
            t = self.pos
            op = texts[t]
            level = _BINARY_LEVEL.get(op)
            if level is None or level < min_level:
                break
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(_TOO_DEEP, t)
            self.pos = r_start = t + 1
            right = self._parse_operand()
            tighter = _BINARY_LEVEL.get(texts[self.pos])
            if tighter is not None and tighter > level:
                right = self._parse_binary(level + 1, right, r_start)
            left = A.Binary(self.span_from(start), op, left, right)
        self.depth = depth
        return left

    def _parse_operand(self) -> A.Expr:
        """One operand: its prefix operators, a primary and the primary's
        selectors (``.name``, ``.m(...)``, ``.class``, ``[i]``, postfix
        ``++``/``--``). Each prefix operator and each selector nests one level
        further than what it wraps."""
        kinds, texts = self.kinds, self.texts
        depth = self.depth
        t = self.pos
        text = texts[t]
        prefix = None
        if text in _PREFIX_OPS:
            prefix = []
            while text in _PREFIX_OPS:
                prefix.append(t)
                t += 1
                self.pos = t
                text = texts[t]
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise self.error(_TOO_DEEP, t)
        kind = kinds[t]
        if kind == "ident":
            self.pos = t + 1
            if texts[t + 1] == "(":
                args = self._parse_args()
                expr = A.Call(self.span_from(t), None, text, args)
            else:
                expr = A.Name(_new(_SourceSpan, (self.path, self.starts[t], self.ends[t], self.lines)), text)
        elif kind == "number":
            self.pos = t + 1
            expr = A.Literal(self.span_from(t, t), _number_kind(text), text)
        elif kind == "string" or kind == "char":
            self.pos = t + 1
            expr = A.Literal(self.span_from(t, t), kind, text)
        elif text == "this":
            self.pos = t + 1
            expr = A.This(self.span_from(t, t))
        elif text == "(":
            if texts[t + 1] == ")" and texts[t + 2] == "->":
                raise self.error("lambdas are not supported", t)
            first = self.pos = t + 1
            try:
                inner = self.parse_expression()
                self.expect(")")
            except ParseError:
                if self._is_generic_cast(first):
                    raise self.error("cast expressions are not supported", first) from None
                raise
            nxt = self.pos
            if texts[nxt] == "->":
                raise self.error("lambdas are not supported", t)
            if _is_name(inner) and (kinds[nxt] in _CAST_OPERAND_KINDS or texts[nxt] in _CAST_OPERAND_WORDS):
                raise self.error("cast expressions are not supported", first)
            expr = A.Paren(self.span_from(t), inner)
        elif text == "true" or text == "false":
            self.pos = t + 1
            expr = A.Literal(self.span_from(t, t), "boolean", text)
        elif text == "null":
            self.pos = t + 1
            expr = A.Literal(self.span_from(t, t), "null", text)
        elif text == "new":
            expr = self._parse_new(t)
        elif text == "->" or text == "::":
            raise self.error("lambdas and method references are not supported", t)
        elif kind == "keyword" and text in PRIMITIVE_TYPES:
            raise self.error(self._primitive_in_expression(), t)
        else:
            raise self.error(f"unexpected token {text!r} in expression" if kind != "eof" else "unexpected end of file in expression", t)
        start = t
        while texts[self.pos] in _SELECTORS:
            t = self.pos
            text = texts[t]
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(_TOO_DEEP, t)
            if text == ".":
                nxt = t + 1
                name = texts[nxt]
                self.pos = t + 2
                if name == "class":
                    expr = A.ClassLit(self.span_from(start), to_source(expr))
                elif name == "<":
                    raise self.error("explicit type arguments are not supported", nxt)
                elif kinds[nxt] != "ident":
                    raise self.error(f"expected member name after '.', found {name!r}", nxt)
                elif texts[t + 2] == "(":
                    args = self._parse_args()
                    expr = A.Call(self.span_from(start), expr, name, args)
                else:
                    expr = A.FieldSel(self.span_from(start), expr, name)
            elif text == "[":
                self.pos = t + 1
                index = self.parse_expression()
                self.expect("]")
                expr = A.Index(self.span_from(start), expr, index)
            else:
                self.pos = t + 1
                expr = A.Unary(self.span_from(start), text, expr, False)
        if prefix:
            for op in reversed(prefix):
                expr = A.Unary(self.span_from(op), texts[op], expr, True)
        self.depth = depth
        return expr

    def _is_generic_cast(self, i: int) -> bool:
        """Whether token ``i``, just after a ``(``, starts a type with type
        arguments that ``)`` and a cast's operand follow, as in
        ``(List<String>) o``. Parsed as an expression, such a type fails as
        a comparison, so only the error path asks."""
        texts = self.texts
        end, ok = self._scan_type(i)
        if not ok or texts[end] != ")" or "<" not in texts[i:end]:
            return False
        return self.kinds[end + 1] in _CAST_OPERAND_KINDS or texts[end + 1] in _CAST_OPERAND_WORDS

    def _primitive_in_expression(self) -> str:
        """The error for the primitive type keyword at the current token,
        which starts no supported operand, as in the cast ``(long) a`` or
        the class literal ``int.class``."""
        texts, pos = self.texts, self.pos
        after = pos + 1
        while texts[after] == "[" and texts[after + 1] == "]":
            after += 2
        if texts[after] == "." and texts[after + 1] == "class":
            return "primitive class literals are not supported"
        if texts[pos - 1] == "(" and texts[pos + 1] in (")", "["):
            return "cast expressions are not supported"
        return f"unexpected type keyword {texts[pos]!r} in expression"

    def _parse_args(self) -> list[A.Expr]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expression())
            while self.accept(","):
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def _parse_new(self, start: int) -> A.Expr:
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
            # the sized dimensions, then the empty ones; a later ``[e]`` indexes
            texts = self.texts
            dims = []
            while texts[self.pos] == "[" and texts[self.pos + 1] != "]":
                self.pos += 1
                dims.append(self.parse_expression())
                self.expect("]")
            empty = 0
            while texts[self.pos] == "[" and texts[self.pos + 1] == "]":
                self.pos += 2
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
    return _Parser(tokenize(src.content, src.path), src).parse_unit()


def parse_source(content: str, path: str = "<string>") -> A.Ast:
    return parse_compilation_unit(SourceFile(path, content))
