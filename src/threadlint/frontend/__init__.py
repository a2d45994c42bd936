"""Java-subset frontend: lexer, parser and AST. The source printer,
``threadlint.frontend.printer``, is imported only by its own users."""

from threadlint.frontend.ast import (
    Annotation,
    Ast,
    ClassDecl,
    FieldDecl,
    MethodDecl,
    SourceSpan,
    annotated_as_thread_safe,
    canonical_text,
)
from threadlint.frontend.lexer import Token, Tokens, annotation_pattern, tokenize
from threadlint.frontend.parser import SourceFile, parse_compilation_unit, parse_source

DEFAULT_ANNOTATIONS = ("ThreadSafe",)

__all__ = [
    "Annotation",
    "Ast",
    "ClassDecl",
    "DEFAULT_ANNOTATIONS",
    "FieldDecl",
    "MethodDecl",
    "SourceFile",
    "SourceSpan",
    "Token",
    "Tokens",
    "annotated_as_thread_safe",
    "annotation_pattern",
    "canonical_text",
    "parse_compilation_unit",
    "parse_source",
    "tokenize",
]
