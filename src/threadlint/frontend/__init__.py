"""Java-subset frontend: lexer, parser, AST, and source reconstruction."""

from threadlint.frontend.ast import (
    Annotation,
    Ast,
    ClassDecl,
    FieldDecl,
    MethodDecl,
    SourceSpan,
    annotated_as_thread_safe,
    reconstruct_span,
)
from threadlint.frontend.lexer import Token, annotation_pattern, tokenize
from threadlint.frontend.parser import SourceFile, parse_compilation_unit, parse_source
from threadlint.frontend.printer import canonical_text, to_source

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
    "annotated_as_thread_safe",
    "annotation_pattern",
    "canonical_text",
    "parse_compilation_unit",
    "parse_source",
    "reconstruct_span",
    "to_source",
    "tokenize",
]
