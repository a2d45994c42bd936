"""Alert model shared by the rule checkers and the report serializers."""

from __future__ import annotations

from typing import NamedTuple, Optional

from threadlint.frontend.ast import SourceSpan

RULE_NO_ESCAPING = "P1"
RULE_SAFE_PUBLICATION = "P2"
RULE_CORRECT_SYNCHRONIZATION = "P3"
ALL_RULES = (RULE_NO_ESCAPING, RULE_SAFE_PUBLICATION, RULE_CORRECT_SYNCHRONIZATION)

RULE_DESCRIPTIONS = {
    "P1": "class state must not escape: fields of a thread-safe class must be private",
    "P2": "fields must be safely published: default-initialized, final, or volatile",
    "P3": "conflicting field accesses must be guarded by a common monitor",
}


class Alert(NamedTuple):
    """One rule violation at a precise source location.

    P3 alerts carry the other conflicting access in ``secondary``.
    """

    rule: str
    primary: SourceSpan
    field: str
    message: str
    class_id: str
    secondary: Optional[SourceSpan] = None

    def sort_key(self):
        """File, then position, rule, the secondary's position and field;
        within one file, offset order is line:col order."""
        sec = self.secondary
        return (self.primary.file, self.primary.start, self.rule, sec.start if sec else -1, self.field)

    def text_line(self) -> str:
        loc = f"{self.primary.file}:{self.primary.start_line}:{self.primary.start_col}"
        return f"{loc} {self.rule} {self.field} {self.message}"
