"""Exception types shared across the analyzer and the trace oracle."""

from __future__ import annotations


class ThreadlintError(Exception):
    """Base class for all threadlint errors."""


class ParseError(ThreadlintError):
    """Syntax outside the supported Java subset, or malformed input."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class MalformedExecution(ThreadlintError):
    """A trace violates per-thread program order or monitor mutual exclusion."""

    def __init__(self, message: str, action=None):
        super().__init__(message)
        self.action = action  # the action at fault, when there is one


class BudgetExceeded(ThreadlintError):
    """A program has more actions than the oracle's action budget, or a method more paths than its path cap."""


class UnsupportedForOracle(ThreadlintError):
    """Class shape the trace oracle cannot model (e.g. a call that may run more than one overload)."""


class ConfigError(ThreadlintError):
    """Malformed configuration file or invalid option value."""


class IoError(ThreadlintError):
    """Missing or unreadable input path."""
