"""Analyzer configuration: defaults, config-file parsing, CLI merging.

Config files are line-oriented ``key = value[,value...]`` text; '#' starts a
comment. A key given in the file replaces the default list wholesale; the
``--*-add`` command-line flags extend instead. THREADLINT_CONFIG names a
default config file path.
"""

from __future__ import annotations

import os
import stat
from typing import Optional

from threadlint.alerts import ALL_RULES
from threadlint.classmodel import (
    DEFAULT_ALLOWLIST_PREFIXES,
    DEFAULT_MUTATOR_METHODS,
    ThreadSafeTypeAllowlist,
)
from threadlint.errors import ConfigError, IoError
from threadlint.frontend import DEFAULT_ANNOTATIONS
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_LOCK_TYPES,
    DEFAULT_UNLOCK_METHODS,
)

OUTPUT_FORMATS = ("text", "json", "sarif")

ENV_CONFIG_PATH = "THREADLINT_CONFIG"


# config-file keys naming a tuple field of Config (the file key is the field name)
_LIST_KEYS = (
    "annotations",
    "allowlist_prefixes",
    "allowlist_types",
    "lock_types",
    "lock_methods",
    "unlock_methods",
    "mutator_methods",
    "rules",
)


class Config:
    __slots__ = (*_LIST_KEYS, "output_format")

    def __init__(
        self,
        annotations: tuple[str, ...] = DEFAULT_ANNOTATIONS,
        allowlist_prefixes: tuple[str, ...] = DEFAULT_ALLOWLIST_PREFIXES,
        allowlist_types: tuple[str, ...] = (),
        lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
        lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
        unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
        mutator_methods: tuple[str, ...] = DEFAULT_MUTATOR_METHODS,
        rules: tuple[str, ...] = ALL_RULES,
        output_format: str = "text",
    ):
        if not rules:
            raise ConfigError("rules must be a nonempty subset of P1, P2, P3")
        for r in rules:
            if r not in ALL_RULES:
                raise ConfigError(f"unknown rule {r!r}; expected one of {', '.join(ALL_RULES)}")
        if output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"unknown output format {output_format!r}; expected one of {', '.join(OUTPUT_FORMATS)}"
            )
        self.annotations = annotations
        self.allowlist_prefixes = allowlist_prefixes
        self.allowlist_types = allowlist_types
        self.lock_types = lock_types
        self.lock_methods = lock_methods
        self.unlock_methods = unlock_methods
        self.mutator_methods = mutator_methods
        self.rules = rules
        self.output_format = output_format
        for key in _LIST_KEYS:
            for entry in getattr(self, key):
                if not entry or entry != entry.strip():
                    name = "allowlist" if key.startswith("allowlist") else key
                    raise ConfigError(f"{name} entry {entry!r} must be nonempty and trimmed")

    def allowlist(self) -> ThreadSafeTypeAllowlist:
        return ThreadSafeTypeAllowlist(self.allowlist_prefixes, self.allowlist_types)


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parse ``key = value[,value...]`` lines into Config field overrides."""
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        values = tuple(v.strip() for v in value.split(",") if v.strip())
        if key == "format":
            if len(values) != 1:
                raise ConfigError(f"{path}:{lineno}: format takes exactly one value")
            overrides["output_format"] = values[0]
        elif key in _LIST_KEYS:
            if not values:
                raise ConfigError(f"{path}:{lineno}: {key} needs at least one value")
            overrides[key] = values
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return overrides


def read_text(path: str, what: str = "") -> str:
    """The text of the regular file ``path``, as UTF-8: the one way threadlint opens a file a user
    names. Anything else (a FIFO, a directory, a device) is refused unread, so none can block a run."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            os.close(fd)
            raise IoError(f"cannot read{what}: not a regular file")
        with open(fd, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read{what}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise IoError(f"cannot read{what}: file is not valid UTF-8") from None


def build_config(
    file_path: Optional[str] = None,
    *,
    rules: Optional[tuple[str, ...]] = None,
    output_format: Optional[str] = None,
    allowlist_add: tuple[str, ...] = (),
    lock_type_add: tuple[str, ...] = (),
    annotation_add: tuple[str, ...] = (),
    mutator_add: tuple[str, ...] = (),
) -> Config:
    """Defaults, overridden by the config file, extended by CLI flags.

    ``--allowlist-add`` entries ending in '.' are package prefixes; the rest
    are exact type names.
    """
    what = f" config file {file_path}"
    overrides = {} if file_path is None else parse_config_text(read_text(file_path, what), file_path)
    cfg = Config(**overrides)  # the file's values are checked, also those a flag replaces
    flags: dict = {}
    if rules:
        flags["rules"] = tuple(dict.fromkeys(rules))
    if output_format:
        flags["output_format"] = output_format
    added = (
        ("annotations", annotation_add),
        ("lock_types", lock_type_add),
        ("mutator_methods", mutator_add),
        ("allowlist_prefixes", tuple(e for e in allowlist_add if e.endswith("."))),
        ("allowlist_types", tuple(e for e in allowlist_add if not e.endswith("."))),
    )
    for key, entries in added:
        if entries:
            flags[key] = getattr(cfg, key) + tuple(entries)
    return Config(**{**overrides, **flags}) if flags else cfg
