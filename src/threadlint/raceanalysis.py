"""Conflicting access pairs and the P3 rule, plus per-class rule aggregation.

Two exposed accesses of the same field conflict when at least one modifies
the field; a pair may be one access against itself, since two threads can
execute the same statement. Alert granularity is per conflicting pair, so an
unprotected, frequently-accessed field yields many alerts.

:func:`conflicting_pairs` remains the definition of a conflict. The P3 check
does not enumerate it, though: most conflicting pairs share a monitor, so it
takes one field at a time, groups the field's accesses by their monitor set
and follows only the modifying accesses into groups whose sets are disjoint
from theirs; each unguarded pair then becomes an alert, modifying access
first. Its work grows with the alerts it reports, not with the pairs it
rules out.

Both read the exposed accesses the class model keeps (``ClassModel.exposed``).
:func:`analyze_class` builds one :class:`MonitorAnalysis`, whose monitors
are those held along every public call path, from one lockset transfer over
the call graph rather than from the access-path facts, and passes only that
to the P3 check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from threadlint.alerts import (
    ALL_RULES,
    Alert,
    RULE_CORRECT_SYNCHRONIZATION,
)
from threadlint.classmodel import (
    ClassModel,
    FieldAccess,
    check_no_escaping,
    check_safe_publication,
    is_modifying,
)
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_LOCK_TYPES,
    DEFAULT_UNLOCK_METHODS,
    MonitorAnalysis,
)

if TYPE_CHECKING:
    from threadlint.accesspaths import AccessPathFact


class ConflictPair:
    """Two exposed accesses of one field, the modifying one first (a may be b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: FieldAccess, b: FieldAccess):
        assert a.field is b.field
        assert is_modifying(a)
        self.a = a
        self.b = b


def _accesses_by_field(exposed: list[FieldAccess]) -> list[list[FieldAccess]]:
    """``exposed`` split by field, fields in order of their first access."""
    by_field: dict[int, list[FieldAccess]] = {}
    for a in exposed:
        by_field.setdefault(id(a.field), []).append(a)
    return list(by_field.values())


def conflicting_pairs(cm: ClassModel) -> list[ConflictPair]:
    """All conflicting pairs over ``cm.exposed``, deduplicated.

    (a, b) and (b, a) appear once, modifying access first; self-pairs (w, w)
    are included. Volatile fields never appear: their accesses are not exposed.
    """
    pairs: list[ConflictPair] = []
    for accesses in _accesses_by_field(cm.exposed):
        for i, x in enumerate(accesses):
            for y in accesses[i:]:
                if is_modifying(x):
                    pairs.append(ConflictPair(x, y))
                elif is_modifying(y):
                    pairs.append(ConflictPair(y, x))
    return pairs


def check_correct_synchronization(
    cm: ClassModel,
    facts: Optional[list[AccessPathFact]] = None,
    monitor_info: Optional[MonitorAnalysis] = None,
) -> list[Alert]:
    """P3: every conflicting pair must share at least one protecting monitor.

    Reports exactly the pairs of :func:`conflicting_pairs` whose monitor sets
    are disjoint, in that function's order before the final sort, without
    building the others. One pass per field that some access modifies asks
    each access's monitors once, groups the accesses by monitor set, and
    takes each pair from a modifying access to a group whose set is
    disjoint from its own; the alerts reuse those sets.
    ``monitor_info`` is built from ``facts`` when the caller has none.
    """
    if monitor_info is None:
        monitor_info = MonitorAnalysis(cm, facts)
    alerts = []
    for accesses in _accesses_by_field(cm.exposed):
        modifying = [is_modifying(a) for a in accesses]
        if not any(modifying):
            continue
        mons = [monitor_info.monitors(a) for a in accesses]
        groups: dict[frozenset, list[int]] = {}
        for j, m in enumerate(mons):
            groups.setdefault(m, []).append(j)
        # (i, j) of each unguarded pair, i <= j in the field's order; two
        # modifying accesses find each other, and the set keeps them once
        unguarded: set[tuple[int, int]] = set()
        for i, w in enumerate(modifying):
            if w:
                for m, members in groups.items():
                    if not mons[i] & m:
                        unguarded.update((min(i, j), max(i, j)) for j in members)
        for i, j in sorted(unguarded):
            if not modifying[i]:  # the modifying access first
                i, j = j, i
            a, b = accesses[i], accesses[j]
            notes = []
            for acc, m in ((a, mons[i]), (b, mons[j])):
                if not m and not monitor_info.has_public_path(acc):
                    notes.append(f"no public access path to the {acc.kind.value} at line {acc.line}")
            if notes:
                detail = "; ".join(dict.fromkeys(notes))
            else:
                detail = "no common monitor guards both accesses"
            message = (
                f"conflicting accesses to field '{a.field.name}' "
                f"({a.kind.value} at line {a.line}, {b.kind.value} at line {b.line}): {detail}"
            )
            alerts.append(
                Alert(
                    rule=RULE_CORRECT_SYNCHRONIZATION,
                    primary=a.span,
                    secondary=b.span,
                    field=a.field.name,
                    message=message,
                    class_id=cm.class_id,
                )
            )
    alerts.sort(key=Alert.sort_key)
    return alerts


def analyze_class(
    cm: ClassModel,
    rules: tuple[str, ...] = ALL_RULES,
    lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
    lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
    unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
) -> list[Alert]:
    """P1 + P2 + P3 for one class, stably sorted by location.

    Classes without the thread-safe annotation produce no alerts.
    """
    if not cm.annotated:
        return []
    alerts: list[Alert] = []
    if "P1" in rules:
        alerts.extend(check_no_escaping(cm))
    if "P2" in rules:
        alerts.extend(check_safe_publication(cm))
    if "P3" in rules:
        info = MonitorAnalysis(
            cm,
            lock_types=lock_types,
            lock_methods=lock_methods,
            unlock_methods=unlock_methods,
        )
        alerts.extend(check_correct_synchronization(cm, monitor_info=info))
    alerts.sort(key=Alert.sort_key)
    return alerts
