"""Reference P3 check: one monitor comparison per conflicting pair.

This is the loop over every pair of ``conflicting_pairs`` that
``threadlint.raceanalysis.check_correct_synchronization`` replaced with
pairing by monitor set. It is kept only as the reference for the parity
property in test_raceanalysis.py, so it stays as it was.
"""

from __future__ import annotations

from threadlint.alerts import RULE_CORRECT_SYNCHRONIZATION, Alert
from threadlint.classmodel import ClassModel
from threadlint.monitors import MonitorAnalysis
from threadlint.raceanalysis import conflicting_pairs


def check_correct_synchronization(cm: ClassModel, monitor_info: MonitorAnalysis) -> list[Alert]:
    """P3: every conflicting pair must share at least one protecting monitor."""
    alerts = []
    for pair in conflicting_pairs(cm):
        ma = monitor_info.monitors(pair.a)
        mb = monitor_info.monitors(pair.b)
        if ma & mb:
            continue
        notes = []
        for acc, mons in ((pair.a, ma), (pair.b, mb)):
            if not mons and not monitor_info.public_facts(acc):
                notes.append(f"no public access path to the {acc.kind.value} at line {acc.line}")
        if notes:
            detail = "; ".join(dict.fromkeys(notes))
        else:
            detail = "no common monitor guards both accesses"
        message = (
            f"conflicting accesses to field '{pair.a.field.name}' "
            f"({pair.a.kind.value} at line {pair.a.line}, {pair.b.kind.value} at line {pair.b.line}): {detail}"
        )
        alerts.append(
            Alert(
                rule=RULE_CORRECT_SYNCHRONIZATION,
                primary=pair.a.span,
                secondary=pair.b.span,
                field=pair.a.field.name,
                message=message,
                class_id=cm.class_id,
            )
        )
    alerts.sort(key=Alert.sort_key)
    return alerts
