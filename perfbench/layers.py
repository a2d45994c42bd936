"""The traced run: each layer timed from outside through its public functions.

``ENTRY_POINTS`` is the one table of the public names each layer is reached
by. A name that no longer resolves marks its layer absent; the untraced run
does not use this table and keeps working. The traced pipeline repeats, call
by call, what ``analyze_class`` and ``check_class`` do, and checks on every
class that it reproduces their alerts and verdict exactly; otherwise it would
be measuring a different program.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

from measure import Verdict

ENTRY_POINTS = {
    "frontend": {
        "tokenize": "threadlint.frontend:tokenize",
        "parse": "threadlint.frontend:parse_compilation_unit",
        "SourceFile": "threadlint.frontend:SourceFile",
        "annotated": "threadlint.frontend:annotated_as_thread_safe",
    },
    "classmodel": {
        "build": "threadlint.classmodel:build_class_model",
        "p1": "threadlint.classmodel:check_no_escaping",
        "p2": "threadlint.classmodel:check_safe_publication",
        "exposed": "threadlint.classmodel:exposed_accesses",
    },
    "accesspaths": {
        "fixpoint": "threadlint.accesspaths:provides_access",
    },
    "cfg": {
        "cfg_for": "threadlint.monitors:MonitorAnalysis.cfg_for",
    },
    "monitors": {
        "analysis": "threadlint.monitors:MonitorAnalysis",
        "windows_for": "threadlint.monitors:MonitorAnalysis.windows_for",
        "monitors": "threadlint.monitors:MonitorAnalysis.monitors",
        "public_facts": "threadlint.monitors:MonitorAnalysis.public_facts",
    },
    "raceanalysis": {
        "pairs": "threadlint.raceanalysis:conflicting_pairs",
        "p3": "threadlint.raceanalysis:check_correct_synchronization",
        "analyze_class": "threadlint.raceanalysis:analyze_class",
        "alert_order": "threadlint.alerts:Alert.sort_key",
    },
    "reporting": {
        "Report": "threadlint.reporting:Report",
        "OracleResult": "threadlint.reporting:OracleResult",
        "serialize": "threadlint.reporting:serialize_report",
    },
    "hboracle": {
        "lower": "threadlint.hboracle:two_thread_drivers",
        "explore": "threadlint.hboracle:program_races",
        "check_class": "threadlint.hboracle:check_class",
        "budget": "threadlint.hboracle:DEFAULT_ACTION_BUDGET",
        "BudgetExceeded": "threadlint.errors:BudgetExceeded",
        "Unsupported": "threadlint.errors:UnsupportedForOracle",
        "format_trace": "threadlint.hboracle:format_trace",
        "parse_trace": "threadlint.hboracle:parse_trace",
        "detect_races": "threadlint.hboracle:detect_races",
    },
}

LAYER_METRICS = {
    "frontend": (("tokenize_ms", "ms"), ("parse_ms", "ms"), ("tokens", "count"), ("tokens_per_s", "1/s")),
    "classmodel": (("build_ms", "ms"), ("p1p2_ms", "ms"), ("accesses", "count"), ("exposed", "count")),
    "accesspaths": (("fixpoint_ms", "ms"), ("facts", "count"), ("public_fact_ratio", "ratio")),
    "cfg": (("build_ms", "ms"), ("nodes", "count")),
    "monitors": (("windows_ms", "ms"), ("protect_ms", "ms"), ("windows", "count"), ("public_paths", "count")),
    "raceanalysis": (("p3_ms", "ms"), ("pairs", "count"), ("alerts", "count"), ("alert_ratio", "ratio")),
    "reporting": (("text_ms", "ms"), ("json_ms", "ms"), ("sarif_ms", "ms"), ("json_bytes", "bytes")),
    "hboracle": (
        ("lower_ms", "ms"), ("explore_ms", "ms"), ("drivers", "count"), ("executions", "count"),
        ("us_per_execution", "us"), ("budget_exceeded", "count"), ("unsupported", "count"),
        ("replay_ms", "ms"), ("replay_failures", "count"),
    ),
    "verdicts": (
        ("missed_races", "count"), ("false_alarms", "count"), ("rule_mismatches", "count"),
        ("error_files", "count"),
    ),
}

RUN_METRICS = (("trace_overhead_ratio", "ratio"),)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{name}": unit for layer, ms in LAYER_METRICS.items() for name, unit in ms}
    units.update(RUN_METRICS)
    return units


def _resolve(spec: str):
    module, _, attr = spec.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def resolve_entry_points() -> tuple[dict[str, dict], dict[str, list[str]]]:
    """(layer -> name -> object, layer -> names that did not resolve)."""
    found: dict[str, dict] = {}
    absent: dict[str, list[str]] = {}
    for layer, names in ENTRY_POINTS.items():
        found[layer] = {}
        for name, spec in names.items():
            try:
                found[layer][name] = _resolve(spec)
            except (ImportError, AttributeError):
                absent.setdefault(layer, []).append(spec)
    return found, absent


class _Clock:
    """Nanoseconds per span name, summed over a pass."""

    def __init__(self):
        self.ns: dict[str, int] = {}

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    __slots__ = ("clock", "name", "t0")

    def __init__(self, clock: _Clock, name: str):
        self.clock, self.name = clock, name

    def __enter__(self):
        self.t0 = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.clock.ns[self.name] = self.clock.ns.get(self.name, 0) + time.perf_counter_ns() - self.t0


@dataclass
class TracedPass:
    pass_ns: int
    ns: dict[str, int]
    counts: dict[str, int]
    verdicts: list[dict[str, Verdict] | None]
    mismatches: list[str]


class TracedLinter:
    """The layer-by-layer twin of ``cli.run`` / ``cli.oracle_check``."""

    def __init__(self, entry: dict[str, dict], config, oracle: bool):
        self.e = entry
        self.config = config
        self.oracle = oracle
        self.allowlist = config.allowlist()
        self.lock_kw = dict(
            lock_types=config.lock_types, lock_methods=config.lock_methods, unlock_methods=config.unlock_methods
        )

    def run_pass(self, paths: list[str]) -> TracedPass:
        clock = _Clock()
        counts: dict[str, int] = {}
        verdicts, mismatches = [], []
        selfcheck_ns = 0
        t0 = time.perf_counter_ns()
        for path in paths:
            v, check_ns = self._file(path, clock, counts, mismatches)
            verdicts.append(v)
            selfcheck_ns += check_ns
        pass_ns = time.perf_counter_ns() - t0 - selfcheck_ns
        return TracedPass(pass_ns, clock.ns, counts, verdicts, mismatches)

    def _file(self, path, clock, counts, mismatches) -> tuple[dict[str, Verdict] | None, int]:
        fe, e = self.e["frontend"], self.e
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        try:
            with clock.span("frontend.tokenize"):
                tokens = fe["tokenize"](content, path)
            with clock.span("frontend.parse"):
                ast = fe["parse"](fe["SourceFile"](path, content))
        except Exception:  # scored as an error file, as the untraced run scores exit code 2
            return None, 0
        _add(counts, "frontend.tokens", len(tokens))
        report = e["reporting"]["Report"]()
        report.stats.files_parsed = 1
        report.stats.classes_analyzed = sum(1 for _ in ast.iter_classes())
        verdicts: dict[str, Verdict] = {}
        selfcheck_ns = 0
        for decl in fe["annotated"](ast, self.config.annotations):
            report.stats.annotated_classes += 1
            class_id, alerts, oracle_verdict, check_ns = self._class(decl, path, clock, counts, mismatches)
            selfcheck_ns += check_ns
            report.alerts.extend(alerts)
            v = Verdict()
            for a in alerts:
                v.rules.setdefault(a.rule, set()).add(a.field)
            if oracle_verdict is not None:
                status, raced, _, _ = oracle_verdict
                v.oracle = (status, raced)
                agreement = "skipped" if status != "checked" else ("disagree" if raced and not alerts else "ok")
                report.oracle.append(
                    e["reporting"]["OracleResult"](class_id, path, len(alerts), status, raced, agreement))
            verdicts[class_id] = v
        report.finalize()
        serialize = e["reporting"]["serialize"]
        for fmt in ("text", "json", "sarif"):
            with clock.span(f"reporting.{fmt}"):
                data = serialize(report, fmt)
            if fmt == "json":
                _add(counts, "reporting.json_bytes", len(data))
        return verdicts, selfcheck_ns

    def _class(self, decl, path, clock, counts, mismatches):
        e, cfg = self.e, self.config
        cm_l, ap, mon, ra = e["classmodel"], e["accesspaths"], e["monitors"], e["raceanalysis"]
        with clock.span("classmodel.build"):
            cm = cm_l["build"](decl, allowlist=self.allowlist, annotation_names=cfg.annotations,
                               mutator_methods=cfg.mutator_methods)
        _add(counts, "classmodel.accesses", len(cm.field_accesses))
        alerts = []
        with clock.span("classmodel.p1p2"):
            if "P1" in cfg.rules:
                alerts.extend(cm_l["p1"](cm))
            if "P2" in cfg.rules:
                alerts.extend(cm_l["p2"](cm))
        if "P3" in cfg.rules:
            exposed = cm_l["exposed"](cm)
            _add(counts, "classmodel.exposed", len(exposed))
            with clock.span("accesspaths.fixpoint"):
                facts = ap["fixpoint"](cm)
            _add(counts, "accesspaths.facts", len(facts))
            _add(counts, "accesspaths.public_facts", sum(1 for f in facts if f.method.is_public))
            info = mon["analysis"](cm, facts, **self.lock_kw)
            with clock.span("cfg.build"):
                for m in cm.decl.methods:
                    cfg_, _ = e["cfg"]["cfg_for"](info, m)
                    _add(counts, "cfg.nodes", len(cfg_.nodes))
            with clock.span("monitors.windows"):
                for m in cm.decl.methods:
                    _add(counts, "monitors.windows", len(mon["windows_for"](info, m)))
            with clock.span("monitors.protect"):
                for a in exposed:
                    mon["monitors"](info, a)
            _add(counts, "monitors.public_paths", sum(len(mon["public_facts"](info, a)) for a in exposed))
            _add(counts, "raceanalysis.pairs", len(ra["pairs"](cm)))
            with clock.span("raceanalysis.p3"):
                p3 = ra["p3"](cm, facts, info)
            _add(counts, "raceanalysis.alerts", len(p3))
            alerts.extend(p3)
        alerts.sort(key=ra["alert_order"])

        t_check = time.perf_counter_ns()
        expected = ra["analyze_class"](cm, rules=cfg.rules, **self.lock_kw)
        selfcheck_ns = time.perf_counter_ns() - t_check
        if alerts != expected:
            mismatches.append(f"{path}: {cm.class_id}: layered alerts differ from analyze_class")
        if not self.oracle:
            return cm.class_id, alerts, None, selfcheck_ns

        verdict = self._oracle(cm, clock, counts)
        t_check = time.perf_counter_ns()
        want = e["hboracle"]["check_class"](cm, **self.lock_kw)
        selfcheck_ns += time.perf_counter_ns() - t_check
        want_witness = want.witness.witness if want.witness is not None else None
        if verdict != (want.status, want.raced, want.drivers_checked, want_witness):
            mismatches.append(f"{path}: {cm.class_id}: layered oracle verdict differs from check_class")
        return cm.class_id, alerts, verdict, selfcheck_ns

    def _oracle(self, cm, clock, counts):
        """(status, raced, drivers checked, witness execution), as check_class."""
        h = self.e["hboracle"]
        try:
            with clock.span("hboracle.lower"):
                drivers = h["lower"](cm, **self.lock_kw)
        except h["Unsupported"]:
            _add(counts, "hboracle.unsupported", 1)
            return ("unsupported", False, 0, None)
        checked, report, status = 0, None, "checked"
        try:
            with clock.span("hboracle.explore"):
                for d in drivers:
                    r = h["explore"](d, action_budget=h["budget"])
                    checked += 1
                    _add(counts, "hboracle.executions", r.executions)
                    if r.raced:
                        report = r
                        break
        except h["BudgetExceeded"]:
            _add(counts, "hboracle.budget_exceeded", 1)
            status = "budget-exceeded"
        _add(counts, "hboracle.drivers", checked)
        if report is None:
            return (status, False, checked, None)
        with clock.span("hboracle.replay"):
            try:
                replayed = h["detect_races"](h["parse_trace"](h["format_trace"](report.witness)))
            except Exception:  # a witness that does not replay is the failure counted
                replayed = set()
        _add(counts, "hboracle.replay_failures", 0 if replayed else 1)
        return (status, True, checked, report.witness)


def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def layer_metrics(p: TracedPass) -> dict[str, float]:
    """Per-layer values of one traced pass, times in ms."""
    ms = {k: v / 1e6 for k, v in p.ns.items()}
    c = p.counts
    out = {
        "frontend.tokenize_ms": ms.get("frontend.tokenize", 0.0),
        "frontend.parse_ms": ms.get("frontend.parse", 0.0),
        "frontend.tokens": c.get("frontend.tokens", 0),
        "frontend.tokens_per_s": c.get("frontend.tokens", 0) / max(ms.get("frontend.tokenize", 0.0) / 1e3, 1e-9),
        "classmodel.build_ms": ms.get("classmodel.build", 0.0),
        "classmodel.p1p2_ms": ms.get("classmodel.p1p2", 0.0),
        "classmodel.accesses": c.get("classmodel.accesses", 0),
        "classmodel.exposed": c.get("classmodel.exposed", 0),
        "accesspaths.fixpoint_ms": ms.get("accesspaths.fixpoint", 0.0),
        "accesspaths.facts": c.get("accesspaths.facts", 0),
        "accesspaths.public_fact_ratio": c.get("accesspaths.public_facts", 0) / max(c.get("accesspaths.facts", 0), 1),
        "cfg.build_ms": ms.get("cfg.build", 0.0),
        "cfg.nodes": c.get("cfg.nodes", 0),
        "monitors.windows_ms": ms.get("monitors.windows", 0.0),
        "monitors.protect_ms": ms.get("monitors.protect", 0.0),
        "monitors.windows": c.get("monitors.windows", 0),
        "monitors.public_paths": c.get("monitors.public_paths", 0),
        "raceanalysis.p3_ms": ms.get("raceanalysis.p3", 0.0),
        "raceanalysis.pairs": c.get("raceanalysis.pairs", 0),
        "raceanalysis.alerts": c.get("raceanalysis.alerts", 0),
        "raceanalysis.alert_ratio": c.get("raceanalysis.alerts", 0) / max(c.get("raceanalysis.pairs", 0), 1),
        "reporting.text_ms": ms.get("reporting.text", 0.0),
        "reporting.json_ms": ms.get("reporting.json", 0.0),
        "reporting.sarif_ms": ms.get("reporting.sarif", 0.0),
        "reporting.json_bytes": c.get("reporting.json_bytes", 0),
        "hboracle.lower_ms": ms.get("hboracle.lower", 0.0),
        "hboracle.explore_ms": ms.get("hboracle.explore", 0.0),
        "hboracle.drivers": c.get("hboracle.drivers", 0),
        "hboracle.executions": c.get("hboracle.executions", 0),
        "hboracle.us_per_execution": ms.get("hboracle.explore", 0.0) * 1e3 / max(c.get("hboracle.executions", 0), 1),
        "hboracle.budget_exceeded": c.get("hboracle.budget_exceeded", 0),
        "hboracle.unsupported": c.get("hboracle.unsupported", 0),
        "hboracle.replay_ms": ms.get("hboracle.replay", 0.0),
        "hboracle.replay_failures": c.get("hboracle.replay_failures", 0),
    }
    return out
