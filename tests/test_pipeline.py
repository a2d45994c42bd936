"""No input ends in a traceback: mutants of the corpus and the oracle probes
run through the static rules, the oracle and all three serializers.

Most mutants keep to the grammar, so that the class model, the lock
windows and the oracle's lowering see them: two statements swapped, a
``synchronized`` block dropped for its body, a lock call duplicated, an
unlock moved before another statement. A few are token edits, which mostly
stop at the parser. Trace files get line mutants: a target dropped, an
unknown op, a bad thread, an unbalanced unlock, an init action on a worker
thread. The mutants are drawn from
a fixed seed, so a failure names the same input on every run. A chain of
400 same-class calls and a cycle of calls go through the same checks.
"""

import os
import random

from test_cli import UNINLINED_CALLS, call_chain
from threadlint.cli import EXIT_ALERTS, EXIT_CLEAN, EXIT_ERROR, check_trace, oracle_check, run
from threadlint.config import OUTPUT_FORMATS, build_config
from threadlint.errors import ThreadlintError
from threadlint.frontend import SourceFile, parse_compilation_unit, tokenize
from threadlint.frontend import ast as A
from threadlint.reporting import serialize_report

TESTS = os.path.dirname(os.path.abspath(__file__))
MUTANTS = 400
PAIRS = 200
STATEMENT_EDITS = ("swap", "unsync", "duplicate", "move")
TOKENS = ("synchronized", "lock", ".", "(", ")", "{", "}", ";", "=", "x", "this", "return", "new", "try")


def _sources() -> list[str]:
    texts = []
    for d in ("corpus", "oracle_probes"):
        folder = os.path.join(TESTS, d)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                texts.append(fh.read())
    return texts


def _statements(ast: A.Ast) -> list[tuple[A.MethodDecl, A.Block]]:
    """(method, block) for each block of each method body."""
    return [(m, n) for c in ast.iter_classes() for m in [*c.constructors, *c.methods] if m.body is not None
            for n in A.walk(m.body) if isinstance(n, A.Block)]


def _edit(text: str, edits: list[tuple[int, int, str]]) -> str:
    """``text`` with each (start, end, replacement), the edits disjoint."""
    for start, end, new in sorted(edits, reverse=True):
        text = text[:start] + new + text[end:]
    return text


def _lock_calls(blocks, names) -> list[tuple[A.MethodDecl, A.Stmt]]:
    return [(m, s) for m, b in blocks for s in b.stmts
            if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Call) and s.expr.name in names]


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """(kind, mutant) of ``text``: one statement edit, or in one case of five
    (and where no statement edit applies) one or two token edits."""
    blocks = _statements(parse_compilation_unit(SourceFile("<mutant>", text)))

    def src(n: A.Node) -> str:
        return text[n.span.start:n.span.end]

    kinds = ["token"] if rng.random() < 0.2 else [*rng.sample(STATEMENT_EDITS, len(STATEMENT_EDITS)), "token"]
    for kind in kinds:
        if kind == "swap":
            pairs = [(b.stmts[i], b.stmts[i + 1]) for _, b in blocks for i in range(len(b.stmts) - 1)]
            if pairs:
                a, b = rng.choice(pairs)
                return kind, _edit(text, [(a.span.start, a.span.end, src(b)), (b.span.start, b.span.end, src(a))])
        elif kind == "unsync":
            syncs = [s for _, b in blocks for s in b.stmts if isinstance(s, A.Sync)]
            if syncs:
                s = rng.choice(syncs)
                return kind, _edit(text, [(s.span.start, s.span.end, src(s.body))])
        elif kind == "duplicate":
            calls = _lock_calls(blocks, ("lock", "lockInterruptibly", "tryLock", "unlock"))
            if calls:
                _, s = rng.choice(calls)
                return kind, _edit(text, [(s.span.end, s.span.end, " " + src(s))])
        elif kind == "move":
            unlocks = _lock_calls(blocks, ("unlock",))
            if unlocks:
                m, u = rng.choice(unlocks)
                targets = [s for k, b in blocks if k is m for s in b.stmts if s is not u]
                if targets:
                    t = rng.choice(targets)
                    moved = [(u.span.start, u.span.end, ""), (t.span.start, t.span.start, src(u) + " ")]
                    return kind, _edit(text, moved)
        else:
            toks = [t[1] for t in tokenize(text)][:-1]
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(toks))
                if rng.random() < 0.5:
                    toks.insert(i, rng.choice(TOKENS))
                else:
                    del toks[i]
            return kind, " ".join(toks)


def _checked(check, paths: list[str], config, shown: str):
    """``check``'s report on ``paths``, serialized in every format, or None
    for a ``ThreadlintError``; any other exception fails, showing ``shown``."""
    try:
        report, code = check(paths, config)
        for fmt in OUTPUT_FORMATS:
            serialize_report(report, fmt)
    except ThreadlintError:
        return None
    except Exception as exc:
        raise AssertionError(f"{check.__name__} raised {exc!r} on this input:\n{shown}") from exc
    assert code in (EXIT_CLEAN, EXIT_ALERTS, EXIT_ERROR), shown
    return report


def test_no_mutant_of_the_corpus_or_the_probes_ends_in_a_traceback(tmp_path):
    """Each mutant, through ``run`` and ``oracle_check``, gives exit 0, 1 or
    2 and a report in every format, or else raises a ``ThreadlintError``;
    most mutants parse."""
    config = build_config(os.path.join(TESTS, "corpus.cfg"))
    rng = random.Random(28)
    sources = _sources()
    path = tmp_path / "Mutant.java"
    parsed = 0
    for _ in range(MUTANTS):
        _, text = mutate(rng.choice(sources), rng)
        path.write_text(text, encoding="utf-8")
        for check in (run, oracle_check):
            report = _checked(check, [str(path)], config, text)
            parsed += check is run and report is not None and not report.errors
    print(f"{parsed} of {MUTANTS} mutants parsed")
    assert parsed > MUTANTS // 2


def test_no_pair_of_mutants_ends_in_a_traceback(tmp_path):
    """Two mutants checked together with the oracle give what one file never
    gives: a report with parse errors next to alerts and oracle rows. Many
    pairs do."""
    config = build_config(os.path.join(TESTS, "corpus.cfg"))
    rng = random.Random(31)
    sources = _sources()
    paths = [str(tmp_path / "A.java"), str(tmp_path / "B.java")]
    mixed = 0
    for _ in range(PAIRS):
        texts = [mutate(rng.choice(sources), rng)[1] for _ in paths]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        report = _checked(oracle_check, paths, config, "\n\n".join(texts))
        mixed += report is not None and bool(report.errors and report.alerts and report.oracle)
    print(f"{mixed} of {PAIRS} pairs mixed parse errors and oracle rows")
    assert mixed >= PAIRS // 5


def test_a_deep_call_chain_and_a_call_cycle_end_in_a_report(tmp_path):
    """The oracle checks the chain and finds the cycle unsupported; neither
    depends on how deep the Python stack may grow."""
    config = build_config(None)
    inputs = [("Chain", call_chain(400), "checked"), ("Rec", UNINLINED_CALLS["Rec"][0], "unsupported")]
    for name, text, status in inputs:
        path = tmp_path / f"{name}.java"
        path.write_text(text, encoding="utf-8")
        for check in (run, oracle_check):
            report = _checked(check, [str(path)], config, text)
            assert report is not None and not report.errors, text
        assert [r.status for r in report.oracle] == [status]


def test_every_statement_edit_keeps_to_the_grammar():
    rng = random.Random(1)
    kinds = set()
    for text in _sources():
        for _ in range(5):
            kind, mutant = mutate(text, rng)
            kinds.add(kind)
            if kind != "token":
                parse_compilation_unit(SourceFile("<mutant>", mutant))
    assert kinds == {*STATEMENT_EDITS, "token"}


LOCKED_TRACE = """0 default-init x
1 lock m
1 write x
1 unlock m
2 lock m
2 read x
2 unlock m
2 volatile-write v
1 volatile-read v
"""


def mutate_trace(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    parts = lines[i].split()
    kind = rng.choice(("drop-target", "unknown-op", "bad-thread", "unlock", "worker-init", "swap"))
    if kind == "drop-target":
        lines[i] = " ".join(parts[:2])
    elif kind == "unknown-op":
        lines[i] = " ".join([parts[0], rng.choice(("acquire", "READ", "")), *parts[2:]])
    elif kind == "bad-thread":
        lines[i] = " ".join([rng.choice(("-1", "+1", "x", "\u0661", "99999999999999999999", "1" * 5000)), *parts[1:]])
    elif kind == "unlock":
        lines.insert(i, f"{rng.randint(0, 2)} unlock {rng.choice(('m', 'x', 'n'))}")
    elif kind == "worker-init":
        lines.insert(i, f"{rng.randint(1, 2)} {rng.choice(('default-init', 'final-init'))} {rng.choice(('x', 'y'))}")
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_no_trace_mutant_ends_in_a_traceback(tmp_path):
    with open(os.path.join(TESTS, "traces", "racy.trace"), encoding="utf-8") as fh:
        bases = [fh.read(), LOCKED_TRACE]
    rng = random.Random(28)
    path = tmp_path / "mutant.trace"
    for _ in range(200):
        text = mutate_trace(rng.choice(bases), rng)
        path.write_text(text, encoding="utf-8")
        try:
            _, code = check_trace(str(path))
        except ThreadlintError:
            continue
        except Exception as exc:
            raise AssertionError(f"check_trace raised {exc!r} on this trace:\n{text}") from exc
        assert code in (EXIT_CLEAN, EXIT_ALERTS), text
