"""Seeded generators for the benchmark's workloads, with their expected labels.

Every generated class carries labels that follow from how it was built, never
from threadlint's output:

* ``racy``: some field has a conflicting pair of accesses (at least one a
  write) that public methods can run without a common monitor;
* ``p1`` / ``p2``: the fields whose modifiers break P1 (not private) and P2
  (not final, not volatile, and initialized to a non-default value).

The ``tests/corpus`` files are labelled by the hand-written
``corpus_expected.json``. The same seed always yields byte-identical files.
The mix of shapes and sizes in a workload is fixed; the seed varies names,
field choices, statement order and which access leaks, so that timings
compare across seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("lint-callchain", "lint-wide", "oracle")
SIZES = ("full", "smoke")

# threadlint flags a project with the corpus's custom types would set, so
# that CustomLocked and RegistryHolder are checked as their authors meant.
CONFIG_ARGS = {
    "output_format": "json",
    "lock_type_add": ("MyLock",),
    "allowlist_add": ("com.example.concurrent.AtomicRegistry",),
}

CORPUS_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_expected.json")

_HEADER = (
    "import java.util.concurrent.ConcurrentHashMap;\n"
    "import java.util.concurrent.atomic.AtomicInteger;\n"
    "import java.util.concurrent.locks.ReentrantLock;\n"
    "import javax.annotation.concurrent.ThreadSafe;\n\n"
)


@dataclass
class ClassLabel:
    name: str
    annotated: bool
    racy: bool = False
    p1: tuple[str, ...] = ()
    p2: tuple[str, ...] = ()
    shape: str = ""


@dataclass
class JavaFile:
    """One input file. ``relpath`` is relative to the workload directory,
    or to the checkout root when ``in_repo`` is set (the corpus)."""

    relpath: str
    text: str
    classes: list[ClassLabel]
    in_repo: bool = False


@dataclass
class _Field:
    name: str
    jtype: str = "int"
    vis: str = "private"
    final: bool = False
    volatile: bool = False
    init: str | None = None

    def decl(self) -> str:
        mods = [] if self.vis == "package" else [self.vis]
        if self.final:
            mods.append("final")
        if self.volatile:
            mods.append("volatile")
        init = f" = {self.init}" if self.init is not None else ""
        return f"  {' '.join(mods + [self.jtype])} {self.name}{init};"

    @property
    def breaks_p1(self) -> bool:
        return self.vis != "private"

    @property
    def breaks_p2(self) -> bool:
        return not (self.final or self.volatile) and self.init not in (None, "0", "0L", "false", "null")


@dataclass
class _ClassBuilder:
    name: str
    annotated: bool = True
    fields: list[_Field] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)

    def render(self) -> str:
        ann = "@ThreadSafe\n" if self.annotated else ""
        body = "\n".join(f.decl() for f in self.fields) + "\n\n" + "\n\n".join(self.methods)
        return f"{ann}public class {self.name} {{\n{body}\n}}\n"

    def label(self, racy: bool, shape: str) -> ClassLabel:
        if not self.annotated:
            return ClassLabel(self.name, False, shape=shape)
        return ClassLabel(
            self.name,
            True,
            racy,
            tuple(f.name for f in self.fields if f.breaks_p1),
            tuple(f.name for f in self.fields if f.breaks_p2),
            shape,
        )


def _lock_field() -> _Field:
    return _Field("lock", "ReentrantLock", final=True, init="new ReentrantLock()")


def _rule_fields(rng: random.Random, i: int) -> list[_Field]:
    """Fields that exercise P1/P2; every third class breaks one of the rules.

    They are only read by methods, so they never add a P3 conflict.
    """
    out = [_Field("capacity", final=True, init=str(rng.randint(8, 512)))]
    if i % 3 == 1:
        out.append(_Field("tuning", vis=rng.choice(["protected", "package", "public"])))
    elif i % 3 == 2:
        out.append(_Field("limit", "long", init=str(rng.randint(1, 99) * 100)))
    return out


def _windowed(body: list[str], try_finally: bool, ind: str = "    ") -> list[str]:
    """Wrap statements in a lock window on ``lock``."""
    if try_finally:
        return [f"{ind}lock.lock();", f"{ind}try {{"] + [f"  {s}" for s in body] + [
            f"{ind}}} finally {{", f"{ind}  lock.unlock();", f"{ind}}}"
        ]
    return [f"{ind}lock.lock();"] + body + [f"{ind}lock.unlock();"]


def _method(sig: str, lines: list[str]) -> str:
    return f"  {sig} {{\n" + "\n".join(lines) + "\n  }"


# --------------------------------------------------------------------------
# probes: known false positives of the static P3 rule, both race-free


def probe_helper_locked(name: str) -> JavaFile:
    """A public method calls a private helper that takes the lock itself."""
    text = (
        _HEADER
        + f"@ThreadSafe\npublic class {name} {{\n"
        "  private int count;\n"
        "  private final ReentrantLock lock = new ReentrantLock();\n\n"
        "  public void inc() {\n    helper();\n  }\n\n"
        "  private void helper() {\n    lock.lock();\n    count = count + 1;\n    lock.unlock();\n  }\n\n"
        "  public int get() {\n    lock.lock();\n    int v = count;\n    lock.unlock();\n    return v;\n  }\n"
        "}\n"
    )
    return JavaFile(f"{name}.java", text, [ClassLabel(name, True, False, shape="probe-helper-locked")])


def probe_pub_inner(name: str) -> JavaFile:
    """An unsynchronized public method calls a synchronized one.

    Its twice|twice driver has 17 actions, one over the oracle's budget.
    """
    text = (
        _HEADER
        + f"@ThreadSafe\npublic class {name} {{\n"
        "  private int count;\n\n"
        "  public synchronized void inc() {\n    count = count + 1;\n  }\n\n"
        "  public void twice() {\n    inc();\n    inc();\n  }\n"
        "}\n"
    )
    return JavaFile(f"{name}.java", text, [ClassLabel(name, True, False, shape="probe-pub-inner")])


# --------------------------------------------------------------------------
# lint-callchain


def callchain_class(rng: random.Random, name: str, n_methods: int, racy: bool, i: int) -> JavaFile:
    """Two long same-class call chains under one lock, plus guarded getters.

    Each chain is a public entry that opens a lock window and calls the
    chain's first private step; each step writes one field, reads another and
    calls the next step. Methods are declared caller first, so the
    access-path fixpoint needs one round per chain step. In the racy variant
    the second entry also calls the last three steps of its chain before
    taking the lock. Odd classes recurse from the last step of the first
    chain back to its first step.
    """
    n_getters = n_methods // 5
    chain_lens = [(n_methods - n_getters) // 2, n_methods - n_getters - (n_methods - n_getters) // 2]
    n_data = max(4, n_methods // 8)
    b = _ClassBuilder(name)
    data = [_Field(f"f{k}", rng.choice(["int", "long"])) for k in range(n_data)]
    b.fields = data + [_lock_field()] + _rule_fields(rng, i)
    extra_reads = [f.name for f in b.fields[n_data + 1:]]
    leaky_chain = 1 if racy else -1
    for c, length in enumerate(chain_lens):
        steps = [f"c{c}s{k}" for k in range(1, length)]
        call = f"{steps[0]}(n)"
        if c == leaky_chain:
            lines = [f"    long r = {steps[-3]}(n);"] + _windowed([f"      return r + {call};"], try_finally=True)
        else:
            lines = _windowed([f"      return {call};"], try_finally=True)
        b.methods.append(_method(f"public long chain{c}(int n)", lines))
        for k, step in enumerate(steps):
            w, r = rng.choice(data).name, rng.choice(data).name
            if extra_reads and k == 0:
                r = rng.choice(extra_reads)
            body = [f"    {w} = {w} + n;", f"    long v = {r} + {k};"]
            if k + 1 < len(steps):
                body.append(f"    return {steps[k + 1]}(n + 1) + v;")
            elif c == 0 and i % 2 == 1:
                body += [f"    if (n > {length}) {{", f"      return {steps[0]}(n - 1);", "    }", "    return v;"]
            else:
                body.append("    return v;")
            b.methods.append(_method(f"private long {step}(int n)", body))
    for g in range(n_getters):
        f = data[g % n_data].name
        b.methods.append(
            _method(f"public long get{g}()", _windowed([f"      return {f};"], try_finally=True))
            if g % 2 == 0
            else _method(f"public long get{g}()", _windowed([f"    long v = {f};"], try_finally=False) + ["    return v;"])
        )
    return JavaFile(f"{name}.java", _HEADER + b.render(), [b.label(racy, f"callchain-{n_methods}")])


# sizes and counts per pass; half of each size racy
# (the counts put the median file in the 50-method group and the 90th
# percentile in the 100-method group)
_CALLCHAIN_MIX = {"full": ((25, 4), (50, 8), (100, 3)), "smoke": ((10, 2), (25, 2))}


def gen_callchain(seed: int, size: str) -> list[JavaFile]:
    rng = random.Random(f"lint-callchain/{seed}")
    files = []
    i = 0
    for n_methods, count in _CALLCHAIN_MIX[size]:
        for j in range(count):
            name = f"Chain{n_methods}x{_tag(rng)}{i}"
            files.append(callchain_class(rng, name, n_methods, racy=j % 2 == 1, i=i))
            i += 1
    files.append(probe_helper_locked(f"HelperLocked{_tag(rng)}"))
    files.append(probe_pub_inner(f"PubInner{_tag(rng)}"))
    return files


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(3))


# --------------------------------------------------------------------------
# lint-wide

_DISCIPLINES = ("sync-method", "sync-this", "sync-mu", "window-try", "window-plain")


def wide_class(rng: random.Random, name: str, n_methods: int, annotated: bool, racy: bool, i: int) -> JavaFile:
    """Call-free methods, each keeping to one guard discipline.

    Every discipline owns its own fields: ``synchronized`` methods and
    ``synchronized (this)`` blocks share ``this``, ``synchronized (mu)``
    blocks guard the ``m*`` fields, lock windows guard the ``l*`` fields.
    Volatile and allowlisted fields are touched anywhere. In the racy variant
    one method also writes a field of another guard without taking it.
    """
    b = _ClassBuilder(name, annotated)
    groups = {
        "this": [_Field(f"s{k}", rng.choice(["int", "long"])) for k in range(3)],
        "mu": [_Field(f"m{k}", "long") for k in range(2)],
        "lock": [_Field(f"l{k}", "int", init="0" if k == 0 else None) for k in range(3)],
    }
    vol = [_Field(f"v{k}", "boolean" if k == 0 else "int", volatile=True) for k in range(2)]
    b.fields = (
        groups["this"] + groups["mu"] + groups["lock"] + vol
        + [_Field("mu", "Object", final=True, init="new Object()"), _lock_field(),
           _Field("cache", "ConcurrentHashMap<String, Integer>", final=True, init="new ConcurrentHashMap<>()"),
           _Field("hits", "AtomicInteger", final=True, init="new AtomicInteger()")]
        + _rule_fields(rng, i)
    )
    leak = rng.randrange(n_methods) if racy else -1
    for k in range(n_methods):
        disc = _DISCIPLINES[(k + i) % len(_DISCIPLINES)]
        guard = {"sync-method": "this", "sync-this": "this", "sync-mu": "mu"}.get(disc, "lock")
        fs = groups[guard]
        a, c = rng.choice(fs).name, rng.choice(fs).name
        core = [
            f"int t = {a} + {k % 5};" if rng.randrange(2) else f"int t = n + {k % 7};",
            f"if (t > {rng.randint(1, 9)}) {{ {c} = {c} + 1; }} else {{ {a} = {a} - 1; }}",
            f"for (int j = 0; j < n; j++) {{ {c} += j; }}" if rng.randrange(3) == 0 else f"{c} = {c} + t;",
        ]
        guarded = [f"      {s}" for s in core]
        outside = [f"    v{k % 2} = {'true' if k % 2 == 0 else 'n'};"] if rng.randrange(2) else [
            f'    cache.put("k{k}", n);', "    hits.incrementAndGet();"
        ]
        if disc == "sync-method":
            lines = [f"    {s}" for s in core] + outside
        elif disc in ("sync-this", "sync-mu"):
            mon = "this" if disc == "sync-this" else "mu"
            lines = [f"    synchronized ({mon}) {{"] + guarded + ["    }"] + outside
        else:
            lines = _windowed(guarded, try_finally=disc == "window-try") + outside
        if k == leak:
            # a field of another guard, written with no guard of its own
            other = groups["lock" if guard != "lock" else "mu"][0].name
            lines.insert(0, f"    {other} = {other} + 1;")
        mods = "public synchronized" if disc == "sync-method" else "public"
        b.methods.append(_method(f"{mods} void op{k}(int n)", lines))
    return JavaFile(f"{name}.java", _HEADER + b.render(), [b.label(racy, f"wide-{n_methods}")])


# per pass: classes of each size; a third not annotated, a quarter of the
# annotated ones racy (the position in the cycle decides, not the seed)
_WIDE_MIX = {"full": ((20, 30, 40, 50, 60), 12), "smoke": ((20, 30), 3)}


def gen_wide(seed: int, size: str, corpus_dir: str) -> list[JavaFile]:
    rng = random.Random(f"lint-wide/{seed}")
    sizes, rounds = _WIDE_MIX[size]
    files = []
    for r in range(rounds):
        for s, n_methods in enumerate(sizes):
            i = r * len(sizes) + s
            annotated = i % 3 != 2
            racy = annotated and i % 4 == 1
            files.append(wide_class(rng, f"Wide{n_methods}x{_tag(rng)}{i}", n_methods, annotated, racy, i))
    return files + corpus_files(corpus_dir)


# --------------------------------------------------------------------------
# oracle


def _oracle_body(kind: str, k: int) -> list[str]:
    """Straight-line method bodies and their oracle actions.

    ``writer`` (6 actions): volatile read, then ``a`` updated under the lock,
    then a final-field read. ``leaky`` (4): the writer without its lock.
    ``reader`` (6): locals, final-field reads and a volatile read and write,
    none of which can race, and no monitor, so every interleaving differs.
    ``long`` (11): a bigger critical section; two of them exceed the budget.
    """
    if kind == "writer":
        return ["    int u = flag;"] + _windowed(["    a = a + u;"], try_finally=False) + ["    int t = cap + n;"]
    if kind == "leaky":
        return ["    int u = flag;", "    a = a + u;", "    int t = cap + n;"]
    if kind == "reader":
        return [f"    int z = n * {k + 2};", "    int t = cap + n;", "    int u = flag;", "    flag = t;",
                "    int w = cap * u;", f"    int y = z + {k};"]
    if kind == "long":
        return ["    int t = flag;"] + _windowed(["    a = a + t;", "    a = a - cap;", "    a = a * 2;"], False) + ["    flag = t;"]
    # branchy: an if and a try, which the oracle does not model
    return [f"    int t = n + {k};", "    if (t > 2) {", "      t = t - 1;", "    }"] + _windowed(
        ["      a = a + t;"], try_finally=True)


_ORACLE_SHAPES = {
    "free": ("writer", "reader", "reader"),
    "racy": ("leaky", "reader", "reader"),
    "over": ("long", "long"),
    "branchy": ("branchy", "branchy"),
}


def oracle_class(rng: random.Random, name: str, shape: str, i: int) -> JavaFile:
    """Straight-line classes with 2-3 public methods for the trace oracle.

    Every driver of ``free`` has exactly 16 actions, the budget, and is
    enumerated in full. ``racy`` stops at its first racy driver, early or
    late depending on the class's place in the mix. ``over`` exceeds the
    budget at its first driver; ``branchy`` is unsupported. Odd ``over`` and
    ``branchy`` classes write ``a`` outside the lock in one method.
    """
    b = _ClassBuilder(name)
    b.fields = [_Field("a"), _Field("flag", volatile=True), _Field("cap", final=True, init=str(rng.randint(2, 64))),
                _lock_field()]
    # the class's index, not the seed, decides where the odd method sits,
    # so every pass holds the same mix of early and late racy drivers
    kinds = list(_ORACLE_SHAPES[shape])
    kinds = kinds[i % len(kinds):] + kinds[:i % len(kinds)]
    racy = shape == "racy" or (shape in ("over", "branchy") and i % 2 == 1)
    for k, kind in enumerate(kinds):
        body = _oracle_body(kind, k)
        if racy and shape != "racy" and k == 0:
            body.insert(0, "    a = a + 1;")
        b.methods.append(_method(f"public void op{k}(int n)", body))
    return JavaFile(f"{name}.java", _HEADER + b.render(), [b.label(racy, f"oracle-{shape}")])


_ORACLE_MIX = {
    "full": (("free", 6), ("racy", 6), ("over", 2), ("branchy", 3)),
    "smoke": (("free", 1), ("racy", 1), ("over", 1), ("branchy", 1)),
}


def gen_oracle(seed: int, size: str, corpus_dir: str) -> list[JavaFile]:
    rng = random.Random(f"oracle/{seed}")
    files = []
    i = 0
    for shape, count in _ORACLE_MIX[size]:
        for _ in range(count):
            files.append(oracle_class(rng, f"Oracle{shape.capitalize()}{_tag(rng)}{i}", shape, i))
            i += 1
    files.append(probe_pub_inner(f"PubInner{_tag(rng)}"))
    files.append(probe_helper_locked(f"HelperLocked{_tag(rng)}"))
    return files + corpus_files(corpus_dir)


# --------------------------------------------------------------------------


def corpus_files(corpus_dir: str) -> list[JavaFile]:
    """The repository's corpus, labelled by the hand-written expected file."""
    with open(CORPUS_EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["files"]
    out = []
    for fname in sorted(expected):
        path = os.path.join(corpus_dir, fname)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        classes = [
            ClassLabel(c["name"], c["annotated"], c.get("racy", False), tuple(c.get("p1", ())),
                       tuple(c.get("p2", ())), "corpus")
            for c in expected[fname]
        ]
        out.append(JavaFile(os.path.join("tests", "corpus", fname), text, classes, in_repo=True))
    return out


def generate(workload: str, seed: int, size: str, corpus_dir: str) -> list[JavaFile]:
    """The input files of one workload, in the order a pass checks them."""
    if workload == "lint-callchain":
        files = gen_callchain(seed, size)
    elif workload == "lint-wide":
        files = gen_wide(seed, size, corpus_dir)
    elif workload == "oracle":
        files = gen_oracle(seed, size, corpus_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order/{workload}/{seed}").shuffle(files)
    return files
