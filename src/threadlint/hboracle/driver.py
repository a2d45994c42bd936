"""Build oracle thread programs from analyzed classes.

The driver mirrors the external usage contract of a thread-safe class: a
main thread initializes the object (one init action per field, in
declaration order), then worker threads each call one public method. A
method runs as each path that :func:`threadlint.cfg.paths` walks; paths with
the same actions count once, and more than ``PATH_CAP`` put the class over
budget. Each method is lowered once, after its same-class callees, so a call
inlines the callee's finished action lists, each in turn; a call that may
run more than one overload, or a cycle of calls, makes the class unsupported.

Each class's work is done once: a method's paths are walked on the CFG the
class model keeps (:meth:`ClassModel.cfg`), which P3's lock windows share;
whether a field is allowlisted, and so which ops its accesses lower to, is
asked once per field; and each distinct action list and the init list are
walked once, by :func:`check_actions`, which checks it and records the
monitors held at its plain reads and writes, so the pairs are made from them
without walking them again. :func:`check_class` searches the sync orders of
a pair only when the lockset filter (:func:`may_race`) on those records
cannot clear it.

What a name, a call or a synchronized block's monitor denotes is asked of
the class model (:meth:`ClassModel.field_of`, :meth:`ClassModel.callees`)
and of :func:`threadlint.monitors.sync_monitor`, and which call locks or
unlocks which lock field of :meth:`MonitorAnalysis.lock_call`, the rule P3's
windows are built from; so the oracle and the static rules never disagree
about scoping or configuration. A ``tryLock()`` that ``lock_call``
recognizes makes the class unsupported, as it may fail to acquire. Every
monitor is named by the function the static rules name it with, so an
action's target is the monitor P3 holds. Whether an access reads or
writes, and in which order a node's actions run, is decided here
independently of the static collector, so the oracle still catches a
static classification miss.

Each node's expressions (``CfgNode.exprs``) are lowered in evaluation order:
field reads and writes to read/write actions (volatile variants for volatile
fields; mutator calls and array-element writes write the field; allowlisted
fields add nothing), and lock-field lock()/unlock() calls, a synchronized
block's entry and exit nodes, and a synchronized method around each path to
monitor actions (a lock field's ``lock_monitor``, which never aliases a
block's monitor on the same field). A write to another object's field
reads the receiver before the value, and a monitor or lock reference is read
before it is locked or unlocked. A public method that unlocks a monitor it
does not hold makes the class unsupported. Names, field selections,
assignments, ``++``/``--`` and calls are decided on here; ``_STRAIGHT_LINE``
kinds are lowered through :func:`threadlint.frontend.ast.children`, and any
other kind makes the class unsupported.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from threadlint.cfg import paths
from threadlint.classmodel import ClassModel, is_default_initialized
from threadlint.errors import BudgetExceeded, MalformedExecution, UnsupportedForOracle
from threadlint.frontend import ast as A
from threadlint.hboracle.model import (
    DEFAULT_ACTION_BUDGET,
    ActionSpec,
    Op,
    RaceReport,
    ThreadProgram,
    check_actions,
    check_budget,
    may_race,
    program_races,
)
from threadlint.monitors import MonitorAnalysis, lock_monitor, method_monitor, sync_monitor

PATH_CAP = 32  # paths per method, each of its callees' action lists counted

# kinds with no action of their own, lowered through ``A.children``
_STRAIGHT_LINE = frozenset({A.New, A.Index, A.Unary, A.Binary, A.Paren, A.Literal, A.This, A.ClassLit})


class OracleVerdict(NamedTuple):
    """Exhaustive two-thread race check of one class."""

    class_id: str
    raced: bool
    witness: Optional[RaceReport]
    drivers_checked: int
    status: str  # checked | unsupported | budget-exceeded
    detail: str = ""


class _DriverBuilder:
    def __init__(self, cm: ClassModel, **lock_kw):
        self.cm = cm
        self.decl = cm.decl
        self.monitors = MonitorAnalysis(cm, **lock_kw)  # asked only which call locks or unlocks what
        # id(field) -> its (read, write) ops; None for an allowlisted field, which adds no action
        self._ops = {id(f): None if cm.allowlist.contains(f) else
                     (Op.VOLATILE_READ, Op.VOLATILE_WRITE) if f.is_volatile else (Op.READ, Op.WRITE)
                     for f in cm.decl.fields}
        # id(method) -> its action lists, lowered once, after its callees
        self._actions: dict[int, list[tuple[ActionSpec, ...]]] = {}
        self._lowering: Optional[A.MethodDecl] = None  # the method the path cap names

    # -- lowering: ``out`` holds the action lists of one path so far --

    def _emit(self, out: list[list[ActionSpec]], op: Op, target: str) -> None:
        for actions in out:
            actions.append((op, target))

    def _access(self, f: A.FieldDecl, write: bool, out) -> None:
        """Append the read or write of ``f``; nothing for an allowlisted field."""
        ops = self._ops[id(f)]
        if ops is not None:
            self._emit(out, ops[write], f.name)

    def method_actions(self, m: A.MethodDecl) -> list[tuple[ActionSpec, ...]]:
        """The distinct action lists of one call of ``m``, in path order; its same-class
        callees are lowered first, depth first, and a callee on the walk closes a cycle."""
        walk = {id(m): (m, iter(self.cm.calls_in(m)))}  # id -> (method, calls left), callers first
        while id(m) not in self._actions:
            k, calls = next(reversed(walk.values()))
            for c in (cs[0] for cs in map(self.cm.callees, calls) if len(cs) == 1):
                if id(c) in walk:
                    raise UnsupportedForOracle(f"{self.decl.name}.{c.name}: recursive call chain")
                if id(c) not in self._actions:
                    walk[id(c)] = (c, iter(self.cm.calls_in(c)))
                    break
            else:
                walk.popitem()
                self._actions[id(k)] = self._lower_method(k)
        return self._actions[id(m)]

    def _lower_method(self, m: A.MethodDecl) -> list[tuple[ActionSpec, ...]]:
        """``m``'s distinct action lists, its callees' lists already in ``_actions``."""
        if m.body is None:
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: no body")
        self._lowering = m
        monitor = method_monitor(m, self.cm)
        found: dict[tuple[ActionSpec, ...], None] = {}
        walked = 0
        for path in paths(self.cm.cfg(m)):
            out = [[(Op.LOCK, monitor)] if monitor else []]
            for node in path:
                self._lower_all(node.exprs, out)
                if node.kind in ("sync_enter", "sync_exit"):
                    # a parameter or non-alias local guards nothing: no monitor actions
                    sync = sync_monitor(node.ast.monitor, self.cm)
                    if sync is not None:
                        self._emit(out, Op.LOCK if node.kind == "sync_enter" else Op.UNLOCK, sync)
            if monitor:
                self._emit(out, Op.UNLOCK, monitor)
            walked += len(out)
            self._check_cap(m, walked)
            found.update(dict.fromkeys(map(tuple, out)))
        return list(found)

    def _check_cap(self, m: A.MethodDecl, walked: int) -> None:
        if walked > PATH_CAP:
            raise BudgetExceeded(f"{self.decl.name}.{m.name} has more than {PATH_CAP} paths; "
                                 f"the oracle walks at most {PATH_CAP}")

    def _lower_all(self, exprs, out) -> None:
        for e in exprs:
            self._lower(e, out)

    def _lower(self, n: A.Node, out) -> None:
        """Append the field and monitor actions of expression ``n``, in
        evaluation order; raise UnsupportedForOracle for a kind not decided
        on here."""
        t = type(n)
        if t is A.Name or t is A.FieldSel:
            f = self.cm.field_of(n)
            if f is not None:
                self._access(f, False, out)
            elif t is A.FieldSel:
                self._lower(n.qualifier, out)
        elif t is A.Assign:
            self._write(n.target, n.value, n.op != "=", out)
        elif t is A.Unary and n.op in ("++", "--"):
            self._write(n.operand, None, True, out)
        elif t is A.Call:
            self._call_actions(n, out)
        elif t in _STRAIGHT_LINE:
            self._lower_all(A.children(n), out)
        else:
            raise UnsupportedForOracle(f"{self.decl.name}: unsupported expression {t.__name__}")

    def _write(self, target: A.Expr, value: Optional[A.Expr], compound: bool, out) -> None:
        """An assignment (``value`` set) or ``++``/``--`` of ``target``: the
        array or receiver the target is selected from, its indices, a
        compound read, the value, then the write. An element write of an own
        array field is a write of the field."""
        target = A.strip_parens(target)
        indices = []
        while isinstance(target, A.Index):
            indices.append(target.index)
            target = A.strip_parens(target.base)
        f = self.cm.field_of(target)
        if f is None:
            self._lower(target, out)  # a local reads nothing; another object's field reads its receiver
        elif compound and not indices:
            self._access(f, False, out)
        self._lower_all(reversed(indices), out)  # Java evaluates the leftmost index first
        if value is not None:
            self._lower(value, out)
        if f is not None:
            self._access(f, True, out)

    def _call_actions(self, e: A.Call, out) -> None:
        q = e.qualifier
        callees = self.cm.callees(e)
        if len(callees) > 1:
            raise UnsupportedForOracle(f"{self.decl.name}.{e.name}: {len(callees)} overloads of arity "
                                       f"{len(e.args)} match the call; not oracle-supported")
        if callees:
            self._lower_all(e.args, out)
            out[:] = [actions + list(tail) for actions in out for tail in self._actions[id(callees[0])]]
            self._check_cap(self._lowering, len(out))
            return
        if q is not None:
            # lock recognition wins over the allowlist: java.util.concurrent.locks
            # types are allowlisted yet their lock()/unlock() calls are monitors
            lock = self.monitors.lock_call(e)
            if lock is not None:
                if e.name == "tryLock":
                    raise UnsupportedForOracle(f"{self.decl.name}: tryLock acquisition may fail; not oracle-supported")
                lf, locks = lock
                self._lower(q, out)
                self._lower_all(e.args, out)
                self._emit(out, Op.LOCK if locks else Op.UNLOCK, lock_monitor(lf))
                return
            f = self.cm.field_of(q)
            if f is not None:
                if e.name in self.cm.mutator_methods:
                    self._lower_all(e.args, out)
                    self._access(f, True, out)
                else:
                    self._access(f, False, out)
                    self._lower_all(e.args, out)
                return
            self._lower(q, out)
        self._lower_all(e.args, out)

    # -- init actions --

    def init_actions(self) -> list[ActionSpec]:
        """One publication write per field, in declaration order.

        Fields that are neither default-initialized, final, nor volatile get
        a plain main-thread write: nothing orders it before other threads'
        reads, which is exactly the unsafe-publication hazard.
        """
        out: list[ActionSpec] = []
        for f in self.decl.fields:
            if f.is_volatile:
                out.append((Op.VOLATILE_WRITE, f.name))
            elif f.is_final:
                out.append((Op.FINAL_INIT, f.name))
            elif is_default_initialized(f):
                out.append((Op.DEFAULT_INIT, f.name))
            else:
                out.append((Op.WRITE, f.name))
        return out


def two_thread_drivers(cm: ClassModel, **kw) -> Iterator[ThreadProgram]:
    """One driver per unordered pair (with repetition) of the distinct action
    lists of the public methods: main initializes, then each thread runs one
    list of the pair, named by the first method that has it.

    Every list and the init list are lowered and checked once, in order,
    before this returns; each pair is made from the checked lists and the
    plain accesses their checks recorded, without walking them again, only
    when the iterator reaches it."""
    b = _DriverBuilder(cm, **kw)
    owner: dict[tuple[ActionSpec, ...], str] = {}
    for m in cm.decl.methods:
        if m.is_public:
            for actions in b.method_actions(m):
                owner.setdefault(actions, m.name)
    lists = []  # (actions, name, plain accesses)
    for actions, name in owner.items():
        try:
            lists.append((actions, name, check_actions(1, actions)))
        except MalformedExecution as exc:
            # one thread fails only by unlocking what it does not hold
            raise UnsupportedForOracle(f"{cm.decl.name}.{name} unlocks {exc.action.target!r} "
                                       "without holding it; not oracle-supported") from None
    init = tuple(b.init_actions())
    init_accesses = check_actions(0, init)
    return (ThreadProgram.of_checked(init, (first, second), (init_accesses, acc1, acc2),
                                     f"{cm.decl.name}:{name1}|{name2}")
            for i, (first, name1, acc1) in enumerate(lists) for second, name2, acc2 in lists[i:])


def check_class(cm: ClassModel, action_budget: int = DEFAULT_ACTION_BUDGET, **kw) -> OracleVerdict:
    """Exhaustive race check over every two-thread driver of the class, in
    order: each is checked against the action budget, and searched only when
    :func:`may_race` cannot clear it. The search would find no race in a
    cleared driver, so the verdict is that of searching every driver."""
    checked = 0
    try:
        for d in two_thread_drivers(cm, **kw):
            check_budget(d, action_budget)
            checked += 1
            if may_race(d):
                report = program_races(d, action_budget=action_budget)
                if report.raced:
                    return OracleVerdict(cm.class_id, True, report, checked, "checked")
    except UnsupportedForOracle as exc:
        return OracleVerdict(cm.class_id, False, None, 0, "unsupported", str(exc))
    except BudgetExceeded as exc:  # over the path cap (no driver checked) or the action budget
        return OracleVerdict(cm.class_id, False, None, checked, "budget-exceeded", str(exc))
    return OracleVerdict(cm.class_id, False, None, checked, "checked")
