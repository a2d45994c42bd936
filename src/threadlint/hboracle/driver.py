"""Build oracle thread programs from analyzed classes.

The driver mirrors the external usage contract of a thread-safe class: a
main thread initializes the object (one init action per field, in
declaration order), then worker threads each call one public method. A
method runs as each path that :func:`threadlint.cfg.paths` walks; paths with
the same actions count once, and more than ``PATH_CAP`` put the class over
budget. A same-class call is inlined, each of the callee's action lists in
turn; one that may run more than one overload makes the class unsupported.

What a name, a lock()/unlock() receiver, a call or a synchronized block's
monitor denotes is asked of the class model (:meth:`ClassModel.field_of`,
:meth:`ClassModel.denotes`, :meth:`ClassModel.callees`) and of
:func:`threadlint.monitors.sync_monitor`, so the oracle and the static rules
never disagree about scoping. Whether an access reads or writes, and in
which order a node's actions run, is decided here independently of the
static collector, so the oracle still catches a static classification miss.

Each node's expressions (``CfgNode.exprs``) are lowered in evaluation order:
field reads and writes to read/write actions (volatile variants for volatile
fields; mutator calls and array-element writes write the field; allowlisted
fields add nothing), and lock-field lock()/unlock() calls, a synchronized
block's entry and exit nodes, and a synchronized method around each path to
monitor actions (``lock:``-namespaced for Lock objects, so they never alias
a block's monitor on the same field). A write to another object's field
reads the receiver before the value, and a monitor or lock reference is read
before it is locked or unlocked. A public method that unlocks a monitor it
does not hold makes the class unsupported. Names, field selections,
assignments, ``++``/``--`` and calls are decided on here; ``_STRAIGHT_LINE``
kinds are lowered through :func:`threadlint.frontend.ast.children`, and any
other kind makes the class unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from threadlint.cfg import build_cfg, paths
from threadlint.classmodel import ClassModel, is_default_initialized
from threadlint.errors import BudgetExceeded, MalformedExecution, UnsupportedForOracle
from threadlint.frontend import ast as A
from threadlint.hboracle.model import (
    DEFAULT_ACTION_BUDGET,
    Op,
    RaceReport,
    ThreadProgram,
    program_races,
)
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_LOCK_TYPES,
    DEFAULT_UNLOCK_METHODS,
    lock_fields,
    sync_monitor,
)

ActionSpec = tuple[Op, Optional[str]]
PATH_CAP = 32  # paths per method, each of its callees' action lists counted

# kinds with no action of their own, lowered through ``A.children``
_STRAIGHT_LINE = frozenset({A.New, A.Index, A.Unary, A.Binary, A.Paren, A.Literal, A.This, A.ClassLit})


@dataclass(frozen=True)
class OracleVerdict:
    """Exhaustive two-thread race check of one class."""

    class_id: str
    raced: bool
    witness: Optional[RaceReport]
    drivers_checked: int
    status: str  # checked | unsupported | budget-exceeded
    detail: str = ""


class _DriverBuilder:
    def __init__(
        self,
        cm: ClassModel,
        lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
        lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
        unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
    ):
        self.cm = cm
        self.decl = cm.decl
        self.lock_field_ids = {id(f) for f in lock_fields(cm, lock_types)}
        self.lock_methods = lock_methods
        self.unlock_methods = unlock_methods
        # id(method) -> its action lists; a method that completed closes no cycle,
        # so its lists hold under any caller
        self._actions: dict[int, list[tuple[ActionSpec, ...]]] = {}

    # -- lowering: ``out`` holds the action lists of one path so far --

    def _emit(self, out: list[list[ActionSpec]], op: Op, target: str) -> None:
        for actions in out:
            actions.append((op, target))

    def _access(self, f: A.FieldDecl, write: bool, out) -> None:
        """Append the read or write of ``f``; nothing for an allowlisted field."""
        if not self.cm.allowlist.contains(f):
            write_op, read_op = (Op.VOLATILE_WRITE, Op.VOLATILE_READ) if f.is_volatile else (Op.WRITE, Op.READ)
            self._emit(out, write_op if write else read_op, f.name)

    def method_actions(self, m: A.MethodDecl, stack: tuple[A.MethodDecl, ...] = ()) -> list[tuple[ActionSpec, ...]]:
        """The distinct action lists of one call of ``m``, in path order;
        ``stack`` holds the inlining callers."""
        got = self._actions.get(id(m))
        if got is not None:
            return got
        if m.body is None:
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: no body")
        if any(c is m for c in stack):
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: recursive call chain")
        stack += (m,)
        monitor = (f"Class<{self.decl.name}>" if m.is_static else "this") if m.is_synchronized else None
        found: dict[tuple[ActionSpec, ...], None] = {}
        walked = 0
        for path in paths(build_cfg(m)):
            out = [[(Op.LOCK, monitor)] if monitor else []]
            for node in path:
                self._lower_all(node.exprs, stack, out)
                if node.kind in ("sync_enter", "sync_exit"):
                    # a parameter or non-alias local guards nothing: no monitor actions
                    sync = sync_monitor(node.ast.monitor, self.cm)
                    if sync is not None:
                        self._emit(out, Op.LOCK if node.kind == "sync_enter" else Op.UNLOCK, sync.identity)
            if monitor:
                self._emit(out, Op.UNLOCK, monitor)
            walked += len(out)
            self._check_cap(m, walked)
            found.update(dict.fromkeys(map(tuple, out)))
        got = self._actions[id(m)] = list(found)
        return got

    def _check_cap(self, m: A.MethodDecl, walked: int) -> None:
        if walked > PATH_CAP:
            raise BudgetExceeded(f"{self.decl.name}.{m.name} has more than {PATH_CAP} paths; "
                                 f"the oracle walks at most {PATH_CAP}")

    def _lower_all(self, exprs, stack, out) -> None:
        for e in exprs:
            self._lower(e, stack, out)

    def _lower(self, n: A.Node, stack: tuple[A.MethodDecl, ...], out) -> None:
        """Append the field and monitor actions of expression ``n``, in
        evaluation order; raise UnsupportedForOracle for a kind not decided
        on here."""
        t = type(n)
        if t is A.Name or t is A.FieldSel:
            f = self.cm.field_of(n)
            if f is not None:
                self._access(f, False, out)
            elif t is A.FieldSel:
                self._lower(n.qualifier, stack, out)
        elif t is A.Assign:
            self._write(n.target, n.value, n.op != "=", stack, out)
        elif t is A.Unary and n.op in ("++", "--"):
            self._write(n.operand, None, True, stack, out)
        elif t is A.Call:
            self._call_actions(n, stack, out)
        elif t in _STRAIGHT_LINE:
            self._lower_all(A.children(n), stack, out)
        else:
            raise UnsupportedForOracle(f"{self.decl.name}: unsupported expression {t.__name__}")

    def _write(self, target: A.Expr, value: Optional[A.Expr], compound: bool, stack, out) -> None:
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
            self._lower(target, stack, out)  # a local reads nothing; another object's field reads its receiver
        elif compound and not indices:
            self._access(f, False, out)
        self._lower_all(reversed(indices), stack, out)  # Java evaluates the leftmost index first
        if value is not None:
            self._lower(value, stack, out)
        if f is not None:
            self._access(f, True, out)

    def _call_actions(self, e: A.Call, stack, out) -> None:
        q = e.qualifier
        callees = self.cm.callees(e)
        if len(callees) > 1:
            raise UnsupportedForOracle(f"{self.decl.name}.{e.name}: {len(callees)} overloads of arity "
                                       f"{len(e.args)} match the call; not oracle-supported")
        if callees:
            self._lower_all(e.args, stack, out)
            out[:] = [actions + list(tail) for actions in out for tail in self.method_actions(callees[0], stack)]
            self._check_cap(stack[-1], len(out))
            return
        if q is not None:
            # lock recognition wins over the allowlist: java.util.concurrent.locks
            # types are allowlisted yet their lock()/unlock() calls are monitors
            if e.name == "tryLock" or e.name in self.lock_methods or e.name in self.unlock_methods:
                lf = self.cm.denotes(q)
                if lf is not None and id(lf) in self.lock_field_ids:
                    if e.name == "tryLock":
                        raise UnsupportedForOracle(
                            f"{self.decl.name}: tryLock acquisition may fail; not oracle-supported"
                        )
                    self._lower(q, stack, out)
                    self._lower_all(e.args, stack, out)
                    self._emit(out, Op.LOCK if e.name in self.lock_methods else Op.UNLOCK, f"lock:this.{lf.name}")
                    return
            f = self.cm.field_of(q)
            if f is not None:
                if e.name in self.cm.mutator_methods:
                    self._lower_all(e.args, stack, out)
                    self._access(f, True, out)
                else:
                    self._access(f, False, out)
                    self._lower_all(e.args, stack, out)
                return
            self._lower(q, stack, out)
        self._lower_all(e.args, stack, out)

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

    Every list is lowered and validated, in order, before this returns; each
    pair is built only when the iterator reaches it."""
    b = _DriverBuilder(cm, **kw)
    owner: dict[tuple[ActionSpec, ...], str] = {}
    for m in cm.decl.methods:
        if m.is_public:
            for actions in b.method_actions(m):
                owner.setdefault(actions, m.name)
    lowered = list(owner.items())
    for actions, name in lowered:
        try:
            ThreadProgram.build([actions])
        except MalformedExecution as exc:
            # one thread fails only by unlocking what it does not hold
            raise UnsupportedForOracle(f"{cm.decl.name}.{name} unlocks {exc.action.target!r} "
                                       "without holding it; not oracle-supported") from None
    init = b.init_actions()
    return (ThreadProgram.build([actions1, actions2], init, f"{cm.decl.name}:{name1}|{name2}")
            for i, (actions1, name1) in enumerate(lowered) for actions2, name2 in lowered[i:])


def check_class(cm: ClassModel, action_budget: int = DEFAULT_ACTION_BUDGET, **kw) -> OracleVerdict:
    """Exhaustive race check over every two-thread driver of the class."""
    checked = 0
    try:
        for d in two_thread_drivers(cm, **kw):
            report = program_races(d, action_budget=action_budget)
            checked += 1
            if report.raced:
                return OracleVerdict(cm.class_id, True, report, checked, "checked")
    except UnsupportedForOracle as exc:
        return OracleVerdict(cm.class_id, False, None, 0, "unsupported", str(exc))
    except BudgetExceeded as exc:  # over the path cap (no driver checked) or the action budget
        return OracleVerdict(cm.class_id, False, None, checked, "budget-exceeded", str(exc))
    return OracleVerdict(cm.class_id, False, None, checked, "checked")
