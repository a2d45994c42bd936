"""Build oracle thread programs from analyzed classes.

The driver mirrors the external usage contract of a thread-safe class: a
main thread initializes the object (one init action per field, in
declaration order), then worker threads each call one public method. Method
bodies must be straight-line (no branches or loops); same-class calls are
inlined, and a call that may run more than one overload makes the class
unsupported.

Binding comes from the class model, classification is the driver's own.
What a name, a lock()/unlock() receiver or a call denotes is asked of the
class model (:meth:`ClassModel.field_of`, :meth:`ClassModel.denotes`,
:meth:`ClassModel.callees`), and a synchronized block's monitor of
:func:`threadlint.monitors.sync_monitor`, so the oracle and the static rules
never disagree about scoping. Whether an access reads or writes, and in
which order a statement's actions run, is decided here independently of the
static collector, so the oracle still catches a static classification miss.

Statement-to-action mapping: every field read/write becomes a read/write
action (volatile fields use the volatile variants), lock-field lock()/
unlock() calls become monitor actions (namespaced ``lock:`` so an explicit
Lock object never aliases the intrinsic monitor of a synchronized block on
the same field), and synchronized methods and blocks wrap their bodies in
monitor actions. Mutator calls and array-element writes (``a[i] = v``,
``a[i] += v``, ``a[i]++``) count as writes of the field. Accesses to fields
of allowlisted (thread-safe) types are trusted to synchronize internally and
contribute no action, mirroring the static exemption. A write to another
object's field (``peer.n = v``) reads ``peer`` before ``v``, as Java does, and
a monitor or lock reference is read before it is locked or unlocked. A public
method that, run on its own thread, unlocks a monitor it does not hold makes
the class unsupported.

One walk decides on names, field selections, assignments, ``++``/``--``,
calls and synchronized blocks. It lowers the straight-line kinds ``Block``,
``LocalDecl``, ``ExprStmt``, ``Return``, ``Empty``, ``New``, ``Index``,
``Unary``, ``Binary``, ``Paren``, ``Literal``, ``This`` and ``ClassLit``
through :func:`threadlint.frontend.ast.children`. Every other kind, a new
one included, makes the class unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

# kinds with no action of their own, lowered through ``A.children``
_STRAIGHT_LINE = frozenset({A.Block, A.LocalDecl, A.ExprStmt, A.Return, A.Empty, A.New, A.Index, A.Unary,
                            A.Binary, A.Paren, A.Literal, A.This, A.ClassLit})


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

    # -- field classification --

    def _access(self, f: A.FieldDecl, write: bool, out: list[ActionSpec]) -> None:
        """Append the read or write of ``f``; nothing for an allowlisted field."""
        if self.cm.allowlist.contains(f):
            return
        if f.is_volatile:
            out.append((Op.VOLATILE_WRITE if write else Op.VOLATILE_READ, f.name))
        else:
            out.append((Op.WRITE if write else Op.READ, f.name))

    # -- lowering --

    def method_actions(self, m: A.MethodDecl, stack: tuple[A.MethodDecl, ...] = ()) -> list[ActionSpec]:
        """Actions of one call of ``m``; ``stack`` holds the inlining callers."""
        if m.body is None:
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: no body")
        if any(c is m for c in stack):
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: recursive call chain")
        stack += (m,)
        actions: list[ActionSpec] = []
        monitor = None
        if m.is_synchronized:
            monitor = f"Class<{self.decl.name}>" if m.is_static else "this"
            actions.append((Op.LOCK, monitor))
        self._lower(m.body, stack, actions)
        if monitor is not None:
            actions.append((Op.UNLOCK, monitor))
        return actions

    def _lower(self, n: A.Node, stack: tuple[A.MethodDecl, ...], out: list[ActionSpec]) -> None:
        """Append the field and monitor actions of ``n``, in evaluation order;
        raise UnsupportedForOracle for a kind not decided on here."""
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
        elif t is A.Sync:
            # the reference is read before it is locked; a parameter or
            # non-alias local guards nothing: no monitor actions
            self._lower(n.monitor, stack, out)
            monitor = sync_monitor(n.monitor, self.cm)
            if monitor is not None:
                out.append((Op.LOCK, monitor.identity))
            self._lower(n.body, stack, out)
            if monitor is not None:
                out.append((Op.UNLOCK, monitor.identity))
        elif t in _STRAIGHT_LINE:
            for c in A.children(n):
                self._lower(c, stack, out)
        elif isinstance(n, A.Stmt):
            raise UnsupportedForOracle(
                f"{self.decl.name}: {t.__name__.lower()} statements are not oracle-supported "
                "(straight-line bodies only)"
            )
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
        for ix in reversed(indices):  # Java evaluates the leftmost index first
            self._lower(ix, stack, out)
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
            for a in e.args:
                self._lower(a, stack, out)
            out.extend(self.method_actions(callees[0], stack))
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
                    for a in e.args:
                        self._lower(a, stack, out)
                    op = Op.LOCK if e.name in self.lock_methods else Op.UNLOCK
                    out.append((op, f"lock:this.{lf.name}"))
                    return
            f = self.cm.field_of(q)
            if f is not None:
                if e.name in self.cm.mutator_methods:
                    for a in e.args:
                        self._lower(a, stack, out)
                    self._access(f, True, out)
                else:
                    self._access(f, False, out)
                    for a in e.args:
                        self._lower(a, stack, out)
                return
            self._lower(q, stack, out)
        for a in e.args:
            self._lower(a, stack, out)

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


def two_thread_drivers(cm: ClassModel, **kw) -> list[ThreadProgram]:
    """One driver per unordered pair (with repetition) of public methods:
    main initializes, then each thread calls one method of the pair."""
    b = _DriverBuilder(cm, **kw)
    lowered = [(m.name, b.method_actions(m)) for m in cm.decl.methods if m.is_public]
    for name, actions in lowered:
        try:
            ThreadProgram.build([actions])  # the method on its own thread
        except MalformedExecution as exc:
            raise UnsupportedForOracle(f"{cm.decl.name}.{name}: {exc}; not oracle-supported") from None
    init = b.init_actions()
    out = []
    for i, (name1, actions1) in enumerate(lowered):
        for name2, actions2 in lowered[i:]:
            out.append(ThreadProgram.build([actions1, actions2], init, f"{cm.decl.name}:{name1}|{name2}"))
    return out


def check_class(cm: ClassModel, action_budget: int = DEFAULT_ACTION_BUDGET, **kw) -> OracleVerdict:
    """Exhaustive race check over every two-thread driver of the class."""
    try:
        drivers = two_thread_drivers(cm, **kw)
    except UnsupportedForOracle as exc:
        return OracleVerdict(cm.class_id, False, None, 0, "unsupported", str(exc))
    checked = 0
    try:
        for d in drivers:
            report = program_races(d, action_budget=action_budget)
            checked += 1
            if report.raced:
                return OracleVerdict(cm.class_id, True, report, checked, "checked")
    except BudgetExceeded as exc:
        return OracleVerdict(cm.class_id, False, None, checked, "budget-exceeded", str(exc))
    return OracleVerdict(cm.class_id, False, None, checked, "checked")
