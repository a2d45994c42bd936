"""Build oracle thread programs from analyzed classes.

The driver mirrors the external usage contract of a thread-safe class: a
main thread initializes the object (one init action per field, in
declaration order), then worker threads each call one public method. Method
bodies must be straight-line (no branches or loops); same-class calls are
inlined.

Statement-to-action mapping: every field read/write becomes a read/write
action (volatile fields use the volatile variants), lock-field lock()/
unlock() calls become monitor actions (namespaced ``lock:`` so an explicit
Lock object never aliases the intrinsic monitor of a synchronized block on
the same field), synchronized methods and blocks wrap their bodies in
monitor actions, and a statement touching no field or
monitor contributes one ``local`` action. Mutator calls and array-element
writes count as writes of the field. Accesses to fields of allowlisted
(thread-safe) types are trusted to synchronize internally and contribute
local actions only, mirroring the static exemption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from threadlint.classmodel import ClassModel, is_default_initialized
from threadlint.errors import BudgetExceeded, UnsupportedForOracle
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
    _canonical_sync_monitor,
    is_lock_type,
)

ActionSpec = tuple[Op, Optional[str]]


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
        self.fields = {f.name: f for f in cm.decl.fields}
        self.lock_types = lock_types
        self.lock_methods = lock_methods
        self.unlock_methods = unlock_methods
        self.methods_by_sig = {(m.name, m.arity): m for m in cm.decl.methods}

    # -- field classification --

    def _own_field(self, name: str, locals_: set[str]) -> Optional[A.FieldDecl]:
        if name in locals_:
            return None
        return self.fields.get(name)

    def _field_of_expr(self, e: A.Expr, locals_: set[str]) -> Optional[A.FieldDecl]:
        while isinstance(e, A.Paren):
            e = e.inner
        if isinstance(e, A.Name):
            return self._own_field(e.identifier, locals_)
        if isinstance(e, A.FieldSel) and isinstance(e.qualifier, A.This):
            return self.fields.get(e.name)
        if (
            isinstance(e, A.FieldSel)
            and isinstance(e.qualifier, A.Name)
            and e.qualifier.identifier == self.decl.name
        ):
            f = self.fields.get(e.name)
            return f if f is not None and f.is_static else None
        return None

    def _is_lock_field(self, f: A.FieldDecl) -> bool:
        return is_lock_type(f.declared_type, self.lock_types) or is_lock_type(
            f.resolved_type, self.lock_types
        )

    def _read_op(self, f: A.FieldDecl) -> ActionSpec:
        if self.cm.allowlist.contains(f):
            return (Op.LOCAL, None)
        if f.is_volatile:
            return (Op.VOLATILE_READ, f.name)
        return (Op.READ, f.name)

    def _write_op(self, f: A.FieldDecl) -> ActionSpec:
        if self.cm.allowlist.contains(f):
            return (Op.LOCAL, None)
        if f.is_volatile:
            return (Op.VOLATILE_WRITE, f.name)
        return (Op.WRITE, f.name)

    # -- lowering --

    def method_actions(self, m: A.MethodDecl, stack: tuple[str, ...] = ()) -> list[ActionSpec]:
        if m.body is None:
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: no body")
        if m.name in stack:
            raise UnsupportedForOracle(f"{self.decl.name}.{m.name}: recursive call chain")
        locals_ = {p.name for p in m.params}
        actions: list[ActionSpec] = []
        monitor = None
        if m.is_synchronized:
            monitor = f"Class<{self.decl.name}>" if m.is_static else "this"
            actions.append((Op.LOCK, monitor))
        for s in m.body.stmts:
            actions.extend(self._stmt_actions(s, locals_, stack + (m.name,)))
        if monitor is not None:
            actions.append((Op.UNLOCK, monitor))
        return actions

    def _stmt_actions(self, s: A.Stmt, locals_: set[str], stack: tuple[str, ...]) -> list[ActionSpec]:
        if isinstance(s, (A.If, A.While, A.For, A.ForEach, A.Try, A.Throw)):
            raise UnsupportedForOracle(
                f"{self.decl.name}: {type(s).__name__.lower()} statements are not oracle-supported "
                "(straight-line bodies only)"
            )
        if isinstance(s, A.Empty):
            return []
        if isinstance(s, A.Block):
            out: list[ActionSpec] = []
            for inner in s.stmts:
                out.extend(self._stmt_actions(inner, locals_, stack))
            return out
        if isinstance(s, A.Sync):
            monitor = _canonical_sync_monitor(s.monitor, self.decl)
            out = [(Op.LOCK, monitor.identity)]
            for inner in s.body.stmts:
                out.extend(self._stmt_actions(inner, locals_, stack))
            out.append((Op.UNLOCK, monitor.identity))
            return out
        if isinstance(s, A.LocalDecl):
            out = []
            for d in s.declarators:
                if d.init is not None:
                    out.extend(self._expr_actions(d.init, locals_, stack))
                locals_.add(d.name)
            return out or [(Op.LOCAL, None)]
        if isinstance(s, A.Return):
            if s.value is None:
                return [(Op.LOCAL, None)]
            return self._expr_actions(s.value, locals_, stack) or [(Op.LOCAL, None)]
        if isinstance(s, A.ExprStmt):
            return self._expr_actions(s.expr, locals_, stack) or [(Op.LOCAL, None)]
        raise UnsupportedForOracle(f"{self.decl.name}: unsupported statement {type(s).__name__}")

    def _expr_actions(self, e: A.Expr, locals_: set[str], stack: tuple[str, ...]) -> list[ActionSpec]:
        """Field and monitor actions of one expression, in evaluation order."""
        out: list[ActionSpec] = []
        self._visit(e, locals_, stack, out)
        return [a for a in out if a[0] is not Op.LOCAL] or (
            [(Op.LOCAL, None)] if out else []
        )

    def _visit(self, e: A.Expr, locals_: set[str], stack, out: list[ActionSpec]) -> None:
        if isinstance(e, (A.Literal, A.This, A.ClassLit)):
            return
        if isinstance(e, (A.Name, A.FieldSel)):
            f = self._field_of_expr(e, locals_)
            if f is not None:
                out.append(self._read_op(f))
            elif isinstance(e, A.FieldSel):
                self._visit(e.qualifier, locals_, stack, out)
            return
        if isinstance(e, A.Unary) and e.op in ("++", "--"):
            f = self._field_of_expr(e.operand, locals_)
            if f is not None:
                out.append(self._read_op(f))
                out.append(self._write_op(f))
                return
        if isinstance(e, A.Assign):
            self._assign_actions(e, locals_, stack, out)
            return
        if isinstance(e, A.Call):
            self._call_actions(e, locals_, stack, out)
            return
        if isinstance(e, (A.New, A.Index, A.Unary, A.Binary, A.Paren)):
            for c in A.children(e):
                self._visit(c, locals_, stack, out)
            return
        raise UnsupportedForOracle(f"{self.decl.name}: unsupported expression {type(e).__name__}")

    def _assign_actions(self, e: A.Assign, locals_: set[str], stack, out) -> None:
        target = e.target
        while isinstance(target, A.Paren):
            target = target.inner
        f = self._field_of_expr(target, locals_)
        if f is not None:
            if e.op != "=":
                out.append(self._read_op(f))
            self._visit(e.value, locals_, stack, out)
            out.append(self._write_op(f))
            return
        if isinstance(target, A.Index):
            base = target
            indices = []
            while isinstance(base, A.Index):
                indices.append(base.index)
                base = base.base
            root = self._field_of_expr(base, locals_)
            for ix in indices:
                self._visit(ix, locals_, stack, out)
            self._visit(e.value, locals_, stack, out)
            if root is not None:
                out.append(self._write_op(root))
            return
        # local target: only the RHS matters
        self._visit(e.value, locals_, stack, out)

    def _call_actions(self, e: A.Call, locals_: set[str], stack, out) -> None:
        q = e.qualifier
        if q is None or isinstance(q, A.This):
            callee = self.methods_by_sig.get((e.name, len(e.args)))
            if callee is not None:
                for a in e.args:
                    self._visit(a, locals_, stack, out)
                out.extend(self.method_actions(callee, stack))
                return
            for a in e.args:
                self._visit(a, locals_, stack, out)
            out.append((Op.LOCAL, None))  # unresolvable call: an "other" action
            return
        f = self._field_of_expr(q, locals_)
        # lock recognition wins over the allowlist: java.util.concurrent.locks
        # types are allowlisted yet their lock()/unlock() calls are monitors
        if f is not None and self._is_lock_field(f):
            if e.name == "tryLock":
                raise UnsupportedForOracle(
                    f"{self.decl.name}: tryLock acquisition may fail; not oracle-supported"
                )
            if e.name in self.lock_methods:
                for a in e.args:
                    self._visit(a, locals_, stack, out)
                out.append((Op.LOCK, f"lock:this.{f.name}"))
                return
            if e.name in self.unlock_methods:
                for a in e.args:
                    self._visit(a, locals_, stack, out)
                out.append((Op.UNLOCK, f"lock:this.{f.name}"))
                return
        if f is not None:
            if e.name in self.cm.mutator_methods:
                for a in e.args:
                    self._visit(a, locals_, stack, out)
                out.append(self._write_op(f))
            else:
                out.append(self._read_op(f))
                for a in e.args:
                    self._visit(a, locals_, stack, out)
            return
        if q is not None:
            self._visit(q, locals_, stack, out)
        for a in e.args:
            self._visit(a, locals_, stack, out)
        out.append((Op.LOCAL, None))

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


def driver_for_pair(cm: ClassModel, m1: A.MethodDecl, m2: A.MethodDecl, **kw) -> ThreadProgram:
    """Two-thread driver: main initializes, then each thread calls one method."""
    b = _DriverBuilder(cm, **kw)
    return ThreadProgram.build(
        threads=[b.method_actions(m1), b.method_actions(m2)],
        init=b.init_actions(),
        name=f"{cm.decl.name}:{m1.name}|{m2.name}",
    )


def two_thread_drivers(cm: ClassModel, **kw) -> list[ThreadProgram]:
    """One driver per unordered pair (with repetition) of public methods."""
    public = [m for m in cm.decl.methods if m.is_public]
    out = []
    for i, m1 in enumerate(public):
        for m2 in public[i:]:
            out.append(driver_for_pair(cm, m1, m2, **kw))
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
