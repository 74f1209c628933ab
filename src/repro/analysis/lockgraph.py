"""Interprocedural lock-acquisition graph (C001/C002 substrate).

Built on :class:`repro.analysis.callgraph.Project`.  The analysis is
three-layered:

1. **Lock identity.**  A lock is named by where it lives, not by the
   local variable that happens to hold it: ``self._dws_locks[i]`` in a
   ``Syncer`` method is ``repro.core.syncer.syncer.Syncer._dws_locks``
   for every ``i`` (a lock *family* shares one ordering discipline),
   and a module-level ``_LOCK`` is ``module._LOCK``.  Locks passed as
   bare parameters are unresolvable and deliberately ignored — the
   repo's idiom keeps locks on ``self`` or at module scope.

2. **Held-region scan.**  Each function body is scanned in source
   order with a held-lock stack: ``yield x.acquire()`` (kernel locks),
   bare ``x.acquire()`` and ``with x:`` (thread locks) push;
   ``x.release()`` and ``with``-exit pop.  While the stack is
   non-empty the scan records (a) direct nested acquisitions, (b) every
   call site with the locks held at it, and (c) blocking kernel waits
   (``sim.timeout``, ``any_of``/``all_of``, bare event yields) — the
   C001 events.

3. **Interprocedural closure.**  A fixpoint over the call graph
   computes each function's transitive acquire-set; a call made while
   holding L adds edges L -> every lock the callee can acquire.  Cycles
   in the resulting graph (including self-loops: re-acquiring a
   non-reentrant lock) are the C002 findings.

Branches are scanned sequentially (both arms of an ``if`` contribute),
which can neither miss a nesting that exists on some path nor invent a
lock identity — it can at worst pair an acquire in one arm with a wait
in another; see DESIGN.md §17 for the precision notes.
"""

import ast

from .callgraph import dotted_name

# Constructors whose result is a lock.  Kernel locks (the simkernel
# primitives) participate in C001 — holding one across a kernel wait
# stalls every FIFO waiter; thread locks only participate in C002.
KERNEL_LOCK_CONSTRUCTORS = {"Lock", "Semaphore"}
THREAD_LOCK_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
}

# Dotted-name suffixes of blocking kernel waits (C001).
_WAIT_SUFFIXES = (".timeout", ".any_of", ".all_of")
_WAIT_NAMES = {"Timeout", "any_of", "all_of"}


class LockInfo:
    """One lock (or lock family): identity plus kind."""

    __slots__ = ("lock_id", "kernel")

    def __init__(self, lock_id, kernel):
        self.lock_id = lock_id
        self.kernel = kernel

    def __repr__(self):
        kind = "kernel" if self.kernel else "thread"
        return f"<LockInfo {self.lock_id} ({kind})>"


class LockEdge:
    """``held`` was held when ``acquired`` was acquired at ``site``."""

    __slots__ = ("held", "acquired", "path", "line", "col", "caller",
                 "via")

    def __init__(self, held, acquired, path, line, col, caller, via=None):
        self.held = held
        self.acquired = acquired
        self.path = path
        self.line = line
        self.col = col
        self.caller = caller
        self.via = via  # callee qualname for interprocedural edges

    def key(self):
        return (self.held, self.acquired, self.path, self.line, self.col)


class WaitWhileHeld:
    """A blocking kernel wait yielded while a kernel lock is held."""

    __slots__ = ("lock_id", "wait", "path", "line", "col", "caller")

    def __init__(self, lock_id, wait, path, line, col, caller):
        self.lock_id = lock_id
        self.wait = wait
        self.path = path
        self.line = line
        self.col = col
        self.caller = caller


def _constructor_kind(resolved):
    """'kernel' / 'thread' / None for a resolved constructor name."""
    if resolved is None:
        return None
    tail = resolved.rsplit(".", 1)[-1]
    if resolved in THREAD_LOCK_CONSTRUCTORS:
        return "thread"
    if tail in KERNEL_LOCK_CONSTRUCTORS \
            and not resolved.startswith("threading."):
        return "kernel"
    return None


class _FunctionScan(ast.NodeVisitor):
    """Source-order scan of one function body with a held-lock stack."""

    def __init__(self, graph, info):
        self.graph = graph
        self.info = info
        self.held = []           # LockInfo, acquisition order
        self.aliases = {}        # local name -> LockInfo
        self.calls_while_held = []   # (tuple of lock ids, callee, node)
        self.acquired = set()    # every lock id this body acquires

    # -- lock identity -------------------------------------------------

    def _lock_for(self, node):
        """LockInfo for an expression naming a lock, or None."""
        if isinstance(node, ast.Subscript):
            return self._lock_for(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            return self.graph.module_locks.get(
                (self.info.module, node.id))
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and self.info.class_name:
            cls_qual = f"{self.info.module}.{self.info.class_name}"
            return self.graph.lock_attr(cls_qual, node.attr)
        return None

    # -- events --------------------------------------------------------

    def _push(self, lock, node):
        for holder in self.held:
            self.graph.add_edge(LockEdge(
                holder.lock_id, lock.lock_id, self.info.path,
                node.lineno, node.col_offset, self.info.qualname))
        self.held.append(lock)
        self.acquired.add(lock.lock_id)

    def _pop(self, lock):
        for index in range(len(self.held) - 1, -1, -1):
            if self.held[index].lock_id == lock.lock_id:
                del self.held[index]
                return

    def _on_call(self, node):
        """Record call sites made while holding locks (for closure)."""
        callee = self.graph.callee_of(node)
        if callee is not None:
            held_ids = tuple(lock.lock_id for lock in self.held)
            self.calls_while_held.append((held_ids, callee, node))

    def _classify_wait(self, call):
        """A human-readable wait description for a blocking call."""
        name = dotted_name(call.func)
        if name is None:
            return None
        if name in _WAIT_NAMES:
            return f"{name}(...)"
        for suffix in _WAIT_SUFFIXES:
            if name.endswith(suffix) or name == suffix[1:]:
                return f"{name}(...)"
        return None

    def _on_yield(self, node):
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            return  # the descent into the Call pushes the lock
        wait = self._classify_wait(value)
        if wait is None:
            return
        for holder in self.held:
            if holder.kernel:
                self.graph.waits.append(WaitWhileHeld(
                    holder.lock_id, wait, self.info.path, node.lineno,
                    node.col_offset, self.info.qualname))

    # -- traversal -----------------------------------------------------

    def _scan_expr(self, node):
        """Pre-order walk of an expression, nested defs excluded."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._on_yield(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("acquire", "release"):
                lock = self._lock_for(func.value)
                if lock is not None:
                    if func.attr == "acquire":
                        # Bare (un-yielded) acquire: thread-lock idiom.
                        self._push(lock, node)
                    else:
                        self._pop(lock)
                    return
            self._on_call(node)
        for child in ast.iter_child_nodes(node):
            self._scan_expr(child)

    def _bind(self, target, value):
        """Alias a local name to the lock ``value`` names; a tuple target
        binds element by element against a tuple value of equal length
        (``name, lock = ("x", self._locks[i])``)."""
        if isinstance(target, ast.Tuple):
            if isinstance(value, ast.Tuple) \
                    and len(target.elts) == len(value.elts):
                for element, element_value in zip(target.elts, value.elts):
                    self._bind(element, element_value)
            return
        if isinstance(target, ast.Name):
            lock = self._lock_for(value)
            if lock is not None:
                self.aliases[target.id] = lock

    def _scan_stmts(self, stmts):
        for stmt in stmts:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value)
            return
        if isinstance(stmt, ast.With):
            entered = []
            for item in stmt.items:
                self._scan_expr(item.context_expr)
                lock = self._lock_for(item.context_expr)
                if lock is not None:
                    self._push(lock, item.context_expr)
                    entered.append(lock)
            self._scan_stmts(stmt.body)
            for lock in reversed(entered):
                self._pop(lock)
            return
        if isinstance(stmt, ast.Try):
            self._scan_stmts(stmt.body)
            for handler in stmt.handlers:
                self._scan_stmts(handler.body)
            self._scan_stmts(stmt.orelse)
            self._scan_stmts(stmt.finalbody)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test)
            self._scan_stmts(stmt.body)
            self._scan_stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            self._scan_expr(stmt.iter)
            self._scan_stmts(stmt.body)
            self._scan_stmts(stmt.orelse)
            return
        for child in ast.iter_child_nodes(stmt):
            self._scan_expr(child)

    def run(self):
        self._scan_stmts(self.info.node.body)
        return self


class LockGraph:
    """The project's lock-acquisition graph plus C001 wait events."""

    def __init__(self, project):
        self.project = project
        self.class_locks = {}    # (class qualname, attr) -> LockInfo
        self.module_locks = {}   # (module, name) -> LockInfo
        self.edges = {}          # (held, acquired) -> [LockEdge]
        self.waits = []          # WaitWhileHeld events (C001)
        self.acquires = {}       # function qualname -> set of lock ids
        self._callee_by_node = {}
        self._collect_locks()
        self._index_calls()
        self._scan_functions()
        self._close_over_calls()

    # -- construction --------------------------------------------------

    def _collect_locks(self):
        for qualname in sorted(self.project.classes):
            cls = self.project.classes[qualname]
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    value = node.value
                    kind = self._value_lock_kind(value, cls.module)
                    if kind is None:
                        continue
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            lock_id = f"{qualname}.{target.attr}"
                            self.class_locks[(qualname, target.attr)] = \
                                LockInfo(lock_id, kind == "kernel")
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            for node in module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                kind = self._value_lock_kind(node.value, name)
                if kind is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lock_id = f"{name}.{target.id}"
                        self.module_locks[(name, target.id)] = \
                            LockInfo(lock_id, kind == "kernel")

    def _value_lock_kind(self, value, module_name):
        """Lock kind of an assigned value (constructors, lock lists)."""
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                kind = self._value_lock_kind(element, module_name)
                if kind is not None:
                    return kind
            return None
        if isinstance(value, ast.ListComp):
            return self._value_lock_kind(value.elt, module_name)
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        module = self.project.modules.get(module_name)
        if module is not None:
            head, _, rest = name.partition(".")
            if head in module.name_imports:
                base = module.name_imports[head]
                name = f"{base}.{rest}" if rest else base
            elif head in module.module_aliases:
                base = module.module_aliases[head]
                name = f"{base}.{rest}" if rest else base
        return _constructor_kind(name)

    def lock_attr(self, cls_qualname, attr):
        """LockInfo for ``self.<attr>``, searching base classes too."""
        seen = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            lock = self.class_locks.get((current, attr))
            if lock is not None:
                return lock
            cls = self.project.classes.get(current)
            if cls is None:
                continue
            for base in cls.bases:
                base_cls = self.project.class_by_name(
                    base.rsplit(".", 1)[-1])
                if base_cls is not None:
                    stack.append(base_cls.qualname)
        return None

    def _index_calls(self):
        for sites in self.project.call_sites.values():
            for site in sites:
                if site.callee is not None:
                    self._callee_by_node[site.node] = site.callee

    def callee_of(self, node):
        return self._callee_by_node.get(node)

    def _scan_functions(self):
        self._held_calls = []
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            scan = _FunctionScan(self, info).run()
            self.acquires[qualname] = scan.acquired
            for held_ids, callee, node in scan.calls_while_held:
                self._held_calls.append((held_ids, callee, node, info))

    def _close_over_calls(self):
        """Fixpoint transitive acquire-sets, then interprocedural edges."""
        transitive = {qualname: set(locks)
                      for qualname, locks in self.acquires.items()}
        changed = True
        while changed:
            changed = False
            for qualname in transitive:
                current = transitive[qualname]
                before = len(current)
                for callee in self.project.callees(qualname):
                    current |= transitive.get(callee, frozenset())
                if len(current) != before:
                    changed = True
        self.transitive_acquires = transitive
        for held_ids, callee, node, info in self._held_calls:
            if not held_ids:
                continue
            for lock_id in sorted(
                    transitive.get(callee, frozenset())):
                for held in held_ids:
                    self.add_edge(LockEdge(
                        held, lock_id, info.path, node.lineno,
                        node.col_offset, info.qualname, via=callee))

    def add_edge(self, edge):
        self.edges.setdefault((edge.held, edge.acquired), []).append(edge)

    # -- queries -------------------------------------------------------

    def adjacency(self):
        out = {}
        for held, acquired in self.edges:
            out.setdefault(held, set()).add(acquired)
        return out

    def cycles(self):
        """Lock-order cycles: sorted lists of lock ids (C002).

        Every strongly-connected component with an internal edge is a
        cycle — including single-lock components with a self-loop (a
        re-acquire of a non-reentrant lock).
        """
        adjacency = self.adjacency()
        index = {}
        lowlink = {}
        on_stack = set()
        stack = []
        components = []
        counter = [0]

        def strongconnect(node):
            # Iterative Tarjan (explicit work stack; no recursion limit).
            work = [(node, iter(sorted(adjacency.get(node, ()))))]
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index:
                        index[successor] = lowlink[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor,
                                     iter(sorted(adjacency.get(
                                         successor, ())))))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[current] = min(lowlink[current],
                                               index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[current])
                if lowlink[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    components.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)

        result = []
        for component in components:
            if len(component) > 1:
                result.append(component)
            elif (component[0], component[0]) in self.edges:
                result.append(component)
        return sorted(result)

    def cycle_edges(self, component):
        """Deterministically-ordered edges inside one cycle component."""
        members = set(component)
        edges = []
        for (held, acquired), sites in sorted(self.edges.items()):
            if held in members and acquired in members:
                best = min(sites, key=lambda e: (e.path, e.line, e.col))
                edges.append(best)
        return edges
