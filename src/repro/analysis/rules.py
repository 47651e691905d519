"""Repo-specific lint rules (RPR001–RPR012).

Each rule encodes one of the conventions the subset-skyline reproduction
depends on for *correctness of its reported numbers*, not just style:

- **RPR001** — every dominance-kernel call must thread a
  ``DominanceCounter``, or EXPERIMENTS.md's mean-DT numbers silently
  undercount.
- **RPR002** — subspace bitmasks may only be manipulated through
  :mod:`repro.structures.bitset` / :mod:`repro.core.subspace`; ad-hoc
  bit surgery is how Lemma 4.2/4.3/5.1 soundness quietly breaks.
- **RPR003** — every module in ``algorithms/`` defines exactly one
  algorithm and exports ``__all__``, keeping the registry auditable.
- **RPR004** — no per-element ``float(arr[i])`` conversions inside
  per-point loops; convert once outside the loop (``.tolist()``).
- **RPR005** — no direct ``SubsetBoost(...)`` construction outside
  ``core/`` and ``engine/``; hand-wired boosts bypass the engine's
  prepared caches and planner, recreating the duplication the engine
  refactor removed.
- **RPR006** — no raw ``time.perf_counter()`` / ``time.process_time()``
  calls outside ``obs/`` and ``algorithms/base.py``; ad-hoc clocks define
  "elapsed" differently per call site, so measurements flow through
  :mod:`repro.obs.clock` and the tracer instead.
- **RPR007** — no direct ``SkylineIndex(...)`` construction outside
  ``core/`` and ``engine/``; the container (``SubsetContainer``) is the
  sanctioned construction point, so a hand-built index skips the grouped
  scan's walks, the candidate gather and their accounting.

RPR008–RPR010 are *project* rules (:class:`ProjectRule`): they run over
the whole-program model from :mod:`repro.analysis.project` — symbol
table, conservative call graph and per-function mutation summaries —
instead of one module at a time:

- **RPR008** — cache-invalidation coherence: a method of a versioned
  class that mutates a memo-backing attribute must bump the
  generation/version or invalidate.
- **RPR009** — worker-shared-state safety: code reachable from a pool
  submission must not mutate closed-over or global state.
- **RPR010** — interprocedural counter-threading: code that transitively
  reaches a dominance kernel must thread the caller's counter, never a
  throwaway one (RPR001's invariant, lifted across call boundaries).
- **RPR011** — noqa hygiene: suppressions carry justifications and may
  not go stale (engine-implemented; see :mod:`repro.analysis.lint`).
- **RPR012** — no swallowed exceptions: bare ``except:`` and
  ``except Exception: pass`` hide worker failures.

Rules are pure functions of a parsed module (or project); suppression is
line-level ``# noqa: RPRxxx`` (see :mod:`repro.analysis.lint`).
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.analysis.lint import ModuleInfo
from repro.analysis.report import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import Project

_MASKY_NAME = re.compile(r"mask|subspace", re.IGNORECASE)

#: Dominance-kernel functions and the positional index of their counter.
_COUNTED_KERNELS: dict[str, int] = {
    "dominates": 2,
    "weakly_dominates": 2,
    "incomparable": 2,
    "dominating_subspace": 2,
    "dominating_subspaces": 2,
    "first_dominator": 2,
    "first_dominator_prefix": 4,
    "maximum_dominating_subspace": 2,
}

_BITWISE_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.LShift, ast.RShift)


class Rule(ABC):
    """One lint rule: a code, a severity and an AST check."""

    code: str
    name: str
    severity: Severity
    description: str
    #: Posix path suffixes exempt from this rule (the modules that *own*
    #: the convention the rule enforces elsewhere).
    allowlist: tuple[str, ...] = ()
    #: True for rules the engine itself implements after the rule pass
    #: (their ``check`` is a no-op registration stub).
    engine_level: bool = False

    @abstractmethod
    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for ``module`` (already allowlist-filtered)."""

    def applies_to(self, module: ModuleInfo) -> bool:
        path = module.path.resolve().as_posix()
        return not any(path.endswith(suffix) for suffix in self.allowlist)

    def finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(
            rule=self.code,
            path=module.display_path,
            line=line,
            message=message,
            severity=self.severity,
            snippet=module.line(line),
        )


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class UncountedDominance(Rule):
    """RPR001: dominance-kernel calls must thread a ``counter``."""

    code = "RPR001"
    name = "uncounted-dominance"
    severity = Severity.ERROR
    description = (
        "call to a dominance kernel without a DominanceCounter argument; "
        "pass `counter` (or a scratch counter) so mean-DT accounting stays exact"
    )
    allowlist = ("repro/dominance.py",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node.func)
            if called not in _COUNTED_KERNELS:
                continue
            counter_index = _COUNTED_KERNELS[called]
            if len(node.args) > counter_index:
                continue
            if any(kw.arg == "counter" for kw in node.keywords):
                continue
            yield self.finding(
                module,
                node.lineno,
                f"`{called}` called without a counter — dominance tests "
                "performed here are invisible to the DT metric",
            )


def _smells_like_mask(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and _MASKY_NAME.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and _MASKY_NAME.search(node.attr):
            return True
    return False


class RawBitmaskSurgery(Rule):
    """RPR002: bitwise ops on subspace masks outside the bitset modules."""

    code = "RPR002"
    name = "raw-bitmask-surgery"
    severity = Severity.ERROR
    description = (
        "bitwise operator applied to a subspace mask outside "
        "repro.structures.bitset / repro.core.subspace; use the bitset "
        "helpers so subset/superset semantics stay in one audited place"
    )
    allowlist = ("repro/structures/bitset.py", "repro/core/subspace.py")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        reported: set[int] = set()
        for node in ast.walk(module.tree):
            operands: list[ast.expr]
            if isinstance(node, ast.BinOp) and isinstance(node.op, _BITWISE_BINOPS):
                operands = [node.left, node.right]
                op_name = type(node.op).__name__
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, _BITWISE_BINOPS
            ):
                operands = [node.target, node.value]
                op_name = type(node.op).__name__
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
                operands = [node.operand]
                op_name = "Invert"
            else:
                continue
            if node.lineno in reported:
                continue
            if any(_smells_like_mask(operand) for operand in operands):
                reported.add(node.lineno)
                yield self.finding(
                    module,
                    node.lineno,
                    f"raw bitwise {op_name} on a subspace mask — route it "
                    "through repro.structures.bitset",
                )


def _algorithm_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes declaring a class-level ``name = "<str>"`` attribute."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and target.id == "name"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                found.append(node)
                break
    return found


def _exported_names(tree: ast.Module) -> list[str] | None:
    """The module's ``__all__`` as a list of strings, or None if absent."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            return [
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
        return []
    return None


class RegistryHygiene(Rule):
    """RPR003: algorithm modules export ``__all__`` and one algorithm each."""

    code = "RPR003"
    name = "registry-hygiene"
    severity = Severity.ERROR
    description = (
        "modules under algorithms/ must export __all__ and define exactly "
        "one algorithm class (a class with a class-level `name` attribute), "
        "keeping the registry a complete audit of what can run"
    )
    allowlist = (
        "repro/algorithms/__init__.py",
        "repro/algorithms/base.py",
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.path.parent.name != "algorithms":
            return
        if not self.applies_to(module):
            return
        exported = _exported_names(module.tree)
        if exported is None:
            yield self.finding(
                module, 1, "algorithm module does not export __all__"
            )
        classes = _algorithm_classes(module.tree)
        for extra in classes[1:]:
            yield self.finding(
                module,
                extra.lineno,
                f"module defines {len(classes)} algorithm classes; the "
                "registry convention is one per module "
                f"(`{classes[0].name}` already defined)",
            )
        if exported is not None:
            for cls in classes:
                if cls.name not in exported:
                    yield self.finding(
                        module,
                        cls.lineno,
                        f"algorithm class `{cls.name}` is missing from __all__",
                    )


class NumpyScalarLeak(Rule):
    """RPR004: per-element ``float(arr[i])`` conversions inside loops."""

    code = "RPR004"
    name = "numpy-scalar-leak"
    severity = Severity.WARNING
    description = (
        "float(array[index]) inside a per-point loop boxes one numpy scalar "
        "per iteration; hoist the conversion (e.g. `.tolist()`) out of the "
        "hot loop"
    )
    allowlist = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        seen: set[int] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Subscript)
                    and node.lineno not in seen
                ):
                    seen.add(node.lineno)
                    yield self.finding(
                        module,
                        node.lineno,
                        "float() of a subscript inside a loop — convert the "
                        "whole array once before the loop",
                    )


class HandWiredBoost(Rule):
    """RPR005: direct ``SubsetBoost`` construction outside core/ and engine/."""

    code = "RPR005"
    name = "hand-wired-boost"
    severity = Severity.ERROR
    description = (
        "direct SubsetBoost(...) construction outside core/ and engine/; "
        "route the query through repro.engine.SkylineEngine (or the "
        "registry) so prepared caches, planning and counters stay wired — "
        "suppress deliberate low-level wiring with `# noqa: RPR005`"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        path = module.path.resolve().as_posix()
        if "/repro/core/" in path or "/repro/engine/" in path:
            return False
        return super().applies_to(module)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node.func) == "SubsetBoost"
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    "SubsetBoost constructed directly — execute through "
                    "repro.engine.SkylineEngine so Merge results and sort "
                    "orders come from the prepared caches",
                )


class HandBuiltIndex(Rule):
    """RPR007: direct subset-index construction outside core/ and engine/."""

    code = "RPR007"
    name = "hand-built-index"
    severity = Severity.ERROR
    description = (
        "direct SkylineIndex(...) construction outside core/ and engine/; go "
        "through SubsetContainer (or the engine) so the group walks, the "
        "candidate gather and index accounting stay wired — suppress "
        "deliberate low-level wiring with `# noqa: RPR007`"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        path = module.path.resolve().as_posix()
        if "/repro/core/" in path or "/repro/engine/" in path:
            return False
        return super().applies_to(module)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node.func) == "SkylineIndex"
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    "`SkylineIndex` constructed directly — use "
                    "SubsetContainer, which walks it and gathers the "
                    "candidate rows",
                )


#: Raw-clock callables RPR006 polices.  ``time.monotonic``/``time.time``
#: are deliberately excluded: they appear in wall-clock *scheduling* code
#: (pool timeouts), not in measurements.
_RAW_CLOCKS = ("perf_counter", "process_time")


class RawClockRead(Rule):
    """RPR006: raw clock reads outside ``obs/`` and ``algorithms/base.py``."""

    code = "RPR006"
    name = "raw-clock-read"
    severity = Severity.ERROR
    description = (
        "time.perf_counter()/process_time() called outside repro.obs and "
        "algorithms/base.py; use repro.obs.clock.timed()/Stopwatch (or a "
        "tracer span) so every measurement shares one definition of "
        "'elapsed' — suppress deliberate raw reads with `# noqa: RPR006`"
    )
    allowlist = ("repro/algorithms/base.py",)

    def applies_to(self, module: ModuleInfo) -> bool:
        path = module.path.resolve().as_posix()
        if "/repro/obs/" in path:
            return False
        return super().applies_to(module)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node.func)
            if called not in _RAW_CLOCKS:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"raw `{called}()` read — time through "
                "repro.obs.clock.timed()/Stopwatch or a tracer span so the "
                "phase breakdown and the headline numbers agree",
            )


class ProjectRule(Rule):
    """A rule over the whole-program :class:`~repro.analysis.project.Project`.

    Project rules see every module at once (symbol table, call graph,
    mutation summaries) instead of one file at a time.  ``check`` is a
    no-op; the engine calls :meth:`check_project` after parsing the whole
    tree.  Findings still anchor to a module line, so line-level
    ``# noqa`` suppression works unchanged.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    @abstractmethod
    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Yield findings over the whole-program model."""


#: ``self`` attributes that back memoized structures: caches, memo tables,
#: put-logs, gathered blocks, artefact slots, statistics tables.
_MEMO_ATTR = re.compile(
    r"cache|memo|_log\b|_log_|artefact|artifact|block|statistic|column_major",
    re.IGNORECASE,
)
#: Attributes/methods that carry change-versioning for those structures.
_VERSION_ATTR = re.compile(r"generation|version|epoch", re.IGNORECASE)
#: Method names exempt from RPR008: construction and the invalidation
#: machinery itself.
_CACHE_EXEMPT_METHOD = re.compile(
    r"^(__init__|__new__|__post_init__)$|invalidate|clear|reset"
)
#: Call-write verbs that *shrink* a structure — emptying a cache is the
#: invalidation, not a coherence hazard.
_SHRINKING_VERBS = frozenset({"clear", "pop", "popitem", "remove", "discard"})


class CacheCoherence(ProjectRule):
    """RPR008: memo-backing writes must bump a version or invalidate."""

    code = "RPR008"
    name = "cache-coherence"
    severity = Severity.ERROR
    description = (
        "a method of a versioned class mutates an attribute that backs a "
        "memoized structure (cache/memo/put-log/block/statistics slot) "
        "without bumping the generation/version or calling invalidate(); "
        "stale caches silently desynchronize query results from stored "
        "state (guarded get-then-fill memoization is recognized and exempt)"
    )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        for cls in project.table.classes:
            if not self.applies_to(cls.module):
                continue
            summaries = [
                project.mutations[m.qualname]
                for m in cls.methods
                if m.qualname in project.mutations
            ]
            if not self._is_versioned(cls, summaries):
                continue
            for method, summary in zip(cls.methods, summaries):
                if _CACHE_EXEMPT_METHOD.search(method.name):
                    continue
                if _VERSION_ATTR.search(method.name):
                    continue
                yield from self._check_method(cls.module, method, summary)

    @staticmethod
    def _is_versioned(cls, summaries) -> bool:
        for method in cls.methods:
            if _VERSION_ATTR.search(method.name) or "invalidate" in method.name:
                return True
        for summary in summaries:
            for write in summary.self_writes():
                if _VERSION_ATTR.search(write.attr):
                    return True
        return False

    def _check_method(self, module, method, summary) -> Iterator[Finding]:
        memo_writes = [
            w
            for w in summary.self_writes()
            if w.attr
            and _MEMO_ATTR.search(w.attr)
            and not _VERSION_ATTR.search(w.attr)
        ]
        if not memo_writes:
            return
        bumps_version = any(
            _VERSION_ATTR.search(w.attr) for w in summary.self_writes()
        )
        calls_invalidate = self._calls_invalidate(method)
        clears_memo = any(w.via in _SHRINKING_VERBS for w in memo_writes)
        if bumps_version or calls_invalidate or clears_memo:
            return
        guarded = summary.reads_get_of | summary.guard_read_attrs
        for write in memo_writes:
            if write.attr in guarded:
                # get-then-fill memoization: the cache is consulted before
                # it is written, so the write is the memo filling itself.
                continue
            yield self.finding(
                module,
                write.lineno,
                f"`{method.name}` writes memo-backing attribute "
                f"`self.{write.attr}` without bumping a generation/version "
                "or calling invalidate() — downstream cached views go stale",
            )

    @staticmethod
    def _calls_invalidate(method) -> bool:
        for node in ast.walk(method.node):
            if isinstance(node, ast.Call):
                called = _called_name(node.func)
                if called is not None and "invalidate" in called:
                    return True
        return False


#: Worker-submission methods on pool/executor objects.
_SUBMIT_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)
_POOLY_NAME = re.compile(r"pool|executor", re.IGNORECASE)


def _smells_like_pool(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and _POOLY_NAME.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and _POOLY_NAME.search(node.attr):
            return True
        if isinstance(node, ast.Call):
            called = _called_name(node.func)
            if called is not None and _POOLY_NAME.search(called):
                return True
    return False


class WorkerSharedState(ProjectRule):
    """RPR009: worker-submitted code must not mutate shared engine state."""

    code = "RPR009"
    name = "worker-shared-state"
    severity = Severity.ERROR
    description = (
        "a function submitted to a worker pool (pool.map/submit/Process "
        "target) transitively mutates closed-over or global state; workers "
        "run in other processes/threads, so such writes race or silently "
        "vanish — merge results through DominanceCounter.absorb() or "
        "returned survivor lists instead"
    )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        roots: dict[str, tuple] = {}
        for fn in project.table.functions:
            for site in project.graph.calls[fn.qualname]:
                worker_name = self._submitted_callable(site.node)
                if worker_name is None:
                    continue
                for target in project.table.resolve(worker_name):
                    roots.setdefault(
                        target.qualname, (fn.module.display_path, site.lineno)
                    )
        if not roots:
            return
        reachable = project.graph.reachable_from(roots)
        seen: set[tuple[str, int, str]] = set()
        for qualname in sorted(reachable):
            summary = project.mutations[qualname]
            fn = summary.function
            if not self.applies_to(fn.module):
                continue
            for write in summary.shared_writes():
                if self._is_enclosing_local(project, qualname, write.root):
                    # A closure mutating its enclosing function's locals
                    # stays inside one worker call frame — not shared.
                    continue
                slot = f"{write.root}.{write.attr}" if write.attr else write.root
                key = (fn.qualname, write.lineno, slot)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    fn.module,
                    write.lineno,
                    f"`{fn.name}` runs on worker paths but mutates shared "
                    f"state `{slot}` — return results and merge via "
                    "DominanceCounter.absorb()/survivor lists",
                )
            for name, lineno in summary.global_writes:
                key = (fn.qualname, lineno, f"global {name}")
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    fn.module,
                    lineno,
                    f"`{fn.name}` runs on worker paths but rebinds global "
                    f"`{name}` — worker-side global state does not propagate "
                    "back to the parent",
                )

    @staticmethod
    def _is_enclosing_local(project: "Project", qualname: str, root: str) -> bool:
        """True when ``root`` is a local of a function enclosing ``qualname``."""
        module_part, _, dotted = qualname.partition("::")
        parts = dotted.split(".")
        while len(parts) > 1:
            parts = parts[:-1]
            parent = project.mutations.get(f"{module_part}::{'.'.join(parts)}")
            if parent is not None and root in parent.local_names:
                return True
        return False

    @staticmethod
    def _submitted_callable(call: ast.Call) -> str | None:
        func = call.func
        called = _called_name(func)
        if (
            isinstance(func, ast.Attribute)
            and called in _SUBMIT_METHODS
            and _smells_like_pool(func.value)
        ):
            if call.args:
                worker = call.args[0]
                return _called_name(worker) or (
                    worker.id if isinstance(worker, ast.Name) else None
                )
            return None
        if called in ("Process", "Thread"):
            for kw in call.keywords:
                if kw.arg == "target":
                    target = kw.value
                    if isinstance(target, ast.Name):
                        return target.id
                    if isinstance(target, ast.Attribute):
                        return target.attr
        return None


class CounterThreading(ProjectRule):
    """RPR010: kernel-reaching code must thread a counter, not mint one."""

    code = "RPR010"
    name = "counter-threading"
    severity = Severity.ERROR
    description = (
        "a function that transitively reaches a dominance kernel constructs "
        "a throwaway DominanceCounter instead of accepting and forwarding "
        "the caller's; tests recorded on the fresh counter never reach the "
        "DT metric, so EXPERIMENTS.md numbers silently undercount "
        "(conditional defaults `c if c is not None else DominanceCounter()` "
        "and counters that escape — returned, stored, absorbed, read — are "
        "recognized and exempt)"
    )
    allowlist = ("repro/stats/counters.py",)

    def check_project(self, project: "Project") -> Iterator[Finding]:
        reaching = project.graph.reaching(set(_COUNTED_KERNELS))
        for qualname in sorted(reaching):
            fn = project.graph.function(qualname)
            if not self.applies_to(fn.module):
                continue
            yield from self._check_function(fn)

    def _check_function(self, fn) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(fn.node):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and _called_name(node.func) == "DominanceCounter"
            ):
                continue
            if self._is_conditional_default(node, parents):
                continue
            if self._escapes(node, parents, fn):
                continue
            yield self.finding(
                fn.module,
                node.lineno,
                f"`{fn.name}` reaches dominance kernels but constructs a "
                "fresh DominanceCounter whose tests are discarded — accept "
                "a `counter` parameter and forward it",
            )

    @staticmethod
    def _is_conditional_default(node: ast.AST, parents: dict) -> bool:
        cursor = parents.get(node)
        while cursor is not None and not isinstance(cursor, ast.stmt):
            if isinstance(cursor, (ast.IfExp, ast.BoolOp)):
                return True
            cursor = parents.get(cursor)
        return False

    def _escapes(self, node: ast.Call, parents: dict, fn) -> bool:
        stmt = node
        while stmt in parents and not isinstance(stmt, ast.stmt):
            stmt = parents[stmt]
        if isinstance(stmt, (ast.Return, ast.Expr)) and isinstance(
            getattr(stmt, "value", None), (ast.Yield, ast.YieldFrom)
        ):
            return True
        if isinstance(stmt, ast.Return):
            return True
        bound: str | None = None
        if isinstance(stmt, ast.Assign) and stmt.value is node:
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                bound = stmt.targets[0].id
            elif len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], (ast.Attribute, ast.Subscript)
            ):
                # Stored into an attribute/slot: outlives the call frame.
                return True
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is node:
            if isinstance(stmt.target, ast.Name):
                bound = stmt.target.id
            elif isinstance(stmt.target, (ast.Attribute, ast.Subscript)):
                return True
        if bound is None:
            # Inline construction (kernel(p, q, DominanceCounter()) or a
            # bare expression): nothing can ever read the recorded tests.
            return False
        if bound in fn.params:
            # Rebinding a parameter is the `if counter is None:` default
            # idiom — the caller opted out of accounting explicitly.
            return True
        return self._name_escapes(bound, fn)

    @staticmethod
    def _name_escapes(name: str, fn) -> bool:
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None and any(
                    isinstance(sub, ast.Name) and sub.id == name
                    for sub in ast.walk(value)
                ):
                    return True
            elif isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == name
            ):
                # Any attribute read (.tests, .as_dict(), .absorb) means the
                # recorded counts are observed somewhere.
                return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and any(
                    isinstance(sub, ast.Name) and sub.id == name
                    for sub in ast.walk(node.value)
                ):
                    return True
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "absorb":
                    if any(
                        isinstance(sub, ast.Name) and sub.id == name
                        for arg in node.args
                        for sub in ast.walk(arg)
                    ):
                        return True
        return False


class NoqaHygiene(Rule):
    """RPR011: suppressions must be justified and must still suppress.

    Implemented by the lint engine (it needs the post-run finding/usage
    map); registered here so the code shows up in the catalogue,
    ``--select``, ``--explain`` and the fixture suite.
    """

    code = "RPR011"
    name = "noqa-hygiene"
    severity = Severity.ERROR
    description = (
        "every `# noqa: RPRxxx` must carry a justification after the codes "
        "(`# noqa: RPR007 — bare index is deliberate: ...`), and a "
        "suppression whose rule no longer fires on that line is stale and "
        "must be deleted; unexplained or dead suppressions are exactly the "
        "blanket holes the gate exists to close"
    )
    #: Checked by the engine after all selected rules have run.
    engine_level = True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())


class SwallowedException(Rule):
    """RPR012: no bare/blanket exception swallowing."""

    code = "RPR012"
    name = "swallowed-exception"
    severity = Severity.ERROR
    description = (
        "bare `except:` or `except Exception: pass` hides worker failures "
        "and contract violations — catch the narrowest type that the "
        "recovery actually handles, and at minimum record the failure"
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self.applies_to(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    "bare `except:` swallows everything including "
                    "KeyboardInterrupt — name the exception type",
                )
                continue
            caught = _called_name(node.type) or (
                node.type.id if isinstance(node.type, ast.Name) else None
            )
            if caught in self._BROAD and self._body_is_noop(node.body):
                yield self.finding(
                    module,
                    node.lineno,
                    f"`except {caught}: pass` silently discards the failure "
                    "— handle it, log it, or catch something narrower",
                )

    @staticmethod
    def _body_is_noop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Continue):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is ...
            ):
                continue
            return False
        return True


ALL_RULES: tuple[Rule, ...] = (
    UncountedDominance(),
    RawBitmaskSurgery(),
    RegistryHygiene(),
    NumpyScalarLeak(),
    HandWiredBoost(),
    RawClockRead(),
    HandBuiltIndex(),
    CacheCoherence(),
    WorkerSharedState(),
    CounterThreading(),
    NoqaHygiene(),
    SwallowedException(),
)


def rule_codes() -> list[str]:
    """All registered rule codes, sorted."""
    return sorted(rule.code for rule in ALL_RULES)


def active_rules(select: Iterable[str] | None = None) -> Sequence[Rule]:
    """The rules to run: all of them, or the ``select``-ed codes."""
    if select is None:
        return ALL_RULES
    wanted = {code.strip().upper() for code in select}
    unknown = wanted - {rule.code for rule in ALL_RULES}
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {sorted(unknown)}; known: {rule_codes()}"
        )
    return tuple(rule for rule in ALL_RULES if rule.code in wanted)
