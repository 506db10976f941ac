"""The project-invariant rule suite for ``repro lint``.

Each rule guards an invariant documented in ``docs/ARCHITECTURE.md`` /
``docs/DEVTOOLS.md``:

- R001 unseeded-rng     — all randomness flows through the RngTree
- R002 adopt-purity     — ``adopt_arrays`` never reads payload contents
- R003 async-blocking   — service coroutines never block the event loop
- R004 registry-contract — registered schemes carry the full hook surface
- R005 wire-verb-sync   — server/router/client/docs verb tables agree
- R006 typed-errors     — wire/snapshot paths raise typed errors only
- R007 kernel-seam      — popcount/XOR distances go through repro.hamming

Rules are pure AST analyses: nothing here imports or executes the code
under inspection.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.devtools.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleInfo,
    attr_chain,
    _imports_in,
)

__all__ = ["ALL_CHECKERS", "checker_for", "rule_ids"]


def _walk_skipping_strings(tree: ast.AST) -> Iterable[ast.AST]:
    """ast.walk; docstrings/doctests are Constants so never yield calls."""
    return ast.walk(tree)


def _function_scope_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Nodes in a function body, excluding nested function definitions.

    Nested defs (e.g. sync callbacks handed to ``run_in_executor``) run in
    their own context and are checked — or deliberately not — on their own.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ======================================================================
# R001 unseeded-rng


class UnseededRngChecker(Checker):
    RULE = "R001"
    NAME = "unseeded-rng"
    DESCRIPTION = (
        "Randomness must flow through repro.utils.rng (RngTree/as_generator) "
        "so every coin derives from the run's root seed; direct "
        "np.random.default_rng()/random.*/os.urandom and time-derived seeds "
        "break public-coin reproducibility. Module-level RNG state is always "
        "an error."
    )

    # Files allowed to mint generators directly: the RNG module itself and
    # the CLI entrypoints that turn a user-facing --seed into the tree root.
    EXEMPT = frozenset({"utils/rng.py", "cli.py", "__main__.py"})

    LEGACY_NP = frozenset(
        {
            "seed", "rand", "randn", "randint", "random", "choice", "shuffle",
            "permutation", "normal", "uniform", "random_sample", "bytes",
            "standard_normal", "binomial", "poisson",
        }
    )
    TIME_CALLS = frozenset(
        {
            ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
            ("time", "monotonic_ns"), ("time", "perf_counter"),
            ("datetime", "datetime", "now"), ("datetime", "datetime", "utcnow"),
        }
    )
    SEED_SINKS = frozenset({"default_rng", "RandomState", "SeedSequence",
                            "as_generator", "RngTree", "spawn_generators"})

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            imports = _imports_in(mod.tree.body)
            has_stdlib_random = any(
                isinstance(stmt, ast.Import)
                and any(a.name == "random" for a in stmt.names)
                for stmt in ast.walk(mod.tree)
                if isinstance(stmt, ast.Import)
            )
            # Module-level RNG state: an error everywhere, exempt files
            # included — a generator minted at import time is shared
            # hidden state no seed argument can reach.
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                    for node in ast.walk(stmt.value):
                        if isinstance(node, ast.Call) and self._is_rng_ctor(node):
                            out.append(
                                self.finding(
                                    "module-level RNG state: generators must be "
                                    "constructed per-run from an explicit seed, "
                                    "never at import time",
                                    mod.rel,
                                    node,
                                )
                            )
            if mod.rel in self.EXEMPT:
                continue
            for stmt in ast.walk(mod.tree):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "random":
                    out.append(
                        self.finding(
                            "stdlib random imported: draw from an "
                            "np.random.Generator obtained via "
                            "repro.utils.rng.as_generator instead",
                            mod.rel,
                            stmt,
                        )
                    )
            for node in _walk_skipping_strings(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                out.extend(self._check_call(node, mod, imports, has_stdlib_random))
        return out

    @staticmethod
    def _is_rng_ctor(call: ast.Call) -> bool:
        chain = attr_chain(call.func)
        if not chain:
            return False
        if chain[-1] in ("default_rng", "RandomState"):
            return True
        if chain[-2:] == ("random", "Random"):
            return True
        return False

    def _check_call(
        self,
        call: ast.Call,
        mod: ModuleInfo,
        imports: Dict[str, Tuple[str, str]],
        has_stdlib_random: bool,
    ) -> Iterable[Finding]:
        chain = attr_chain(call.func)
        if not chain:
            return
        head, tail = chain[0], chain[-1]
        # np.random.default_rng(...) / np.random.RandomState(...)
        if head in ("np", "numpy") and len(chain) >= 3 and chain[1] == "random":
            if tail in ("default_rng", "RandomState"):
                yield self.finding(
                    f"direct {'.'.join(chain)}(...): construct generators via "
                    "repro.utils.rng.as_generator/RngTree so the stream derives "
                    "from the root seed",
                    mod.rel,
                    call,
                )
                return
            if tail in self.LEGACY_NP:
                yield self.finding(
                    f"legacy global-state {'.'.join(chain)}(...): draw from an "
                    "explicit np.random.Generator (repro.utils.rng.as_generator)",
                    mod.rel,
                    call,
                )
                return
        # from numpy.random import default_rng; default_rng(...)
        if len(chain) == 1 and tail in ("default_rng", "RandomState"):
            src = imports.get(tail)
            if src and src[0].startswith("numpy"):
                yield self.finding(
                    f"direct {tail}(...): construct generators via "
                    "repro.utils.rng.as_generator/RngTree so the stream derives "
                    "from the root seed",
                    mod.rel,
                    call,
                )
                return
        # stdlib random.* calls
        if head == "random" and len(chain) >= 2 and has_stdlib_random:
            yield self.finding(
                f"stdlib {'.'.join(chain)}(...): not seed-tree reproducible; "
                "draw from an np.random.Generator via repro.utils.rng",
                mod.rel,
                call,
            )
            return
        if chain[-2:] == ("os", "urandom") or chain == ("urandom",):
            yield self.finding(
                "os.urandom(...): entropy outside the seed tree makes runs "
                "unreproducible; derive bytes from the RngTree instead",
                mod.rel,
                call,
            )
            return
        # time-derived seed fed into any RNG constructor
        if tail in self.SEED_SINKS:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call):
                        sub_chain = attr_chain(sub.func)
                        if sub_chain in self.TIME_CALLS or sub_chain[-2:] in {
                            c[-2:] for c in self.TIME_CALLS
                        }:
                            yield self.finding(
                                f"time-derived seed in {tail}(...): seeds must "
                                "be explicit values so runs can be replayed",
                                mod.rel,
                                sub,
                            )


# ======================================================================
# R002 adopt-purity


# Taint lattice for values derived from the adopt_arrays payload mapping.
_CLEAN, _PARAM, _ITEMS, _ARRAY = 0, 1, 2, 3

_HEADER_ATTRS = frozenset(
    {"shape", "dtype", "ndim", "size", "nbytes", "itemsize", "base", "flags",
     "strides"}
)
_READING_METHODS = frozenset(
    {"tolist", "sum", "any", "all", "copy", "astype", "tobytes", "item",
     "min", "max", "mean", "byteswap", "dump", "dumps", "view"}
)
_READING_NP_FUNCS = frozenset(
    {"array", "ascontiguousarray", "copy", "array_equal", "allclose", "sum",
     "any", "all", "frombuffer", "concatenate", "stack", "vstack", "hstack",
     "unpackbits", "bincount", "unique", "sort", "equal"}
)
_READING_BUILTINS = frozenset(
    {"list", "tuple", "sorted", "sum", "max", "min", "set", "bytes", "iter",
     "enumerate", "zip", "reversed", "frozenset", "bytearray", "memoryview"}
)


class AdoptPurityChecker(Checker):
    RULE = "R002"
    NAME = "adopt-purity"
    DESCRIPTION = (
        "adopt_arrays installs snapshot payloads for zero-copy loads "
        "(ARCHITECTURE invariant #5): it may inspect array headers "
        "(shape/dtype/...) and delegate, but must never read payload "
        "contents — no copies, conversions, comparisons, reductions, or "
        "iteration over array data, or a 'zero-copy' attach pages in every "
        "byte."
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "adopt_arrays"
                    ):
                        out.extend(self._check_adopt(item, mod))
        return out

    def _check_adopt(self, fn: ast.FunctionDef, mod: ModuleInfo) -> List[Finding]:
        args = [a.arg for a in fn.args.args]
        payload_param = args[1] if len(args) > 1 and args[0] == "self" else (
            args[0] if args else None
        )
        if payload_param is None:
            return []
        findings: List[Finding] = []
        taint: Dict[str, int] = {payload_param: _PARAM}

        def violation(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    f"{what} inside adopt_arrays reads payload contents; "
                    "adopt may only check headers (shape/dtype/...) and "
                    "install/delegate (ARCHITECTURE invariant #5)",
                    mod.rel,
                    node,
                )
            )

        def taint_of(expr: ast.AST) -> int:
            """Evaluate an expression's taint, recording violations."""
            if isinstance(expr, ast.Name):
                return taint.get(expr.id, _CLEAN)
            if isinstance(expr, ast.Attribute):
                base = taint_of(expr.value)
                if base >= _PARAM:
                    if expr.attr in _HEADER_ATTRS:
                        return _CLEAN
                    return base
                return _CLEAN
            if isinstance(expr, ast.Subscript):
                base = taint_of(expr.value)
                if isinstance(expr.slice, ast.AST):
                    taint_of(expr.slice)
                if base == _ARRAY and isinstance(expr.ctx, ast.Load):
                    violation(expr, "indexing into an adopted array")
                    return _ARRAY
                if base >= _PARAM:
                    return _ARRAY
                return _CLEAN
            if isinstance(expr, ast.Call):
                return call_taint(expr)
            if isinstance(expr, ast.Compare):
                operands = [expr.left] + list(expr.comparators)
                # Membership tests against the payload *mapping* read keys
                # only; any array-level operand is a content comparison.
                for op in operands:
                    if taint_of(op) == _ARRAY:
                        violation(expr, "comparing adopted array contents")
                        break
                return _CLEAN
            if isinstance(expr, ast.BinOp):
                if taint_of(expr.left) == _ARRAY or taint_of(expr.right) == _ARRAY:
                    violation(expr, "arithmetic on adopted array contents")
                return _CLEAN
            if isinstance(expr, ast.BoolOp):
                for v in expr.values:
                    taint_of(v)
                return _CLEAN
            if isinstance(expr, ast.UnaryOp):
                taint_of(expr.operand)
                return _CLEAN
            if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
                return max((taint_of(e) for e in expr.elts), default=_CLEAN)
            if isinstance(expr, ast.Dict):
                vals = [v for v in expr.values if v is not None]
                return max((taint_of(v) for v in vals), default=_CLEAN)
            if isinstance(expr, ast.IfExp):
                taint_of(expr.test)
                return max(taint_of(expr.body), taint_of(expr.orelse))
            if isinstance(expr, ast.JoinedStr):
                for v in expr.values:
                    if isinstance(v, ast.FormattedValue):
                        if taint_of(v.value) == _ARRAY:
                            violation(v, "formatting adopted array contents")
                return _CLEAN
            if isinstance(expr, ast.Starred):
                return taint_of(expr.value)
            return _CLEAN

        def call_taint(call: ast.Call) -> int:
            chain = attr_chain(call.func)
            arg_taints = [taint_of(a) for a in call.args]
            kw_taints = [taint_of(k.value) for k in call.keywords]
            any_tainted = max(arg_taints + kw_taints, default=_CLEAN)
            # np.asarray(x) with a single positional arg is the one blessed
            # conversion: zero-copy on an ndarray, reads headers only.
            if chain[-1:] == ("asarray",) and chain[0] in ("np", "numpy", "asarray"):
                if len(call.args) == 1 and not call.keywords:
                    return _ARRAY if any_tainted else _CLEAN
                if any_tainted:
                    violation(
                        call,
                        "np.asarray with dtype/copy arguments (forces a "
                        "conversion pass)",
                    )
                    return _ARRAY
                return _CLEAN
            if (
                len(chain) >= 2
                and chain[0] in ("np", "numpy")
                and chain[-1] in _READING_NP_FUNCS
                and any_tainted
            ):
                violation(call, f"{'.'.join(chain)}(...)")
                return _ARRAY
            if isinstance(call.func, ast.Name):
                if call.func.id in _READING_BUILTINS and _ARRAY in arg_taints:
                    violation(call, f"{call.func.id}(...) over adopted array data")
                    return _CLEAN
                if call.func.id in ("len", "isinstance", "str", "repr", "int",
                                    "float", "bool", "type", "hasattr", "getattr"):
                    return _CLEAN
            if isinstance(call.func, ast.Attribute):
                recv = taint_of(call.func.value)
                if recv >= _PARAM and call.func.attr in ("items", "values", "keys"):
                    return _ITEMS if call.func.attr != "keys" else _CLEAN
                if recv == _ARRAY and call.func.attr in _READING_METHODS:
                    violation(call, f".{call.func.attr}() on an adopted array")
                    return _CLEAN
                if recv == _ARRAY and call.func.attr not in ("get",):
                    # Unknown method on an array-level value: conservative.
                    violation(call, f".{call.func.attr}() on an adopted array")
                    return _CLEAN
            # Delegation (self.x.adopt_arrays(...), helpers like
            # split_arrays(...)): allowed; the result stays payload-derived.
            return _PARAM if any_tainted else _CLEAN

        def bind(target: ast.AST, value_taint: int, from_items: bool = False) -> None:
            if isinstance(target, ast.Name):
                taint[target.id] = value_taint
            elif isinstance(target, (ast.Tuple, ast.List)):
                elts = target.elts
                if from_items and len(elts) == 2:
                    bind(elts[0], _CLEAN)   # dict key
                    bind(elts[1], _ARRAY)   # dict value: the payload array
                else:
                    for e in elts:
                        bind(e, value_taint)
            # Attribute/Subscript stores (self._cache[i] = payload) install
            # the payload — that is adopt's whole job; always allowed.

        def exec_block(stmts: List[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign):
                    t = taint_of(stmt.value)
                    for target in stmt.targets:
                        bind(target, t)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    bind(stmt.target, taint_of(stmt.value))
                elif isinstance(stmt, ast.AugAssign):
                    if taint_of(stmt.value) == _ARRAY or taint_of(stmt.target) == _ARRAY:
                        violation(stmt, "augmented assignment on adopted array")
                elif isinstance(stmt, ast.For):
                    it = taint_of(stmt.iter)
                    if it == _ARRAY:
                        violation(stmt.iter, "iterating over adopted array data")
                        bind(stmt.target, _ARRAY)
                    elif it == _ITEMS:
                        bind(stmt.target, _ARRAY, from_items=True)
                    elif it == _PARAM:
                        bind(stmt.target, _CLEAN)  # dict iteration yields keys
                    else:
                        bind(stmt.target, _CLEAN)
                    exec_block(stmt.body)
                    exec_block(stmt.orelse)
                elif isinstance(stmt, ast.If):
                    taint_of(stmt.test)
                    exec_block(stmt.body)
                    exec_block(stmt.orelse)
                elif isinstance(stmt, ast.While):
                    taint_of(stmt.test)
                    exec_block(stmt.body)
                    exec_block(stmt.orelse)
                elif isinstance(stmt, ast.With):
                    for item in stmt.items:
                        t = taint_of(item.context_expr)
                        if item.optional_vars is not None:
                            bind(item.optional_vars, t)
                    exec_block(stmt.body)
                elif isinstance(stmt, ast.Try):
                    exec_block(stmt.body)
                    for handler in stmt.handlers:
                        exec_block(handler.body)
                    exec_block(stmt.orelse)
                    exec_block(stmt.finalbody)
                elif isinstance(stmt, (ast.Expr, ast.Return)):
                    if stmt.value is not None:
                        taint_of(stmt.value)
                elif isinstance(stmt, ast.Raise):
                    if stmt.exc is not None:
                        taint_of(stmt.exc)
                elif isinstance(stmt, ast.Assert):
                    taint_of(stmt.test)
                # Nested defs / classes inside adopt_arrays: out of scope.

        exec_block(fn.body)
        return findings


# ======================================================================
# R003 async-blocking


_BLOCKING_CALLS: Dict[Tuple[str, ...], str] = {
    ("time", "sleep"): "use 'await asyncio.sleep(...)'",
    ("subprocess", "run"): "blocks the event loop; use asyncio.create_subprocess_*",
    ("subprocess", "call"): "blocks the event loop; use asyncio.create_subprocess_*",
    ("subprocess", "check_call"): "blocks the event loop",
    ("subprocess", "check_output"): "blocks the event loop",
    ("subprocess", "Popen"): "blocks the event loop; use asyncio.create_subprocess_*",
    ("os", "system"): "blocks the event loop",
    ("os", "popen"): "blocks the event loop",
    ("os", "waitpid"): "blocks the event loop",
    ("socket", "socket"): "sync socket I/O; use asyncio streams",
    ("socket", "create_connection"): "sync socket I/O; use asyncio.open_connection",
    ("urllib", "request", "urlopen"): "sync network I/O",
    ("requests", "get"): "sync network I/O",
    ("requests", "post"): "sync network I/O",
    ("requests", "request"): "sync network I/O",
}


class AsyncBlockingChecker(Checker):
    RULE = "R003"
    NAME = "async-blocking"
    DESCRIPTION = (
        "Coroutines in repro.service share one event loop with every "
        "in-flight request: a blocking call (time.sleep, sync socket/file "
        "I/O, subprocess.run) or a sync lock held across an await stalls "
        "the micro-batcher and all its barriers."
    )

    def _in_scope(self, mod: ModuleInfo) -> bool:
        return "service" in mod.rel.split("/")[:-1]

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            if not self._in_scope(mod):
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    out.extend(self._check_coroutine(node, mod))
        return out

    def _check_coroutine(
        self, fn: ast.AsyncFunctionDef, mod: ModuleInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in _function_scope_nodes(fn):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                hint = _BLOCKING_CALLS.get(chain)
                if hint is None and len(chain) > 2:
                    hint = _BLOCKING_CALLS.get(chain[-2:])
                if hint is not None:
                    findings.append(
                        self.finding(
                            f"blocking call {'.'.join(chain)}(...) inside "
                            f"'async def {fn.name}': {hint}",
                            mod.rel,
                            node,
                        )
                    )
                elif chain == ("open",) or chain[-2:] == ("io", "open"):
                    findings.append(
                        self.finding(
                            f"sync file I/O open(...) inside 'async def "
                            f"{fn.name}': blocks the event loop; do file work "
                            "before serving or via run_in_executor",
                            mod.rel,
                            node,
                        )
                    )
                elif chain[-2:] in (("threading", "Lock"), ("threading", "RLock")):
                    findings.append(
                        self.finding(
                            f"threading.{chain[-1]}() inside 'async def "
                            f"{fn.name}': a sync lock cannot guard coroutine "
                            "interleavings; use asyncio.Lock",
                            mod.rel,
                            node,
                        )
                    )
            elif isinstance(node, ast.With):
                # A *sync* `with <lock>` whose body awaits holds the lock
                # across a suspension point: every other task that needs it
                # is blocked for an unbounded time (deadlock-prone).
                if self._looks_like_lock(node) and self._body_awaits(node):
                    findings.append(
                        self.finding(
                            f"sync 'with <lock>' held across an await in "
                            f"'async def {fn.name}': use 'async with' on an "
                            "asyncio lock so the wait suspends instead of "
                            "blocking",
                            mod.rel,
                            node,
                        )
                    )
        return findings

    @staticmethod
    def _looks_like_lock(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            chain = attr_chain(expr)
            if chain and "lock" in chain[-1].lower():
                return True
        return False

    @staticmethod
    def _body_awaits(node: ast.With) -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
                    return True
        return False


# ======================================================================
# R004 registry-contract


# The scheme hook surface (see cellprobe/scheme.py and docs/ARCHITECTURE.md):
# the abstract core, the plan/batching hook, and the persistence trio.
_ABSTRACT_HOOKS = ("query", "size_report", "query_plan")
_SURFACE_HOOKS = (
    "query", "size_report", "query_plan", "export_arrays", "restore_arrays",
    "adopt_arrays", "batch_prepare", "prewarm",
)


class RegistryContractChecker(Checker):
    RULE = "R004"
    NAME = "registry-contract"
    DESCRIPTION = (
        "Every class returned by a @register_scheme factory must carry the "
        "full CellProbingScheme hook surface — query/size_report/query_plan "
        "implemented below the ABC defaults, export_arrays/restore_arrays "
        "paired, adopt_arrays never without restore_arrays — so a new scheme "
        "cannot land half-wired into the batch/persistence/serving paths."
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            for node in mod.tree.body:
                if isinstance(node, ast.FunctionDef) and self._registration(node):
                    out.extend(self._check_factory(node, mod, ctx))
        return out

    @staticmethod
    def _registration(fn: ast.FunctionDef) -> Optional[str]:
        """The registered scheme name if fn is a @register_scheme factory."""
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Call):
                chain = attr_chain(dec.func)
                if chain[-1:] == ("register_scheme",):
                    if dec.args and isinstance(dec.args[0], ast.Constant):
                        return str(dec.args[0].value)
                    return fn.name
        return None

    def _check_factory(
        self, fn: ast.FunctionDef, mod: ModuleInfo, ctx: LintContext
    ) -> List[Finding]:
        scheme_name = self._registration(fn)
        local_imports = _imports_in(
            [s for s in ast.walk(fn) if isinstance(s, (ast.Import, ast.ImportFrom))]
        )
        resolved: List[Tuple[str, ast.ClassDef]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Name):
                    hit = ctx.resolve_class(mod.rel, func.id, local_imports)
                    if hit is not None:
                        resolved.append(hit)
        if not resolved:
            return [
                self.finding(
                    f"factory for scheme {scheme_name!r} does not return a "
                    "statically-resolvable class constructor; the registry "
                    "contract cannot be checked — return SchemeClass(...) "
                    "directly",
                    mod.rel,
                    fn,
                )
            ]
        findings: List[Finding] = []
        for cls_rel, cls in resolved:
            findings.extend(
                self._check_class(scheme_name, cls_rel, cls, ctx)
            )
        return findings

    def _check_class(
        self, scheme_name: str, cls_rel: str, cls: ast.ClassDef, ctx: LintContext
    ) -> List[Finding]:
        ancestors = ctx.ancestors(cls_rel, cls.name)
        concrete: Set[str] = set()   # hooks defined below the ABC defaults
        anywhere: Set[str] = set()   # hooks defined anywhere in the chain
        for anc_rel, anc in ancestors:
            is_default = self._is_default_provider(anc)
            for item in anc.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    anywhere.add(item.name)
                    if not is_default:
                        concrete.add(item.name)

        findings: List[Finding] = []

        def flag(msg: str) -> None:
            findings.append(
                self.finding(
                    f"registered scheme {scheme_name!r} ({cls.name}): {msg}",
                    cls_rel,
                    cls,
                )
            )

        for hook in _ABSTRACT_HOOKS:
            if hook not in concrete:
                flag(
                    f"must implement {hook}() below the CellProbingScheme "
                    "defaults (the ABC stub raises/NotImplements)"
                )
        for hook in _SURFACE_HOOKS:
            if hook not in anywhere:
                flag(
                    f"hook {hook}() is neither defined nor inherited; the "
                    "batch/persistence/serving paths call the full surface"
                )
        has_export = "export_arrays" in concrete
        has_restore = "restore_arrays" in concrete
        if has_export != has_restore:
            present, missing = (
                ("export_arrays", "restore_arrays")
                if has_export
                else ("restore_arrays", "export_arrays")
            )
            flag(
                f"persistence half-wired: {present}() is implemented but "
                f"{missing}() is not — snapshots would save but not load "
                "(or vice versa)"
            )
        if "adopt_arrays" in concrete and not has_restore:
            flag(
                "adopt_arrays() implemented without restore_arrays(): the "
                "verified heap-load path would be missing while the trusting "
                "mmap path exists"
            )
        return findings

    @staticmethod
    def _is_default_provider(cls: ast.ClassDef) -> bool:
        """True for the abstract base(s) whose hook bodies are defaults."""
        for base in cls.bases:
            chain = attr_chain(base)
            if chain[-1:] == ("ABC",) or chain[-1:] == ("ABCMeta",):
                return True
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in item.decorator_list:
                    if attr_chain(dec)[-1:] == ("abstractmethod",):
                        return True
        return False


# ======================================================================
# R005 wire-verb-sync


class WireVerbSyncChecker(Checker):
    RULE = "R005"
    NAME = "wire-verb-sync"
    DESCRIPTION = (
        "The NDJSON wire verbs handled by service.server, forwarded by "
        "service.cluster, and sent by service.client must agree with each "
        "other and with the verb matrix in docs/SERVING.md, so protocol "
        "drift is caught at lint time instead of as runtime 'unknown op' "
        "errors."
    )

    SERVER = "service/server.py"
    ROUTER = "service/cluster.py"
    CLIENT = "service/client.py"
    DOC = "SERVING.md"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        server_mod = ctx.modules.get(self.SERVER)
        router_mod = ctx.modules.get(self.ROUTER)
        client_mod = ctx.modules.get(self.CLIENT)
        if not (server_mod and server_mod.parsed and client_mod and client_mod.parsed):
            return []  # tree without a service layer: nothing to sync
        out: List[Finding] = []

        server = self._handler_verbs(server_mod, "_handle_request")
        client = self._client_verbs(client_mod)
        router: Dict[str, int] = {}
        if router_mod and router_mod.parsed:
            router = self._handler_verbs(router_mod, "_handle_router_request")

        for verb, line in sorted(client.items()):
            if verb not in server:
                out.append(
                    self.finding(
                        f"client sends verb {verb!r} that service.server's "
                        "_handle_request does not handle",
                        self.CLIENT,
                        line=line,
                    )
                )
        for verb, line in sorted(router.items()):
            if verb not in server:
                out.append(
                    self.finding(
                        f"router forwards verb {verb!r} that service.server's "
                        "_handle_request does not handle",
                        self.ROUTER,
                        line=line,
                    )
                )

        doc_path, doc_table = self._doc_matrix(ctx)
        if doc_table is None:
            out.append(
                self.finding(
                    "docs/SERVING.md has no verb matrix table (a markdown "
                    "table with columns verb/server/router/client); the wire "
                    "protocol must be documented",
                    doc_path or self.SERVER,
                    line=1,
                )
            )
            return out
        header_line, matrix = doc_table
        actual = {"server": server, "router": router, "client": client}
        for component, verbs in actual.items():
            documented = {v for v, cols in matrix.items() if component in cols[0]}
            for verb in sorted(set(verbs) - documented):
                out.append(
                    self.finding(
                        f"verb {verb!r} is handled by {component} but missing "
                        "from (or unticked in) the docs/SERVING.md verb matrix",
                        doc_path,
                        line=header_line,
                    )
                )
            for verb in sorted(documented - set(verbs)):
                out.append(
                    self.finding(
                        f"docs/SERVING.md documents verb {verb!r} for "
                        f"{component}, but the code does not handle it",
                        doc_path,
                        line=matrix[verb][1],
                    )
                )
        return out

    @staticmethod
    def _handler_verbs(mod: ModuleInfo, fn_name: str) -> Dict[str, int]:
        """Verbs compared against the request's ``op`` in a handler."""
        verbs: Dict[str, int] = {}
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == fn_name
            ):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Compare) and len(sub.ops) == 1:
                        names = []
                        for side in (sub.left, *sub.comparators):
                            if isinstance(side, ast.Name):
                                names.append(side.id)
                        if "op" not in names:
                            continue
                        for side in (sub.left, *sub.comparators):
                            if isinstance(side, ast.Constant) and isinstance(
                                side.value, str
                            ):
                                verbs.setdefault(side.value, side.lineno)
                            elif isinstance(side, (ast.Tuple, ast.Set, ast.List)):
                                for elt in side.elts:
                                    if isinstance(elt, ast.Constant) and isinstance(
                                        elt.value, str
                                    ):
                                        verbs.setdefault(elt.value, elt.lineno)
        return verbs

    @staticmethod
    def _client_verbs(mod: ModuleInfo) -> Dict[str, int]:
        """Verbs the client passes as the first argument of _request()."""
        verbs: Dict[str, int] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "_request" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        verbs.setdefault(first.value, node.lineno)
        return verbs

    def _doc_matrix(
        self, ctx: LintContext
    ) -> Tuple[Optional[str], Optional[Tuple[int, Dict[str, Tuple[Set[str], int]]]]]:
        """Parse the SERVING.md verb table.

        Returns (doc display path, (header line, verb -> (components, line))).
        """
        if ctx.docs_dir is None:
            return None, None
        doc = ctx.docs_dir / self.DOC
        if not doc.is_file():
            return None, None
        try:
            rel = doc.resolve().relative_to(ctx.root).as_posix()
        except ValueError:
            rel = "docs/" + self.DOC
        lines = doc.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.lstrip().startswith("|"):
                continue
            cells = [c.strip().lower() for c in line.strip().strip("|").split("|")]
            if "verb" not in cells:
                continue
            cols = {
                name: idx
                for idx, name in enumerate(cells)
                if name in ("server", "router", "client")
            }
            if not cols:
                continue
            verb_col = cells.index("verb")
            matrix: Dict[str, Tuple[Set[str], int]] = {}
            for j in range(i + 2, len(lines)):  # skip the |---| separator
                row = lines[j].strip()
                if not row.startswith("|"):
                    break
                parts = [c.strip() for c in row.strip("|").split("|")]
                if verb_col >= len(parts):
                    continue
                verb = parts[verb_col].strip("`* ")
                if not verb:
                    continue
                components = {
                    name
                    for name, idx in cols.items()
                    if idx < len(parts) and parts[idx].strip() not in ("", "-", "—")
                }
                matrix[verb] = (components, j + 1)
            return rel, (i + 1, matrix)
        return rel, None


# ======================================================================
# R006 typed-errors


_BANNED_RAISES = frozenset({"Exception", "BaseException", "RuntimeError"})

_TAXONOMY_HINTS = (
    ("service/", "the service taxonomy (ServiceError/ServiceStateError/"
                 "ClusterError/ReplicaError/HarnessStateError/...)"),
    ("storage/", "the storage taxonomy (StorageLayoutError/ResidencyError)"),
    ("persistence.py", "IndexPersistenceError"),
)


class TypedErrorsChecker(Checker):
    RULE = "R006"
    NAME = "typed-errors"
    DESCRIPTION = (
        "Wire- and snapshot-facing paths (repro.service, repro.persistence, "
        "repro.storage) must raise their module's typed error taxonomy so "
        "callers can catch-and-map faults (retry/failover) without "
        "string-matching; bare Exception/RuntimeError is invisible to that "
        "machinery. ValueError/TypeError stay allowed for argument "
        "validation."
    )

    def _hint_for(self, rel: str) -> Optional[str]:
        for prefix, hint in _TAXONOMY_HINTS:
            if rel.startswith(prefix) or rel == prefix:
                return hint
        return None

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            hint = self._hint_for(mod.rel)
            if hint is None:
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                name: Optional[str] = None
                if isinstance(exc, ast.Call):
                    chain = attr_chain(exc.func)
                    if len(chain) == 1:
                        name = chain[0]
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name in _BANNED_RAISES:
                    out.append(
                        self.finding(
                            f"raise {name} on a wire/snapshot-facing path: "
                            f"use {hint} so callers can catch it by type",
                            mod.rel,
                            node,
                        )
                    )
        return out


# ======================================================================
# R007 kernel-seam


class KernelSeamChecker(Checker):
    RULE = "R007"
    NAME = "kernel-seam"
    DESCRIPTION = (
        "Popcount/XOR-distance work must flow through the repro.hamming "
        "kernel seam (ARCHITECTURE invariant #7): direct np.bitwise_count — "
        "or an XOR distance assembled at the call site and fed to a popcount "
        "helper — outside repro/hamming/ bypasses backend selection "
        "(set_kernel/REPRO_KERNEL/--kernel), the scratch pools, and the "
        "bitwise kernel-equivalence gate."
    )

    # The seam's home: backends and dispatchers may use the primitives.
    EXEMPT_PREFIX = "hamming/"
    # The seam popcount helper: calling it is legal, but XOR-ing packed
    # arrays *into* it re-implements a distance outside the backends —
    # hamming_distance/_many/cross_distances/paired_distances exist for that.
    SEAM_POPCOUNT_FNS = frozenset({"popcount_rows"})

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        out: List[Finding] = []
        for mod in ctx.iter_modules():
            if mod.rel.startswith(self.EXEMPT_PREFIX):
                continue
            imports = _imports_in(mod.tree.body)
            for node in _walk_skipping_strings(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if not chain:
                    continue
                tail = chain[-1]
                if tail == "bitwise_count" and self._is_numpy(chain, imports):
                    out.append(
                        self.finding(
                            "direct np.bitwise_count outside repro/hamming/: "
                            "call the kernel seam (popcount_rows or a "
                            "distance function) so the active backend, "
                            "scratch pooling, and the equivalence gate apply",
                            mod.rel,
                            node,
                        )
                    )
                elif tail in self.SEAM_POPCOUNT_FNS and self._has_xor_arg(node):
                    out.append(
                        self.finding(
                            f"XOR distance assembled at the call site of "
                            f"{tail}: use hamming_distance/"
                            f"hamming_distance_many/cross_distances/"
                            f"paired_distances so compiled backends can fuse "
                            f"the XOR+popcount loop",
                            mod.rel,
                            node,
                        )
                    )
        return out

    @staticmethod
    def _is_numpy(chain: Tuple[str, ...], imports: Dict[str, Tuple[str, str]]) -> bool:
        if len(chain) >= 2:
            return chain[0] in ("np", "numpy")
        origin = imports.get(chain[0])
        return origin is not None and origin[0].split(".")[0] == "numpy"

    @staticmethod
    def _has_xor_arg(call: ast.Call) -> bool:
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitXor):
                    return True
                if isinstance(sub, ast.Call):
                    sub_chain = attr_chain(sub.func)
                    if sub_chain and sub_chain[-1] == "bitwise_xor":
                        return True
        return False


# ======================================================================

ALL_CHECKERS: Tuple[Checker, ...] = (
    UnseededRngChecker(),
    AdoptPurityChecker(),
    AsyncBlockingChecker(),
    RegistryContractChecker(),
    WireVerbSyncChecker(),
    TypedErrorsChecker(),
    KernelSeamChecker(),
)


def rule_ids() -> List[str]:
    return [c.RULE for c in ALL_CHECKERS]


def checker_for(rule: str) -> Optional[Checker]:
    for c in ALL_CHECKERS:
        if c.RULE == rule.upper():
            return c
    return None
