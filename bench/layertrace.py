"""Per-layer tracing from the benchmark's side of the calls.

`Tracer.install` replaces each traced function in every fsmforge module
namespace that holds it: its home module, the modules that imported it by
name (`validate.lex_fragment`, `guards.lex_fragment`, `codegen.lex_fragment`,
`scenario.invoke`, `cli.parse_dsl`, `cli.generate`, ...) and the package
itself. The package attributes `fsmforge.validate` and `fsmforge.weave` are
the functions, so modules are taken from sys.modules. fsmforge's source is
not changed; `uninstall` puts the originals back.

Each call records a span (function, parent span, start, end) in flat arrays.
A span's self time is its duration minus the durations of its direct child
spans. `sim.eval_guard` recurses through its module-global name, so its
`calls` counts guard-AST nodes evaluated and its `total_s` counts only
outermost calls.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

TRACED = (
    ("dsl", "parse_dsl"), ("dsl", "emit_dsl"), ("jsonio", "parse_json"), ("jsonio", "emit_json"),
    ("validate", "validate"), ("weave", "weave"), ("codegen", "generate"),
    ("codegen", "token_texts"), ("fragments", "lex_fragment"), ("guards", "parse_guard_expr"),
    ("sim", "invoke"), ("sim", "eval_guard"), ("sim", "admin_call"),
    ("scenario", "parse_scenario"), ("scenario", "run_scenario"), ("cli", "main"),
)


def _text_arg(args, kwargs):
    return args[0] if args else kwargs.get("text", "")


def _lex(counts, args, kwargs, result):
    counts["fragments.lex_fragment.bytes_in"] += len(_text_arg(args, kwargs))
    counts["fragments.lex_fragment.tokens_out"] += 0 if result is None else len(result)


def _generate(counts, args, kwargs, result):
    counts["codegen.generate.bytes_out"] += 0 if result is None else len(result.encode("utf-8"))


def _guard(counts, args, kwargs, result):
    counts["guards.opaque"] += isinstance(result, sys.modules["fsmforge.guards"].Opaque)


# Revert reasons raised by a transition's guards, after the lock, counter,
# admin and state checks have passed.
GUARD_REASONS = ("GuardFailed", "MissingOverride")


def _invoke(counts, args, kwargs, result):
    if result is None:
        return
    counts["sim.reverts"] += not result.executed
    counts["sim.guard_stage"] += result.executed or result.revert_reason.value in GUARD_REASONS


def _validate(counts, args, kwargs, result):
    counts["validate.validate.diagnostics"] += 0 if result is None else len(result)


OBSERVERS = {"fragments.lex_fragment": _lex, "codegen.generate": _generate,
             "guards.parse_guard_expr": _guard, "sim.invoke": _invoke,
             "validate.validate": _validate}


class Tracer:
    def __init__(self):
        self.keys = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.fn = array("b")
        self.parent = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {k: 0 for k in (
            "fragments.lex_fragment.bytes_in", "fragments.lex_fragment.tokens_out",
            "codegen.generate.bytes_out", "guards.opaque", "sim.reverts", "sim.guard_stage",
            "validate.validate.diagnostics")}
        self._stack: list[int] = []
        self._depth = [0] * len(TRACED)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, ix: int, fn, observe):
        fns, parent, outer, start, end = self.fn, self.parent, self.outer, self.start, self.end
        stack, depth, counts = self._stack, self._depth, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fns)
            fns.append(ix)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[ix] == 0)
            end.append(0.0)
            stack.append(sid)
            depth[ix] += 1
            result = None
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[sid] = perf_counter()
                stack.pop()
                depth[ix] -= 1
                if observe is not None:
                    observe(counts, args, kwargs, result)
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fsmforge" or name.startswith("fsmforge.")]
        for ix, (mod, fname) in enumerate(TRACED):
            original = getattr(sys.modules[f"fsmforge.{mod}"], fname)
            wrapper = self._wrap(ix, original, OBSERVERS.get(self.keys[ix]))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, steps: int) -> dict[str, tuple[float, str]]:
        """(value, unit) per metric: calls and self/total time per function,
        then the layer counters. `steps` is the scenario steps run while traced."""
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        total_s = [0.0] * len(TRACED)
        for i in range(n):
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            if self.outer[i]:
                total_s[f] += dur[i]
        out: dict[str, tuple[float, str]] = {}
        for f, key in enumerate(self.keys):
            out[f"{key}.calls"] = (calls[f], "count")
            out[f"{key}.self_s"] = (self_s[f], "s")
            out[f"{key}.total_s"] = (total_s[f], "s")
            out[f"{key}.us_per_call"] = (self_s[f] / calls[f] * 1e6 if calls[f] else 0.0, "us")
        c = self.counts
        guard_calls = out["guards.parse_guard_expr.calls"][0]
        invoke_calls = out["sim.invoke.calls"][0]
        out["fragments.lex_fragment.bytes_in"] = (c["fragments.lex_fragment.bytes_in"], "bytes")
        out["fragments.lex_fragment.tokens_out"] = (c["fragments.lex_fragment.tokens_out"], "count")
        out["codegen.generate.bytes_out"] = (c["codegen.generate.bytes_out"], "bytes")
        out["guards.parse_guard_expr.opaque_ratio"] = (
            c["guards.opaque"] / guard_calls if guard_calls else 0.0, "ratio")
        out["guards.parse_guard_expr.calls_per_step"] = (guard_calls / steps if steps else 0.0, "ratio")
        out["sim.invoke.revert_ratio"] = (c["sim.reverts"] / invoke_calls if invoke_calls else 0.0, "ratio")
        out["sim.invoke.guard_stage_ratio"] = (
            c["sim.guard_stage"] / invoke_calls if invoke_calls else 0.0, "ratio")
        out["validate.validate.diagnostics"] = (c["validate.validate.diagnostics"], "count")
        return out
