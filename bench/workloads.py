"""The three workloads. Each builds one pass of operations from a seed.

An operation calls into fsmforge once (`run`) and is then checked against a
benchmark-owned reference (`check`). The closed loop in run.py times `run`
only. fsmforge is reached through `PROGRAM`, which looks every function up
on its module at call time, so the layer tracer's wrappers are seen.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable, Optional

import reference as ref
from inputs import (DAY, CloneSource, clone_model, rng_for, scenario,
                    synthetic_model)


class _Program:
    """fsmforge's modules, looked up in sys.modules on every access."""

    def __getattr__(self, name):
        return sys.modules["fsmforge." + name]


PROGRAM = _Program()


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, int]]   # (output matches reference, output bytes)
    units: int            # work units: transitions, scenario steps or commands
    size: int = 0         # input size the size classes are normalised by
    size_class: Optional[str] = None   # "small" | "large" | None
    group: object = None  # a small and a large op of one group form a size_growth pair
    steps: int = 0        # scenario steps executed


@dataclass
class Probe:
    """An input that reaches a documented defect (ROADMAP 4(a)/4(b))."""

    label: str
    run: Callable[[], object]


class Workload:
    name = ""
    unit = ""
    calibration = "small_models"   # the hostspeed task that does the same kind of work

    def __init__(self, root: str, seed: int, tiny: bool = False):
        self.root, self.seed, self.tiny = root, seed, tiny
        self.corpus = os.path.join(root, "src", "fsmforge", "corpus")
        self.ops: list[Op] = []
        self.probes: list[Probe] = []
        self._digest = hashlib.sha256()
        self.build()

    def corpus_text(self, name: str) -> str:
        with open(os.path.join(self.corpus, name), encoding="utf-8") as f:
            return f.read()

    def feed(self, *parts) -> None:
        for part in parts:
            self._digest.update(str(part).encode("utf-8") + b"\0")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def build(self) -> None:
        """Generate the inputs and their references; no fsmforge calls."""
        raise NotImplementedError

    def load(self) -> None:
        """The fsmforge calls made before the first operation (timed as set-up)."""

    def close(self) -> None:
        pass


def _expect_golden(expected_tokens: list[str]):
    """The program's own token pass is timed, not trusted: the generated text
    must also match under the reference tokenizer. A text that already
    matched is not tokenized again, so checks do not eat into the passes."""
    matched: set[str] = set()

    def check(result):
        diagnostics, source, toks = result
        if source not in matched and ref.token_texts(source) == expected_tokens:
            matched.add(source)
        ok = not diagnostics and toks == expected_tokens and source in matched
        return ok, len(source.encode("utf-8"))
    return check


class GenScaled(Workload):
    """Blind-auction clones at two sizes through parse, validate, weave,
    generate and the token pass, compared with golden-clone listings."""

    name = "gen_scaled"
    unit = "transitions"
    calibration = "large_text"
    SIZES = (250, 500)
    TINY_SIZES = (16, 32)

    def build(self):
        source = CloneSource.from_text(self.corpus_text("blind_auction.fsm"))
        golden = self.corpus_text("golden_blind_auction_locking_counter.sol")
        small, large = self.TINY_SIZES if self.tiny else self.SIZES
        for n, cls in ((small, "small"), (large, "large")):
            plan = source.plan(rng_for(self.seed, self.name, n), n)
            text = source.dsl(plan)
            expected = ref.golden_clone_listing(golden, plan)
            self.feed(text, expected)
            self.ops.append(Op(self._pipeline(text, f"clone{n}.fsm"),
                               _expect_golden(ref.token_texts(expected)),
                               units=n, size=n, size_class=cls, group=0))
        # The smaller model runs before and after the larger one, so its
        # median rests on twice as many samples.
        self.ops.append(self.ops[0])

    @staticmethod
    def _pipeline(text: str, file: str):
        def run():
            model = PROGRAM.dsl.parse_dsl(text, file=file)
            diagnostics = PROGRAM.validate.validate(model)
            source = PROGRAM.codegen.generate(PROGRAM.weave.weave(model))
            return diagnostics, source, PROGRAM.codegen.token_texts(source)
        return run


def _model_source(model: ref.RModel) -> str:
    return ref.to_dsl(model, canonical=False)


def _weave(model_text: str):
    return PROGRAM.weave.weave(PROGRAM.dsl.parse_dsl(model_text))


def _scenario_check(sc):
    def check(report):
        results = report.results
        if len(results) != sc.steps or report.final_snapshot != sc.final:
            return False, 0
        for r, want_ok, want in zip(results, sc.ok, sc.calls):
            if r.ok != want_ok:
                return False, 0
            if want is not None and not _same_outcome(r.outcome, want):
                return False, 0
        return True, 0
    return check


def _same_outcome(got, want) -> bool:
    if got is None or got.executed != want.executed:
        return False
    reason = None if got.revert_reason is None else got.revert_reason.value
    if reason != want.reason or got.fired_timed != want.fired or got.events != want.events:
        return False
    if (got.probe is None) != (want.probe is None):
        return False
    return got.probe is None or _same_outcome(got.probe, want.probe)


DIV_ZERO = ref.RModel("DivGuard", ("Open", "Done"), "Open", (), (),
                      (("private", "uint", "k"),),
                      (ref.RTransition("go", "Open", "Done", guards=("10 / k > 1",)),))


def _expect_all_ok(steps: int):
    """A hand-written script's own expectations are its reference: every step meets them."""
    def check(report):
        return len(report.results) == steps and all(r.ok for r in report.results), 0
    return check


def script_steps(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())


class SimScenarios(Workload):
    """Seeded scenario scripts, and the corpus's hand-written happy path, run
    against contracts woven once in set-up."""

    name = "sim_scenarios"
    unit = "steps"
    SYNTHETIC = 45
    LENGTHS = (100, 200, 300)   # one script of each length per contract
    TINY = (3, (10, 30))

    def build(self):
        n_syn, lengths = self.TINY if self.tiny else (self.SYNTHETIC, self.LENGTHS)
        models = [(ref.read_fsm(text), text) for text in map(self.corpus_text, (
            "blind_auction.fsm", "voting.fsm", "rock_paper_scissors.fsm"))]
        for i in range(n_syn):
            m = synthetic_model(rng_for(self.seed, self.name, "model", i), i, 4 + 2 * (i % 5))
            models.append((m, _model_source(m)))
        self.sources = [text for _, text in models] + [_model_source(DIV_ZERO)]
        self.contracts: list = []
        for length in lengths:
            size_class = {lengths[0]: "small", lengths[-1]: "large"}.get(length)
            for k, (model, text) in enumerate(models):
                sc = scenario(rng_for(self.seed, self.name, "scenario", k, length), model, length)
                self.feed(text, sc.text)
                self.ops.append(Op(self._run(k, sc.text), _scenario_check(sc),
                                   units=sc.steps, size=sc.steps, size_class=size_class,
                                   group=k, steps=sc.steps))
        happy = self.corpus_text("blind_auction_happy.scn")
        steps = script_steps(happy)
        self.feed(happy)
        self.ops.append(Op(self._run(0, happy), _expect_all_ok(steps), units=steps, steps=steps))
        blind, voting, rps, div = 0, 1, 2, len(self.sources) - 1
        self.probes = [
            Probe("call without n= on a counter model", self._run(blind, "call bid as alice expect ok\n")),
            Probe("unbound guard variable (voting)",
                  self._run(voting, "time 300000\ncall cast as alice g0=true expect ok\n")),
            Probe("guard division by zero", self._run(div, "env k=0\ncall go as alice expect ok\n")),
            Probe("admin step without access control", self._run(rps, "admin add bob by deployer expect ok\n")),
        ]

    def load(self):
        self.contracts = [_weave(text) for text in self.sources]

    def _run(self, k: int, text: str):
        return lambda: PROGRAM.scenario.run_scenario(self.contracts[k], text)


# --- cli_small ----------------------------------------------------------------

def _run_cli(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = PROGRAM.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _expect_clean(predicate):
    def check(result):
        code, out, err = result
        return (code == 0 and err == "" and predicate(out)), len(out.encode("utf-8"))
    return check


def _expect_code(code_wanted: int, marker: str):
    def check(result):
        code, out, err = result
        return code == code_wanted and marker in err, len(out.encode("utf-8"))
    return check


_STEP_LINE = re.compile(r"^\s*\d+ (ok|FAIL): ", re.M)


def _expect_sim(sc):
    def check(result):
        code, out, err = result
        statuses = [s == "ok" for s in _STEP_LINE.findall(out)]
        ok = (code == (0 if all(sc.ok) else 1) and err == "" and statuses == sc.ok
              and out.rstrip("\n").rsplit("\n", 1)[-1] == f"final: {sc.final}")
        return ok, len(out.encode("utf-8"))
    return check


def _expect_sim_all_ok(steps: int):
    def check(result):
        code, out, err = result
        ok = code == 0 and err == "" and _STEP_LINE.findall(out) == ["ok"] * steps
        return ok, len(out.encode("utf-8"))
    return check


class CliSmall(Workload):
    """A fixed mix of check/gen/fmt/sim commands on small model files in both
    frontends, run through cli.main in-process; a share are user mistakes."""

    name = "cli_small"
    unit = "commands"
    SHAPES = 6               # synthetic model shapes, each at a small and a large size
    SIZES = (4, 12)
    CLONES = (8, 16, 24, 32)

    def build(self):
        self.workdir = os.path.join(self.root, ".bench_work", f"{os.getpid()}-{self.name}")
        os.makedirs(self.workdir, exist_ok=True)
        shapes = 2 if self.tiny else self.SHAPES
        clones = self.CLONES[::3] if self.tiny else self.CLONES
        ops: list[Op] = []
        seed = self.seed

        # Valid synthetic models: check and fmt in their frontend; sim on four shapes.
        # The small and large model of one shape form a size_growth pair.
        for shape in range(shapes):
            fsm = shape % 2 == 0
            for n, cls in zip(self.SIZES, ("small", "large")):
                model = synthetic_model(rng_for(seed, self.name, "model", shape, n), shape, n)
                path = self._write(f"m{shape}_{n}.{'fsm' if fsm else 'json'}",
                                   _model_source(model) if fsm else json.dumps(ref.to_json(model), indent=2))
                size = os.path.getsize(path)
                ops.append(Op(_run_cli(["check", path]), _expect_clean(lambda out: out == ""),
                              1, size, cls, ("check", shape)))
                if fsm:
                    want_text = ref.to_dsl(model)
                    fmt_check = _expect_clean(lambda out, w=want_text: out == w)
                else:
                    want_obj = ref.to_json(model, canonical=True)
                    fmt_check = _expect_clean(lambda out, w=want_obj: json.loads(out) == w)
                ops.append(Op(_run_cli(["fmt", path]), fmt_check, 1, size, cls, ("fmt", shape)))
                if shape < 4:
                    sc = scenario(rng_for(seed, self.name, "scenario", shape, n), model, 20 + 5 * shape)
                    spath = self._write(f"m{shape}_{n}.scn", sc.text)
                    ops.append(Op(_run_cli(["sim", path, "--scenario", spath]), _expect_sim(sc),
                                  1, steps=sc.steps))

        # Golden clones through gen, in both frontends and with a plugin override.
        source = CloneSource.from_text(self.corpus_text("blind_auction.fsm"))
        golden = self.corpus_text("golden_blind_auction_locking_counter.sol")
        base = ref.read_fsm(self.corpus_text("blind_auction.fsm"))
        for n in clones:
            plan = source.plan(rng_for(seed, self.name, "clone", n), n)
            want = ref.token_texts(ref.golden_clone_listing(golden, plan))
            gen_check = _expect_clean(lambda out, w=want: ref.token_texts(out) == w)
            cls = "small" if n == clones[0] else ("large" if n == clones[-1] else None)
            for suffix, text in (("fsm", source.dsl(plan)),
                                 ("json", json.dumps(ref.to_json(clone_model(base, plan))))):
                path = self._write(f"clone{n}.{suffix}", text)
                ops.append(Op(_run_cli(["gen", path]), gen_check, 1, os.path.getsize(path), cls,
                              ("gen", suffix)))
            if n in (clones[0], clones[-1]):
                path = self._write(f"bare{n}.fsm", source.dsl(plan, plugins=False))
                ops.append(Op(_run_cli(["gen", path, "--plugins", "locking,counter"]), gen_check, 1))
        blind_path = os.path.join(self.corpus, "blind_auction.fsm")
        golden_tokens = ref.token_texts(golden)
        ops.append(Op(_run_cli(["gen", blind_path]),
                      _expect_clean(lambda out: ref.token_texts(out) == golden_tokens), 1))

        # Corpus files: check and a simulated scenario each.
        for j, name in enumerate(("blind_auction.fsm", "voting.fsm", "rock_paper_scissors.fsm")):
            path = os.path.join(self.corpus, name)
            ops.append(Op(_run_cli(["check", path]), _expect_clean(lambda out: out == ""), 1))
            sc = scenario(rng_for(seed, self.name, "corpus", j), ref.read_fsm(self.corpus_text(name)), 30)
            spath = self._write(f"corpus{j}.scn", sc.text)
            ops.append(Op(_run_cli(["sim", path, "--scenario", spath]), _expect_sim(sc),
                          1, steps=sc.steps))

        happy = os.path.join(self.corpus, "blind_auction_happy.scn")
        steps = script_steps(self.corpus_text("blind_auction_happy.scn"))
        ops.append(Op(_run_cli(["sim", blind_path, "--scenario", happy]), _expect_sim_all_ok(steps),
                      1, steps=steps))

        ops += self._mistakes(seed)
        order = rng_for(seed, self.name, "order")
        order.shuffle(ops)
        self.ops = ops
        self.probes = [
            Probe("sim: call without n= on a counter model",
                  _run_cli(["sim", blind_path, "--scenario",
                            self._write("probe_counter.scn", "call bid as alice expect ok\n")])),
            Probe("sim: unbound guard variable (voting)",
                  _run_cli(["sim", os.path.join(self.corpus, "voting.fsm"), "--scenario",
                            self._write("probe_unbound.scn",
                                        "time 300000\ncall cast as alice g0=true expect ok\n")])),
        ]

    def _mistakes(self, seed: int) -> list[Op]:
        """User mistakes with the exit code and diagnostic code they must produce."""
        rng = rng_for(seed, self.name, "mistakes")
        base = synthetic_model(rng, 0, 4)             # locking + counter
        timed = synthetic_model(rng, 2, 4)            # locking + timed + events
        t0, x = base.transitions[0], base.variables[0][2]
        cases = [
            ("fsm", replace(base, transitions=(replace(t0, dst="Nowhere"),) + base.transitions[1:]),
             1, "error E_UNKNOWN_STATE"),
            ("fsm", replace(base, transitions=base.transitions + (t0,)), 1, "error E_DUP_NAME"),
            ("fsm", replace(base, transitions=(replace(t0, tags=t0.tags + ("admin",)),) + base.transitions[1:]),
             1, "error E_TAG_NEEDS_PLUGIN"),
            ("fsm", replace(base, timed=(ref.RTimed("lateAuto", base.states[0], base.states[1], DAY),)),
             1, "error E_TIMED_NEEDS_PLUGIN"),
            ("fsm", replace(base, variables=base.variables + (("private", "bool", "locked"),)),
             1, "error E_RESERVED"),
            ("fsm", replace(base, transitions=(replace(t0, guards=(f"({x} > 1",)),) + base.transitions[1:]),
             1, "error E_UNBALANCED"),
            ("fsm", replace(timed, timed=(replace(timed.timed[0], guard="amount > 1"),) + timed.timed[1:]),
             1, "error E_TIMED_IO"),
            ("json", replace(base, initial=None), 1, "error E_NO_INITIAL"),
        ]
        ops = []
        for i, (kind, model, code, marker) in enumerate(cases):
            text = _model_source(model) if kind == "fsm" else json.dumps(ref.to_json(model))
            path = self._write(f"mistake{i}.{kind}", text)
            ops.append(Op(_run_cli(["check", path]), _expect_code(code, marker), 1))
        bad = {
            "syntax.fsm": (_model_source(base).replace(" from ", " form ", 1), "error E_SYNTAX"),
            "shape.json": (json.dumps({k: v for k, v in ref.to_json(base).items() if k != "structs"}),
                           "error E_JSON_SHAPE"),
            "broken.json": (json.dumps(ref.to_json(base))[:-1], "error E_SYNTAX"),
        }
        for name, (text, marker) in bad.items():
            path = self._write(name, text)
            ops.append(Op(_run_cli(["check", path]), _expect_code(1, marker), 1))
        ops.append(Op(_run_cli(["fmt", self._path("syntax.fsm")]), _expect_code(1, "error E_SYNTAX"), 1))
        ops.append(Op(_run_cli(["gen", self._path("mistake0.fsm")]),
                      _expect_code(1, "error E_UNKNOWN_STATE"), 1))
        valid = self._path("m0_4.fsm")
        txt = self._write("model.txt", _model_source(base))
        ops.append(Op(_run_cli(["check", txt]), _expect_code(2, "error: unsupported model file extension"), 1))
        ops.append(Op(_run_cli(["check", self._path("missing.fsm")]), _expect_code(2, "error: cannot read"), 1))
        ops.append(Op(_run_cli(["gen", valid, "--plugins", "locking,bogus"]),
                      _expect_code(2, "error: unknown plugin 'bogus'"), 1))
        ops.append(Op(_run_cli(["sim", valid, "--scenario",
                                self._write("syntax.scn", "call\n")]), _expect_code(2, "scenario error"), 1))
        wrong = scenario(rng_for(seed, self.name, "wrong"), base, 30, wrong_expectations=2)
        ops.append(Op(_run_cli(["sim", self._write("wrong.fsm", _model_source(base)), "--scenario",
                                self._write("wrong.scn", wrong.text)]), _expect_sim(wrong), 1,
                      steps=wrong.steps))
        return ops

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, text: str) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        self.feed(name, text)
        return path

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it


WORKLOADS = {w.name: w for w in (GenScaled, SimScenarios, CliSmall)}
