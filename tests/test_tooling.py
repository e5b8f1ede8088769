import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fsmforge

from test_acceptance import DIAGNOSTIC_CODES

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "bench" / "layertrace.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
COLDSTART = ROOT / "tools" / "coldstart.py"
BENCH = ROOT / "bench"


def _layertrace() -> dict:
    # The file is executed from its text, so nothing is written under bench/.
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"), namespace)
    return namespace


def test_every_traced_function_still_resolves():
    # `bench/run.py --trace 1` wraps these by name; a renamed or deleted
    # function would otherwise only show up when the benchmark runs.
    traced = _layertrace()["TRACED"]
    missing = [f"{mod}.{name}" for mod, name in traced
               if not callable(getattr(importlib.import_module(f"fsmforge.{mod}"), name, None))]
    assert traced and missing == []


def test_importing_the_cli_loads_every_module_the_benchmark_reads():
    # `bench/run.py` imports only `fsmforge.cli`, and `bench/workloads.py`
    # reaches each module through `PROGRAM.<name>`, a sys.modules lookup: a
    # module that `cli` imported lazily would make every such op raise KeyError.
    names = set(re.findall(r"\bPROGRAM\.(\w+)\.", WORKLOADS.read_text(encoding="utf-8")))
    probe = "import sys, fsmforge.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", probe], cwd=ROOT / "src", check=True,
                            capture_output=True, text=True).stdout.split()
    assert names and sorted(n for n in names if f"fsmforge.{n}" not in loaded) == []


def test_traced_simulator_layers_are_reached(corpus_dir, monkeypatch):
    # `install` patches functions by identity in the module namespaces, so a
    # table or a default argument that captured one at import time would
    # read 0 in its per-layer metrics instead of failing.
    from fsmforge import scenario
    from fsmforge.dsl import parse_dsl
    from fsmforge.weave import weave
    from test_sim import count_compiled_guards

    _, guard_calls = count_compiled_guards(monkeypatch)
    woven = weave(parse_dsl((corpus_dir / "blind_auction.fsm").read_text(encoding="utf-8")))
    text = (corpus_dir / "blind_auction_happy.scn").read_text(encoding="utf-8")
    calls = sum(type(step) is scenario.Call for step in scenario.parse_scenario(text))
    run_scenario = scenario.run_scenario
    tracer = _layertrace()["Tracer"]()
    tracer.install()
    try:
        assert scenario.run_scenario(woven, text).ok  # through the module, as the benchmark calls it
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(steps=1)
    assert metrics["scenario.parse_scenario.calls"][0] == 1
    assert metrics["sim.invoke.calls"][0] == calls > 0
    # The simulator calls eval_guard once per guard, with the compiled guard.
    assert metrics["sim.eval_guard.calls"][0] == len(guard_calls) == 4
    assert scenario.run_scenario is run_scenario  # uninstalled


def _doubled_blind_auction(corpus_dir):
    """The blind auction's transitions twice, and two timed ones alike whose
    action is an action's text too: every guard, action and type text is
    repeated. Also returns its distinct texts in each fragment role."""
    from fsmforge.dsl import parse_dsl
    from fsmforge.model import TimedTransition

    model = parse_dsl((corpus_dir / "blind_auction.fsm").read_text(encoding="utf-8"))
    action = model.transitions[-1].statements[0]
    model = model._replace(
        plugins=model.plugins._replace(timed=True),
        transitions=model.transitions + tuple(
            t._replace(name=f"{t.name}Again") for t in model.transitions),
        timed_transitions=tuple(TimedTransition(
            f"late{i}", "C", "C", i, guard="highestBid > 0", statements=(action,))
            for i in (1, 2)))
    types = {p.type_text for t in model.transitions for p in t.inputs + t.outputs + t.locals}
    types |= {v.type_text for v in model.variables}
    types |= {m.type_text for s in model.structs for m in s.members}
    roles = {"type": types,
             "guard": {g for t in model.transitions for g in t.guards} | {"highestBid > 0"},
             "action": {s for t in model.transitions for s in t.statements},
             "timed action": {action}}
    return model, roles


def test_validate_and_token_texts_lex_through_their_module_globals(corpus_dir, monkeypatch):
    # `install` finds `lex_fragment` by identity in the namespaces of
    # `validate` and `codegen`; a reference captured some other
    # way (an alias, a default argument) would leave the lexing unattributed.
    from fsmforge import fragments
    from fsmforge.weave import weave

    calls = {("validate", "lex_fragment"): 0, ("codegen", "lex_fragment"): 0}
    for key in calls:
        module, original = sys.modules[f"fsmforge.{key[0]}"], getattr(fragments, key[1])
        assert getattr(module, key[1]) is original, key

        def counting(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, key[1], counting)
    # Each distinct text is lexed once per role (type, guard, action or timed
    # action) and validate call: the timed guard is a new guard text, and the
    # timed action, an action's text too, is lexed again in its own role.
    model, roles = _doubled_blind_auction(corpus_dir)
    lexed = sum(len(texts) for texts in roles.values())
    assert lexed == 16
    validate = sys.modules["fsmforge.validate"].validate
    for rounds in (1, 2):
        assert validate(model) == []
        assert calls["validate", "lex_fragment"] == rounds * lexed
    assert calls["codegen", "lex_fragment"] == 0
    codegen = sys.modules["fsmforge.codegen"]
    assert codegen.token_texts(codegen.generate(weave(model)))
    assert calls["codegen", "lex_fragment"] == 1


def test_validate_keeps_free_identifiers_only_for_guards_and_timed_actions(corpus_dir,
                                                                           monkeypatch):
    # Only a guard's names (undeclared identifiers, E_TIMED_IO) and a timed
    # action's (E_TIMED_IO) are read, so no other text pays for computing them.
    module = sys.modules["fsmforge.validate"]
    original, calls = module._free_identifiers, []

    def counting(tokens):
        calls.append(tokens)
        return original(tokens)
    monkeypatch.setattr(module, "_free_identifiers", counting)
    model, roles = _doubled_blind_auction(corpus_dir)
    for rounds in (1, 2):
        assert module.validate(model) == []
        assert len(calls) == rounds * (len(roles["guard"]) + len(roles["timed action"]))


def test_star_import_binds_every_exported_name():
    # `__all__` is the public API: each name in it must be bound by a star
    # import, to the package's own attribute, however the package loads it.
    namespace: dict = {}
    exec("from fsmforge import *", namespace)
    assert len(set(fsmforge.__all__)) == len(fsmforge.__all__)
    missing = [name for name in fsmforge.__all__ if name not in namespace]
    assert missing == []
    assert all(namespace[name] is getattr(fsmforge, name) for name in fsmforge.__all__)


def test_the_json_field_table_names_every_model_field_once():
    # A field added to a model record without a JSON key would otherwise show
    # only when a random round-trip happened to set it.
    from fsmforge import model
    from fsmforge.jsonio import FIELDS
    from fsmforge.plugins import PLUGINS

    records = {cls for cls in vars(model).values()
               if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert set(FIELDS) == records
    for cls, table in FIELDS.items():
        assert sorted(name for _, name, _ in table) == sorted(cls._fields), cls.__name__
    assert [key for key, _, _ in FIELDS[model.PluginConfig]] == [p.field for p in PLUGINS]


def test_every_dataclass_has_its_own_docstring():
    # Without one, `dataclass()` builds `Name(field: type, ...)` with
    # `inspect.signature`, which costs import time for every class.
    synthesized = []
    for info in pkgutil.iter_modules(fsmforge.__path__):
        module = importlib.import_module(f"fsmforge.{info.name}")
        for cls in vars(module).values():
            if (dataclasses.is_dataclass(cls) and isinstance(cls, type)
                    and cls.__module__ == module.__name__):
                signature = str(inspect.signature(cls)).replace(" -> None", "")
                if cls.__doc__ == cls.__name__ + signature:
                    synthesized.append(f"{module.__name__}.{cls.__name__}")
    assert synthesized == []


def test_every_validator_code_has_a_criterion_7_fixture():
    # A code the validator can emit but criterion 7 does not list would
    # have no fixture; a listed code the validator lost would be stale.
    source = (ROOT / "src" / "fsmforge" / "validate.py").read_text(encoding="utf-8")
    assert set(re.findall(r'"([EW]_[A-Z_]+)"', source)) == set(DIAGNOSTIC_CODES)


def test_the_readme_lists_every_validator_code():
    # The code list in parentheses that opens the README's validator bullet.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"^- \*\*Validator\*\* with stable diagnostic codes \(([^)]*)\)",
                       readme, re.M).group(1)
    source = (ROOT / "src" / "fsmforge" / "validate.py").read_text(encoding="utf-8")
    codes = re.findall(r"`([EW]_[A-Z_]+)`", listed)
    assert len(codes) == len(set(codes))
    assert set(codes) == set(re.findall(r'"([EW]_[A-Z_]+)"', source))


def test_only_the_fragment_lexer_spells_a_solidity_comment():
    # Solidity's lexical grammar lives in `fragments`; a second spelling of a
    # block comment could end a comment where the lexer does not, and a module
    # that imports its string or comment pattern scans text with a second lexer.
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "fsmforge").glob("*.py"))}
    spellers = [name for name, source in sources.items() if r"/\*" in source]
    assert spellers == ["fragments.py"]
    readers = sorted({name for name, source in sources.items() if name != "fragments.py"
                      for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.alias) and node.name in ("STRING", "COMMENT")
                      or isinstance(node, ast.Attribute) and node.attr in ("STRING", "COMMENT")})
    assert readers == []


def test_fragments_compiles_the_one_solidity_scan():
    # `fragments.TOKENS` is the one scan of Solidity's tokens: the lexer reads
    # tokens and finds faults with it, and the DSL parser walks it past a deep
    # section. A second compiled scan could end a token or a section where the
    # lexer does not, and `dsl` reads the lexer through these two names only.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fsmforge").glob("*.py"))}
    compiled = [node for node in ast.walk(trees["fragments.py"]) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "compile"]
    assert len(compiled) == 1
    imported = {alias.name for node in ast.walk(trees["dsl.py"]) if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if (node.module or "").endswith("fragments") or alias.name == "fragments"}
    assert imported == {"BRACED", "TOKENS"}


def test_only_the_call_boundary_turns_an_exception_into_a_revert():
    # A failed check raises to `sim._transact`, the one place that restores the
    # fields a call can change and maps a missing override or a division by
    # zero to a revert; a second handler would be a second rollback path.
    tree = ast.parse((ROOT / "src" / "fsmforge" / "sim.py").read_text(encoding="utf-8"))
    fields = {"current_state", "locked", "transition_counter"}
    catchers, restorers = set(), set()
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                caught = node.args[1]
            else:
                caught = None
            if caught is not None and {"MissingOverride", "ZeroDivisionError"} & {
                    n.id for n in ast.walk(caught) if isinstance(n, ast.Name)}:
                catchers.add(func.name)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and fields & {
                    n.attr for n in ast.walk(node.targets[0]) if isinstance(n, ast.Attribute)}:
                restorers.add(func.name)  # a field assigned a saved value
    assert catchers == restorers == {"_transact"}


def test_only_check_fragment_knows_a_fragment_roles_rules():
    # `validate._check_fragment` alone says what each fragment role checks and
    # which names it keeps; a comparison of `role` anywhere else, a separate
    # type checker or a second reporting method would split that again.
    tree = ast.parse((ROOT / "src" / "fsmforge" / "validate.py").read_text(encoding="utf-8"))
    comparers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func) if isinstance(node, ast.Compare)
                 and "role" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}}
    assert comparers == {"_check_fragment"}
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_check_fragment" in functions and "_check_type" not in functions
    collector = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "_Collector")
    methods = {node.name for node in collector.body if isinstance(node, ast.FunctionDef)}
    assert "fragment" in methods and "warn" not in methods


def test_coldstart_times_one_round_of_fresh_processes(tmp_path):
    # One round of `check` alone, so the smoke test stays near a second. It
    # times a copy of the package without the bytecode this test run wrote.
    namespace = {"__name__": "coldstart", "__file__": str(COLDSTART)}
    exec(compile(COLDSTART.read_text(encoding="utf-8"), str(COLDSTART), "exec"), namespace)
    measure = namespace["measure"]
    shutil.copytree(ROOT / "src" / "fsmforge", tmp_path / "src" / "fsmforge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    record = json.loads(json.dumps(measure({"here": tmp_path}, 1, ("check",))))
    assert {"command", "host", "rounds", "roots", "runs_ms", "median_ms",
            "over_bare_ms"} <= record.keys()
    for mode in ("no_cache", "cached"):
        runs = record["runs_ms"][mode]
        assert len(runs["bare"]) == 1 and len(runs["here"]["check"]) == 1
        assert record["over_bare_ms"][mode]["here"]["check"] == (
            record["median_ms"][mode]["here"]["check"] - record["median_ms"][mode]["bare"])
    # A tree with a bytecode cache would time cached runs as `no_cache` ones.
    (tmp_path / "src" / "fsmforge" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="__pycache__ would serve the no_cache runs bytecode"):
        measure({"here": tmp_path}, 1, ("check",))


def test_the_benchmark_selftest_passes_and_writes_nothing_under_bench():
    # The benchmark reads the program through `bench/`; a break there fails
    # here, not only when the benchmark runs.
    def listing():
        return sorted((str(p.relative_to(BENCH)), p.stat().st_size, p.stat().st_mtime_ns)
                      for p in BENCH.rglob("*"))
    before = listing()
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert listing() == before


def test_committed_bench_records_are_complete():
    # A BENCH_*.json record backs a performance claim with every run made: one
    # seed and one first side per pair, and no failed operation in any run.
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert {"claimed_gain", "command", "host"} <= record.keys(), path.name
        for name, workload in record["workloads"].items():
            pairs = len(workload["seeds"])
            lengths = {len(metric[f"{side}_runs"]) for metric in workload["metrics"].values()
                       for side in ("parent", "change")}
            assert lengths == {pairs} and len(workload["first_side"]) == pairs, (path.name, name)
            failed = workload["failed"]["parent"] + workload["failed"]["change"]
            assert len(failed) == 2 * pairs and set(failed) == {0}, (path.name, name)
