"""Command-line interface.

Commands: check, gen, sim, repl, fmt, examples. Artifacts (generated code,
formatted DSL, listings) go to stdout; diagnostics and progress go to
stderr. Exit codes: 0 success, 1 diagnostics/expectation failures, 2 usage
or I/O errors.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .codegen import generate
from .diagnostics import has_errors
from .dsl import ParseError, emit_dsl, parse_dsl
from .jsonio import emit_json, parse_json
from .model import ContractModel
from .plugins import BY_KEYWORD, PluginConfig
from .scenario import ScenarioSyntaxError, parse_step, run_step
from .sim import SimConfig, new_session
from .validate import validate
from .weave import weave

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or I/O failure; maps to exit code 2."""


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_model(path: str) -> ContractModel:
    """Parse a .fsm or .json model file; ParseError propagates to the caller."""
    text = _read_file(path)
    suffix = Path(path).suffix
    if suffix == ".fsm":
        return parse_dsl(text, file=path)
    if suffix == ".json":
        return parse_json(text, file=path)
    raise CliError(f"unsupported model file extension '{suffix}' (use .fsm or .json)")


def _print_diagnostics(diagnostics) -> None:
    for d in diagnostics:
        print(d.render(), file=sys.stderr)


def _check_model(path: str) -> tuple[ContractModel, int]:
    """Load and validate; returns (model, exit code). model is None on parse failure."""
    try:
        model = _load_model(path)
    except ParseError as exc:
        _print_diagnostics(exc.diagnostics)
        return None, EXIT_DIAGNOSTICS
    diagnostics = validate(model)
    _print_diagnostics(diagnostics)
    return model, (EXIT_DIAGNOSTICS if has_errors(diagnostics) else EXIT_OK)


def _parse_plugin_list(text: str) -> PluginConfig:
    enabled = {}
    names = [n for n in (part.strip() for part in text.split(",")) if n]
    for name in names:
        if name not in BY_KEYWORD:
            known = ", ".join(BY_KEYWORD)
            raise CliError(f"unknown plugin '{name}' (known: {known})")
        enabled[BY_KEYWORD[name].field] = True
    return PluginConfig(**enabled)


def _cmd_check(args) -> int:
    _, code = _check_model(args.file)
    return code


def _cmd_gen(args) -> int:
    plugins = None if args.plugins is None else _parse_plugin_list(args.plugins)
    try:
        model = _load_model(args.file)
    except ParseError as exc:
        _print_diagnostics(exc.diagnostics)
        return EXIT_DIAGNOSTICS
    if plugins is not None:
        model = replace(model, plugins=plugins)
    diagnostics = validate(model)
    _print_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return EXIT_DIAGNOSTICS
    source = generate(weave(model))
    if args.output == "-":
        sys.stdout.write(source)
    else:
        Path(args.output).write_text(source, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _run_scenario_lines(session, lines, echo_snapshot: bool) -> bool:
    """Execute scenario lines against a session; returns True if all steps passed."""
    all_ok = True
    for line_no, line in lines:
        step = parse_step(line_no, line)
        if step is None:
            continue
        result = run_step(session, step)
        status = "ok" if result.ok else "FAIL"
        print(f"{line_no:>4} {status}: {step.text} -> {result.detail}")
        if echo_snapshot:
            print(f"     {session.snapshot()}")
        all_ok = all_ok and result.ok
    return all_ok


def _cmd_sim(args) -> int:
    model, code = _check_model(args.file)
    if model is None or code != EXIT_OK:
        return code
    text = _read_file(args.scenario)
    session = new_session(weave(model), SimConfig())
    try:
        lines = list(enumerate(text.split("\n"), start=1))
        all_ok = _run_scenario_lines(session, lines, echo_snapshot=False)
    except ScenarioSyntaxError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"final: {session.snapshot()}")
    return EXIT_OK if all_ok else EXIT_DIAGNOSTICS


def _cmd_repl(args) -> int:
    model, code = _check_model(args.file)
    if model is None or code != EXIT_OK:
        return code
    session = new_session(weave(model), SimConfig())
    print(f"{model.name}: {session.snapshot()}", file=sys.stderr)
    print("enter scenario steps (time/env/call/admin/assert), 'quit' to exit",
          file=sys.stderr)
    line_no = 0
    while True:
        try:
            line = input("> ")
        except EOFError:
            break
        line_no += 1
        if line.strip() in ("quit", "exit"):
            break
        try:
            _run_scenario_lines(session, [(line_no, line)], echo_snapshot=True)
        except ScenarioSyntaxError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return EXIT_OK


def _cmd_fmt(args) -> int:
    suffix = Path(args.file).suffix
    try:
        model = _load_model(args.file)
    except ParseError as exc:
        _print_diagnostics(exc.diagnostics)
        return EXIT_DIAGNOSTICS
    text = emit_dsl(model) if suffix == ".fsm" else emit_json(model)
    if args.write:
        Path(args.file).write_text(text, encoding="utf-8")
        print(f"formatted {args.file}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_examples(args) -> int:
    corpus = resources.files("fsmforge").joinpath("corpus")
    for entry in sorted(corpus.iterdir(), key=lambda e: e.name):
        if entry.name.endswith((".fsm", ".scn", ".sol")):
            print(str(entry))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmforge",
        description="Compile finite-state-machine contract models to Solidity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a model file")
    p.add_argument("file", help="model file (.fsm or .json)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate Solidity from a model file")
    p.add_argument("file", help="model file (.fsm or .json)")
    p.add_argument("--plugins", default=None,
                   help=f"comma-separated plugin override ({','.join(BY_KEYWORD)}); "
                        "empty disables all")
    p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sim", help="run a scenario script against a model")
    p.add_argument("file", help="model file (.fsm or .json)")
    p.add_argument("--scenario", required=True, help="scenario script (.scn)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("repl", help="interactive simulator session")
    p.add_argument("file", help="model file (.fsm or .json)")
    p.set_defaults(func=_cmd_repl)

    p = sub.add_parser("fmt", help="reprint a model file in canonical form")
    p.add_argument("file", help="model file (.fsm or .json)")
    p.add_argument("-w", "--write", action="store_true",
                   help="rewrite the file in place instead of printing")
    p.set_defaults(func=_cmd_fmt)

    p = sub.add_parser("examples", help="list the bundled example files")
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
