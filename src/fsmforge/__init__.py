"""fsmforge: compile finite-state-machine contract models to Solidity.

Pipeline: parse (DSL or JSON) -> validate -> weave plugins -> generate
Solidity. A transactional simulator executes the woven semantics for
scenario scripts and property testing.
"""
from .codegen import generate, token_texts
from .diagnostics import Diagnostic, ParseError, SourceSpan, has_errors
from .dsl import emit_dsl, parse_dsl
from .guards import parse_guard_expr
from .jsonio import emit_json, parse_json
from .model import (
    ContractModel,
    Param,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)
from .plugins import PluginConfig
from .scenario import Report, ScenarioSyntaxError, parse_scenario, run_scenario
from .sim import (
    Invocation,
    Outcome,
    RevertReason,
    SimSession,
    SimUsageError,
    advance_time,
    admin_call,
    eval_guard,
    invoke,
    new_session,
)
from .validate import validate
from .weave import WovenContract, weave

__version__ = "0.1.0"

__all__ = [
    "ContractModel", "Param", "PluginConfig", "StructDef",
    "TimedTransition", "Transition", "VariableDecl", "canonicalize",
    "Diagnostic", "SourceSpan", "has_errors",
    "ParseError", "parse_dsl", "emit_dsl", "parse_json", "emit_json",
    "parse_guard_expr", "validate", "weave", "WovenContract",
    "generate", "token_texts",
    "SimSession", "SimUsageError", "Invocation", "Outcome",
    "RevertReason", "new_session", "advance_time", "invoke", "admin_call",
    "eval_guard",
    "Report", "ScenarioSyntaxError", "parse_scenario", "run_scenario",
    "__version__",
]
