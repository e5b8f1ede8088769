"""Solidity emission from a woven contract.

Output is deterministic: LF newlines, 4-space indent unit, single trailing
newline. `token_texts` gives the whitespace-insensitive token stream used
for golden comparisons against transcribed listings.
"""
from __future__ import annotations

from .fragments import lex_fragment
from .model import Transition
from .plugins import PLUGINS
from .weave import WovenContract

_INDENT = "    "
# Lines of the generator's own code; the validator reserves the names they
# declare and the builtins they read.
CREATION_TIME = "uint private creationTime = now;"
STATE_CHECK = "require(state == States.{});"


def _emit_block(out: list[str], text: str, indent: int):
    pad = _INDENT * indent
    for line in text.split("\n"):
        out.append(pad + line if line else "")


def guard_conjunction(t: Transition) -> str:
    """Emitted guard require; empty when the transition has no guards."""
    if not t.guards:
        return ""
    if len(t.guards) == 1:
        return f"require({t.guards[0]});"
    joined = " && ".join(f"({g})" for g in t.guards)
    return f"require( {joined} );"


def _emit_transition(out: list[str], woven: WovenContract, t: Transition):
    out.append(f"{_INDENT}//Transition {t.name}")
    chain = woven.chains.get(t.name, ())
    params = [f"{type_text} {name}" for plugin in chain for name, type_text in plugin.params]
    params += [f"{p.type_text} {p.name}" for p in t.inputs]
    out.append(f"{_INDENT}function {t.name}({', '.join(params)})")
    if "payable" in t.tags:
        out.append(f"{_INDENT * 2}payable")
    for plugin in chain:
        out.append(f"{_INDENT * 2}{plugin.modifier.format(name=t.name)}")
    if t.outputs:
        returns = ", ".join(f"{p.type_text} {p.name}" for p in t.outputs)
        out.append(f"{_INDENT * 2}returns ({returns})")
    out.append(f"{_INDENT}{{")
    for local in t.locals:
        out.append(f"{_INDENT * 2}{local.type_text} {local.name};")
    out.append(_INDENT * 2 + STATE_CHECK.format(t.from_state))
    guard_line = guard_conjunction(t)
    if guard_line:
        out.append(f"{_INDENT * 2}//Guards")
        out.append(f"{_INDENT * 2}{guard_line}")
    if t.statements:
        out.append(f"{_INDENT * 2}//Actions")
        for stmt in t.statements:
            _emit_block(out, stmt, 2)
    if t.to_state != t.from_state:
        out.append(f"{_INDENT * 2}//State change")
        out.append(f"{_INDENT * 2}state = States.{t.to_state};")
    out.append(f"{_INDENT}}}")


def generate(woven: WovenContract) -> str:
    """Emit the full Solidity contract for a woven model."""
    model = woven.base
    out: list[str] = [f"contract {model.name}{{"]
    out.append(f"{_INDENT}//States definition")
    out.append(f"{_INDENT}enum States {{")
    for i, state in enumerate(model.states):
        comma = "," if i < len(model.states) - 1 else ""
        out.append(f"{_INDENT * 2}{state}{comma}")
    out.append(f"{_INDENT}}}")
    out.append(f"{_INDENT}States private state = States.{model.initial_state};")
    out.append("")
    out.append(f"{_INDENT}//Variables definition")
    for struct in model.structs:
        out.append(f"{_INDENT}struct {struct.name} {{")
        for member in struct.members:
            out.append(f"{_INDENT * 2}{member.type_text} {member.name};")
        out.append(f"{_INDENT}}}")
    for var in model.variables:
        out.append(f"{_INDENT}{var.type_text} {var.visibility} {var.name};")
    out.append(_INDENT + CREATION_TIME)
    for plugin in PLUGINS:
        decls = getattr(model.plugins, plugin.field) and plugin.decls(model)
        if decls:
            out.append("")
            out.append(f"{_INDENT}{plugin.banner}")
            _emit_block(out, decls, 1)
    out.append("")
    out.append(f"{_INDENT}//Transitions")
    for i, t in enumerate(model.transitions):
        if i > 0:
            out.append("")
        _emit_transition(out, woven, t)
    out.append("}")
    return "\n".join(out) + "\n"


def _normalized(tok: str) -> str:
    if tok.startswith(("//", "/*")):
        return "//" + " ".join((tok[2:] if tok[1] == "/" else tok[2:-2]).split())
    return " ".join(tok.split())  # "/", "/=", or a number with a time unit maybe


def token_texts(text: str) -> list[str]:
    """Token texts, with comment contents space-normalized for comparison.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on malformed text.
    """
    return [_normalized(tok) if tok[0] in "/0123456789" else tok
            for tok in lex_fragment(text, file="<solidity>")]


def token_equal(a: str, b: str) -> bool:
    return token_texts(a) == token_texts(b)


def token_diff(a: str, b: str) -> list[tuple[int, str, str]]:
    """First few positions where the two token streams differ."""
    ta, tb = token_texts(a), token_texts(b)
    diffs = []
    for i in range(max(len(ta), len(tb))):
        left = ta[i] if i < len(ta) else "<end>"
        right = tb[i] if i < len(tb) else "<end>"
        if left != right:
            diffs.append((i, left, right))
        if len(diffs) >= 10:
            break
    return diffs
