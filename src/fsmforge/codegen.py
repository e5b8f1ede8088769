"""Solidity emission from a woven contract.

Output is deterministic: LF newlines, 4-space indent unit, single trailing
newline. `tokenize_solidity` gives the whitespace-insensitive token stream
used for golden comparisons against transcribed listings.
"""
from __future__ import annotations

from .fragments import Token, lex_fragment
from .model import Transition
from .plugins import BY_FIELD
from .weave import WovenContract, guard_conjunction

_INDENT = "    "


def _emit_block(out: list[str], text: str, indent: int):
    pad = _INDENT * indent
    for line in text.split("\n"):
        out.append(pad + line if line else "")


def _emit_transition(out: list[str], woven: WovenContract, t: Transition):
    out.append(f"{_INDENT}//Transition {t.name}")
    params = woven.injected_params.get(t.name, ()) + t.inputs
    rendered = ", ".join(f"{p.type_text} {p.name}" for p in params)
    out.append(f"{_INDENT}function {t.name}({rendered})")
    if "payable" in t.tags:
        out.append(f"{_INDENT * 2}payable")
    for modifier in woven.per_transition.get(t.name, ()):
        out.append(f"{_INDENT * 2}{modifier}")
    if t.outputs:
        returns = ", ".join(f"{p.type_text} {p.name}" for p in t.outputs)
        out.append(f"{_INDENT * 2}returns ({returns})")
    out.append(f"{_INDENT}{{")
    for local in t.locals:
        out.append(f"{_INDENT * 2}{local.type_text} {local.name};")
    out.append(f"{_INDENT * 2}require(state == States.{t.from_state});")
    guard_line = guard_conjunction(t)
    if guard_line:
        out.append(f"{_INDENT * 2}//Guards")
        out.append(f"{_INDENT * 2}{guard_line}")
    if t.statements:
        out.append(f"{_INDENT * 2}//Actions")
        for stmt in t.statements:
            _emit_block(out, stmt.text, 2)
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
        for type_text, member in struct.members:
            out.append(f"{_INDENT * 2}{type_text} {member};")
        out.append(f"{_INDENT}}}")
    for var in model.variables:
        out.append(f"{_INDENT}{var.type_text} {var.visibility} {var.name};")
    out.append(f"{_INDENT}uint private creationTime = now;")
    for plugin, decls in woven.contract_fragments:
        out.append("")
        out.append(f"{_INDENT}{BY_FIELD[plugin].banner}")
        _emit_block(out, decls, 1)
    out.append("")
    out.append(f"{_INDENT}//Transitions")
    for i, t in enumerate(model.transitions):
        if i > 0:
            out.append("")
        _emit_transition(out, woven, t)
    out.append("}")
    return "\n".join(out) + "\n"


def tokenize_solidity(text: str) -> list[Token]:
    """Whitespace-insensitive token stream for golden comparisons.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on malformed text.
    """
    return lex_fragment(text, file="<solidity>")


def token_texts(text: str) -> list[str]:
    """Token texts, with comment contents space-normalized for comparison."""
    out = []
    for tok in tokenize_solidity(text):
        if tok.kind == "comment":
            if tok.text.startswith("//"):
                content = tok.text[2:]
            else:
                content = tok.text[2:-2]
            out.append("//" + " ".join(content.split()))
        elif tok.kind == "number-with-unit":
            out.append(" ".join(tok.text.split()))
        else:
            out.append(tok.text)
    return out


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
