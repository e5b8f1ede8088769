"""The golden compares' report of where two Solidity texts differ."""
from __future__ import annotations

from fsmforge.codegen import token_texts


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
