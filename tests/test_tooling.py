import importlib
import re
from pathlib import Path

from test_acceptance import DIAGNOSTIC_CODES

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "bench" / "layertrace.py"


def test_every_traced_function_still_resolves():
    # `bench/run.py --trace 1` wraps these by name; a renamed or deleted
    # function would otherwise only show up when the benchmark runs.
    # The file is executed from its text, so nothing is written under bench/.
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"), namespace)
    traced = namespace["TRACED"]
    missing = [f"{mod}.{name}" for mod, name in traced
               if not callable(getattr(importlib.import_module(f"fsmforge.{mod}"), name, None))]
    assert traced and missing == []


def test_every_validator_code_has_a_criterion_7_fixture():
    # A code the validator can emit but criterion 7 does not list would
    # have no fixture; a listed code the validator lost would be stale.
    source = (ROOT / "src" / "fsmforge" / "validate.py").read_text(encoding="utf-8")
    assert set(re.findall(r'"([EW]_[A-Z_]+)"', source)) == set(DIAGNOSTIC_CODES)
