import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


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
