"""Time fsmforge commands as fresh processes, the way a user runs them.

    python3 tools/coldstart.py [--rounds 20] [--root DIR ...] > coldstart.json

Each run is a new `python3 -m fsmforge.cli check|gen|sim` on the bundled
corpus, timed from spawn to exit, next to a bare `python3 -c pass`. It runs
in two modes:

- `no_cache`: `PYTHONDONTWRITEBYTECODE=1` and no `PYTHONPYCACHEPREFIX`, so
  fsmforge is compiled from source on every run;
- `cached`: `PYTHONDONTWRITEBYTECODE` unset and `PYTHONPYCACHEPREFIX` a
  temporary directory, filled by one untimed run before the first round.

Both settings go into the children's environment only. A tree that holds
`src/fsmforge/__pycache__` is refused, since its `no_cache` runs would read
that cache; any run that wrote bytecode (a test run, say) leaves one, so
remove it first. Every round runs each command once per root in both modes;
the order rotates from round to round, so that the commands and roots share
the host's load. Given more than one `--root` (say, two checkouts), it
alternates between them in each round.

The output, on stdout, is JSON: every run's milliseconds, their medians, and
each median less the bare interpreter's median.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path("src", "fsmforge", "corpus")
COMMANDS = {
    "check": ["check", str(CORPUS / "blind_auction.fsm")],
    "gen": ["gen", str(CORPUS / "blind_auction.fsm")],
    "sim": ["sim", str(CORPUS / "blind_auction.fsm"),
            "--scenario", str(CORPUS / "blind_auction_happy.scn")],
}
MODES = ("no_cache", "cached")


def _env(mode: str, prefix: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    if mode == "no_cache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def _run(argv: list[str], root: Path, env: dict[str, str]) -> float:
    """Milliseconds from spawn to exit of one process."""
    env = dict(env, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    elapsed = (time.perf_counter() - t0) * 1000
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {done.returncode}: "
                         f"{done.stderr.decode(errors='replace')}")
    return elapsed


def measure(roots: dict[str, Path], rounds: int, commands=tuple(COMMANDS)) -> dict:
    for root in roots.values():
        if (root / "src" / "fsmforge" / "__pycache__").exists():
            raise SystemExit(f"{root / 'src' / 'fsmforge' / '__pycache__'} would serve the "
                             "no_cache runs bytecode; remove it first")
    python = sys.executable
    jobs = [("bare", None, [python, "-c", "pass"])] + [
        (label, name, [python, "-m", "fsmforge.cli", *COMMANDS[name]])
        for label in roots for name in commands]
    runs = {mode: {"bare": [], **{label: {name: [] for name in commands} for label in roots}}
            for mode in MODES}
    with tempfile.TemporaryDirectory(prefix="coldstart-") as prefix:
        envs = {mode: _env(mode, prefix) for mode in MODES}
        for label, root in roots.items():  # fill the cache: the runs are timed from the next
            _run([python, "-m", "fsmforge.cli", *COMMANDS["sim"]], root, envs["cached"])
        for i in range(rounds):
            for mode in (MODES if i % 2 == 0 else MODES[::-1]):
                k = i % len(jobs)
                for label, name, argv in jobs[k:] + jobs[:k]:
                    root = next(iter(roots.values())) if name is None else roots[label]
                    ms = _run(argv, root, envs[mode])
                    (runs[mode]["bare"] if name is None else runs[mode][label][name]).append(ms)
    median = {mode: {"bare": statistics.median(runs[mode]["bare"]),
                     **{label: {name: statistics.median(times) for name, times in by.items()}
                        for label, by in runs[mode].items() if label != "bare"}}
              for mode in MODES}
    return {
        "command": " ".join([Path(python).name, "tools/coldstart.py", "--rounds", str(rounds)]),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "rounds": rounds,
        "roots": {label: str(root) for label, root in roots.items()},
        "runs_ms": runs,
        "median_ms": median,
        "over_bare_ms": {mode: {label: {name: m - median[mode]["bare"] for name, m in by.items()}
                                for label, by in median[mode].items() if label != "bare"}
                         for mode in MODES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--root", action="append", default=[],
                    help="a checkout to time, as LABEL=DIR or DIR (default: this one)")
    args = ap.parse_args(argv)
    roots = {}
    for spec in args.root or [str(ROOT)]:
        label, eq, path = spec.rpartition("=")
        roots[label if eq else Path(path).name] = Path(path).resolve()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.stdout.write(json.dumps(measure(roots, args.rounds), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
