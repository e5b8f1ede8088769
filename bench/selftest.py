"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload runs clean on two seeds, that its input digest,
output bytes and per-layer call counts repeat exactly for one seed, and that
corrupting a reference (one token of every golden-clone listing, one
expectation of every scenario script) is counted as failed operations.
Exits 1 if any check fails.
"""
from __future__ import annotations

import os
import sys

import inputs
import reference as ref
import workloads
from hostspeed import HostClock
from run import ROOT, Pass, run_probes, setup, traced_pass


def bad_listing(golden, clones, real=ref.golden_clone_listing):
    return real(golden, clones).replace("transitionCounter += 1", "transitionCounter += 2", 1)


def bad_scenario(rng, model, length, wrong_expectations=0, real=inputs.scenario):
    sc = real(rng, model, length, wrong_expectations)
    flip = (" expect ok", " expect revert") if " expect ok" in sc.text else (" expect revert", " expect ok")
    return inputs.Scenario(sc.text.replace(*flip, 1), sc.steps, sc.calls, sc.ok, sc.final)


def bad_corpus_text(self, name, real=workloads.Workload.corpus_text):
    """Corpus files, with one expectation of the hand-written scenario inverted."""
    text = real(self, name)
    return text.replace(" expect ok", " expect revert", 1) if name.endswith(".scn") else text


def tiny_pass(cls, seed: int, traced: bool):
    clock = HostClock(cls.calibration)
    workload, _ = setup(cls, seed, clock, tiny=True)
    try:
        if traced:
            p, tracer = traced_pass(workload.ops, clock)
            calls = {k: v for k, v in tracer.metrics(steps=1).items() if k.endswith(".calls")}
        else:
            p, calls = Pass(clock), None
            p.run(workload.ops)
        return workload.digest, p, calls, run_probes(workload)[0]
    finally:
        workload.close()


def main() -> int:
    results = []

    def check(label: str, passed: bool, detail: str):
        results.append(passed)
        print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")

    for cls in workloads.WORKLOADS.values():
        d1, p1, calls1, probes = tiny_pass(cls, 1, traced=True)
        d2, p2, calls2, _ = tiny_pass(cls, 1, traced=True)
        _, p3, _, _ = tiny_pass(cls, 2, traced=False)
        check(f"{cls.name} runs clean", p1.failed == 0,
              f"{p1.failed}/{len(p1.records)} failed {p1.errors or ''}")
        check(f"{cls.name} repeats for one seed", (d1, p1.out_bytes, calls1) == (d2, p2.out_bytes, calls2),
              f"inputs sha256:{d1}, out_bytes {p1.out_bytes}")
        check(f"{cls.name} runs clean on a second seed", p3.failed == 0,
              f"{p3.failed}/{len(p3.records)} failed")
        for line in probes:
            print(f"INFO {cls.name} {line}")

    real = ref.golden_clone_listing, workloads.scenario, workloads.Workload.corpus_text
    ref.golden_clone_listing, workloads.scenario = bad_listing, bad_scenario
    workloads.Workload.corpus_text = bad_corpus_text
    try:
        for cls in workloads.WORKLOADS.values():
            _, p, _, _ = tiny_pass(cls, 1, traced=False)
            # Every gen_scaled and sim_scenarios op reads a corrupted reference;
            # in cli_small only the gen-on-clone and sim commands do.
            caught = p.failed == len(p.records) if cls is not workloads.CliSmall else p.failed > 0
            check(f"{cls.name} counts corrupted references as failed", caught,
                  f"{p.failed}/{len(p.records)} failed")
    finally:
        ref.golden_clone_listing, workloads.scenario, workloads.Workload.corpus_text = real

    # A check that raises on malformed output counts as a failed op, not a crash.
    def raising_check(result):
        raise ValueError("malformed output")
    p = Pass(HostClock("small_models"))
    p.run([workloads.Op(run=lambda: "output", check=raising_check, units=1)])
    check("a raising check is a failed op", (p.failed, p.errors) == (1, {"ValueError": 1}),
          f"{p.failed}/{len(p.records)} failed {p.errors}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "fsmforge", "__init__.py")):
        sys.exit(f"error: fsmforge sources not found under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
