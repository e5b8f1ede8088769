"""fsmforge benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload gen_scaled --seed 1 --seconds 30 --trace 0
    python3 bench/selftest.py

The caller issues the next operation only when the previous one has
returned, and runs whole passes over the workload's seeded operations until
--seconds have elapsed. Each operation's wall time is scaled to a reference
host speed measured during and around it (hostspeed.py). Every operation's
output is checked against a benchmark-owned reference; an operation that
disagrees or raises counts as failed. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass. The lines
before it give the same numbers for people, with sample counts.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from hostspeed import HostClock
from layertrace import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 25


def import_program() -> None:
    """Import fsmforge afresh, so every set-up pays for its imports."""
    for name in [n for n in sys.modules if n == "fsmforge" or n.startswith("fsmforge.")]:
        del sys.modules[name]
    importlib.import_module("fsmforge.cli")


def setup(cls, seed: int, clock: HostClock, tiny: bool = False):
    """Build the inputs and references once, untimed; then time SETUP_REPEATS
    set-ups of the program: a fresh import of fsmforge and the fsmforge calls
    the workload makes before its first operation, each scaled to reference
    host speed. The last set-up is kept."""
    workload = cls(ROOT, seed, tiny)
    times = []
    try:
        with clock:
            for _ in range(1 if tiny else SETUP_REPEATS):
                spent, t0 = clock.spent, perf_counter()
                import_program()
                workload.load()
                t1 = perf_counter()
                times.append((t1 - t0 - (clock.spent - spent), t0, t1))
    except BaseException:
        workload.close()
        raise
    return workload, [dt * clock.scale(t0, t1) for dt, t0, t1 in times]


class Pass:
    """Timings and verdicts of the operations run so far. A record is
    (op, wall time less the clock's sampling, output correct, start, end)."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.records: list[tuple[object, float, bool, float, float]] = []
        self.errors: dict[str, int] = {}
        self.out_bytes = 0

    def run(self, ops) -> None:
        clock = self.clock
        for op in ops:
            spent, t0 = clock.spent, perf_counter()
            try:
                result = op.run()
                t1 = perf_counter()
                dt = t1 - t0 - (clock.spent - spent)
                # A check can raise on malformed output (JSON that does not
                # parse, text the reference tokenizer rejects): a failed op too.
                ok, nbytes = op.check(result)
            except Exception as exc:  # a raw exception escaping fsmforge is a failed op
                t1 = perf_counter()
                self.records.append((op, t1 - t0 - (clock.spent - spent), False, t0, t1))
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                continue
            self.out_bytes += nbytes
            self.records.append((op, dt, ok, t0, t1))

    def merge(self, other: "Pass") -> None:
        """Add the records of a pass that shares this pass's clock."""
        self.records += other.records
        self.out_bytes += other.out_bytes
        for name, count in other.errors.items():
            self.errors[name] = self.errors.get(name, 0) + count

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok, _, _ in self.records)

    def times(self, scaled: bool = True) -> list[tuple[object, float]]:
        """Every op run with its time, in reference seconds (scaled) or wall seconds."""
        return [(op, dt * self.clock.scale(t0, t1) if scaled else dt)
                for op, dt, _, t0, t1 in self.records]

    def typical(self, scaled: bool = True) -> list[tuple[object, float]]:
        """Each distinct op with its median time over the passes run."""
        times: dict[int, tuple[object, list[float]]] = {}
        for op, dt in self.times(scaled):
            times.setdefault(id(op), (op, []))[1].append(dt)
        return [(op, statistics.median(dts)) for op, dts in times.values()]


def work_per_s(typical: list[tuple[object, float]]) -> float:
    """Work units of the distinct ops over the sum of their median times."""
    return sum(op.units for op, _ in typical) / sum(dt for _, dt in typical)


def run_passes(ops, seconds: float, clock: HostClock) -> tuple[Pass, int]:
    """Whole passes over ops until `seconds` have elapsed; at least one."""
    result, passes = Pass(clock), 0
    gc.collect()
    with clock:
        t0 = perf_counter()
        while passes == 0 or perf_counter() - t0 < seconds:
            result.run(ops)
            passes += 1
    return result, passes


def end_to_end(p: Pass, passes: int, setup_times: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics, in reference seconds.

    On a shared host the load of other tenants comes and goes, often for
    longer than a run; a time scaled by the host speed measured during it
    moves less between runs than a wall time (DESIGN.md, Estimator).
    `work_per_s` and `size_growth` rest on each op's median time over the
    passes, the latency percentiles on every op run.
    """
    typical = p.typical()
    latencies = [dt for _, dt in p.times()]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    pairs: dict[object, dict[str, float]] = {}
    for op, dt in typical:
        if op.size_class is not None:
            pairs.setdefault(op.group, {})[op.size_class] = dt / op.size
    growths = [pair["large"] / pair["small"] for pair in pairs.values() if len(pair) == 2]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (work_per_s(typical), "1/s"),
        "op_ms_p50": (deciles[4] * 1e3, "ms"),
        "op_ms_p90": (deciles[8] * 1e3, "ms"),
        "size_growth": (statistics.geometric_mean(growths), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    clock = p.clock
    notes = [
        f"times in reference seconds: host at {clock.speed():.3g} x reference speed "
        f"(median of {len(clock.samples)} samples of the {clock.task} task); "
        f"wall-clock work_per_s {work_per_s(p.typical(False)):.6g}",
        f"setup_s: median of {len(setup_times)} set-ups",
        f"times: median of {passes} passes per op",
        f"op_ms_p50/p90: over {len(latencies)} op runs",
        f"size_growth: geometric mean of {len(growths)} small/large pairs",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def run_probes(workload) -> tuple[list[str], int]:
    """Run the defect probes once; (report lines, number that raised)."""
    lines, raised = [], 0
    for probe in workload.probes:
        try:
            probe.run()
            outcome = "returned"
        except Exception as exc:
            outcome = f"raised {type(exc).__name__}"
            raised += 1
        lines.append(f"defect probe: {probe.label}: {outcome}")
    return lines, raised


def traced_pass(ops, clock: HostClock) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        p = Pass(clock)
        p.run(ops)
    finally:
        tracer.uninstall()
    return p, tracer


def median_pass_rate(p: Pass, ops_per_pass: int) -> float:
    """Work units per wall second of the median pass, tracing on or off alike."""
    times = [sum(record[1] for record in p.records[i:i + ops_per_pass])
             for i in range(0, len(p.records), ops_per_pass)]
    return sum(record[0].units for record in p.records[:ops_per_pass]) / statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = HostClock(WORKLOADS[name].calibration)
    workload, setup_times = setup(WORKLOADS[name], seed, clock)
    try:
        lines = [f"workload {name} seed {seed} inputs sha256:{workload.digest} "
                 f"ops/pass {len(workload.ops)} unit {workload.unit}"]
        if not trace:
            p, passes = run_passes(workload.ops, seconds, clock)
            metrics, notes = end_to_end(p, passes, setup_times)
            lines += notes
        else:
            # Untraced and traced passes alternate, so that both rates see the
            # same host load; per-layer numbers come from the first traced
            # pass, whose call counts repeat exactly for a seed. The clock does
            # not sample here, so no calibration lands inside a traced span.
            p, traced, tracer, passes = Pass(clock), Pass(clock), None, 0
            t0 = perf_counter()
            while passes == 0 or perf_counter() - t0 < seconds:
                p.run(workload.ops)
                one, t = traced_pass(workload.ops, clock)
                traced.merge(one)
                tracer = tracer or t
                passes += 2
            untraced_rate = median_pass_rate(p, len(workload.ops))
            traced_rate = median_pass_rate(traced, len(workload.ops))
            values = tracer.metrics(steps=sum(op.steps for op in workload.ops))
            values["trace.untraced_work_per_s"] = (untraced_rate, "1/s")
            values["trace.traced_work_per_s"] = (traced_rate, "1/s")
            values["trace.overhead_pct"] = ((1 - traced_rate / untraced_rate) * 100, "%")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            p.merge(traced)
        probe_lines, raised = run_probes(workload)
    finally:
        workload.close()
    if trace:
        metrics["defect_probes.raised"] = {"value": raised, "unit": "count"}
    attempted, failed = len(p.records), p.failed
    lines.append(f"passes {passes}, out_bytes {p.out_bytes // passes} per pass")
    lines.append(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g}"
                 + (f" (raised: {p.errors})" if p.errors else ""))
    lines += probe_lines
    lines += [f"{key} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fsmforge", "__init__.py")):
        print(f"error: fsmforge sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
