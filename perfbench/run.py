"""Benchmark of cavitytherm: three closed-loop workloads, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_dim, sweep_bright, cli_cold (see README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate run
that times the package's layers and prints the per-layer metrics. Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
process exits 1 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import SpeedSampler
from tracing import LayerTracer
from workloads import ROOT, WORKLOADS, Tally, check_battery, child_env

RUN_PY = Path(__file__).resolve()
SETUP_PROBES = 5
IMPORT_PROBES = 3
ORACLE_CHECK = "propagator_vs_ode"
IMPORT_PROBE = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import cavitytherm.cli\n"
                "print(time.perf_counter() - t0)\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready time and exit (used by set-up timing)")
    return parser.parse_args(argv)


def set_up(args: argparse.Namespace):
    """Everything before the first timed operation: imports, inputs, warm-up."""
    workload = WORKLOADS[args.workload](traced=bool(args.trace))
    workload.warm_up(np.random.default_rng([args.seed, 1]))
    return workload, np.random.default_rng(args.seed)


def describe(name: str, unit: str, values: list[float], raw: list[float] | None = None) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    if len(values) >= 2:
        line += f", p90 {statistics.quantiles(values, n=10)[-1]:.6g} {unit}"
    if raw:
        line += f" (unscaled wall median {statistics.median(raw):.6g} {unit})"
    return line


def timed(sampler: SpeedSampler, fn, *args, child: bool = False):
    """Call ``fn``; return its result, start, end and wall time without handler time.

    ``child`` marks a call that waits on a child process (see ``SpeedSampler.child``).
    """
    if child:
        with sampler.child():
            t0 = time.perf_counter()
            out = fn(*args)
            t1 = time.perf_counter()
        return out, t0, t1, t1 - t0
    busy0 = sampler.busy
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    return out, t0, t1, (t1 - t0) - (sampler.busy - busy0)


def probe_setup(args: argparse.Namespace, sampler: SpeedSampler) -> tuple[list[float], list[float]]:
    """Set up afresh in child interpreters; scaled and unscaled seconds to ready."""
    argv = [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        with sampler.child():
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready = float(proc.stdout.split()[-1])
        raw.append(ready - t0)
        scaled.append((ready - t0) * sampler.start.scale(t0, ready))
    return scaled, raw


def timed_loop(workload, rng, sampler: SpeedSampler, seconds: float, tally: Tally,
               keep_outputs: bool = False):
    """Whole rounds of operations until ``seconds`` have passed; scaled and raw ms."""
    spans, outputs = [], []
    index = 0
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(workload.round_size):
            inp = workload.make_input(rng, index)
            out, t0, t1, wall = timed(sampler, workload.run, inp, child=workload.spawns_child)
            spans.append((t0, t1, wall))
            workload.check(inp, out, tally)
            if keep_outputs:
                outputs.append(out)
            index += 1
        if time.perf_counter() >= deadline:
            break
    raw = [wall * 1e3 for _, _, wall in spans]
    reference = sampler.start if workload.spawns_child else sampler.kernel
    scaled = [wall * 1e3 * reference.scale(t0, t1) for t0, t1, wall in spans]
    return scaled, raw, outputs


def end_to_end(args, workload, rng, sampler: SpeedSampler, tally: Tally) -> dict:
    setup, setup_raw = probe_setup(args, sampler)
    latency, latency_raw, outputs = timed_loop(
        workload, rng, sampler, args.seconds, tally,
        keep_outputs=workload.spawns_child)
    rss = workload.peak_rss_mb(outputs)
    sampler.stop()  # the allocation pass must not trace the sampler's arrays
    allocs = [workload.peak_alloc_bytes(workload.make_input(rng, i))
              for i in range(workload.round_size)]
    alloc_mb = statistics.median(allocs) / 2 ** 20
    print(describe("latency_ms", "ms", latency, latency_raw))
    print(describe("setup_s", "s", setup, setup_raw))
    print(f"peak_rss_mb: {rss:.6g} MB; peak_alloc_mb: {alloc_mb:.6g} MB "
          f"(median over {len(allocs)} untimed traced operation(s))")
    for label, ref in (("kernel", sampler.kernel), ("python -c pass", sampler.start)):
        print(f"reference {label}: median {ref.median_ms():.4g} ms over "
              f"{len(ref.durations)} samples (scaled to {ref.nominal_ms:g} ms)")
    return {
        "latency_ms": {"value": statistics.median(latency), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "peak_alloc_mb": {"value": alloc_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def importtime_ms(log: str, module: str) -> float:
    """Cumulative import time of ``module`` in a ``-X importtime`` log; 0 if not loaded."""
    for line in log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit() and fields[2].strip() == module:
            return int(fields[1]) / 1e3
    return 0.0


def import_times(sampler: SpeedSampler) -> dict:
    """Fresh-interpreter import of ``cavitytherm.cli``, with -X importtime."""
    walls, special, validation = [], [], []
    for _ in range(IMPORT_PROBES):
        with sampler.child():
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                                  capture_output=True, text=True, cwd=ROOT, env=child_env(),
                                  check=True)
            t1 = time.perf_counter()
        scale = sampler.start.scale(t0, t1)
        walls.append(float(proc.stdout) * 1e3 * scale)
        special.append(importtime_ms(proc.stderr, "scipy.special") * scale)
        validation.append(importtime_ms(proc.stderr, "cavitytherm.validation") * scale)
    return {
        "cli.import_ms": statistics.median(walls),
        "cli.import_scipy_special_ms": statistics.median(special),
        "cli.import_validation_ms": statistics.median(validation),
    }


def cli_main_ms(workload, rng, sampler: SpeedSampler, tally: Tally) -> float:
    """In-process ``cli.main`` after import, over two rounds of the cli_cold commands."""
    from workloads import CliCold
    cli_workload = workload if isinstance(workload, CliCold) else CliCold(traced=True)
    times = []
    for index in range(8):
        argv = cli_workload.make_input(rng, index)
        out, t0, t1, wall = timed(sampler, cli_workload.run_in_process, argv)
        cli_workload.check(argv, out, tally)
        times.append(wall * 1e3 * sampler.kernel.scale(t0, t1))
    return statistics.median(times)


def battery_times(pkg, sampler: SpeedSampler, tally: Tally) -> dict:
    """The validation battery, untraced and timed from here.

    The RK4 oracle check ``propagator_vs_ode`` is called on its own, then
    ``run_all_checks(include_slow=False)`` runs the other checks. Should the
    oracle be in that battery too, its own time is taken out of the rest.
    """
    validation = pkg.validation
    verdict, t0, t1, wall = timed(sampler, oracle_verdict, validation.propagator_vs_ode)
    oracle_ms = wall * 1e3 * sampler.kernel.scale(t0, t1)
    tally.record(verdict)
    report, t0, t1, wall = timed(sampler, validation.run_all_checks, False)
    others_ms = wall * 1e3 * sampler.kernel.scale(t0, t1)
    others = [c for c in report.checks if c.name != ORACLE_CHECK]
    if len(others) < len(report.checks):
        others_ms -= oracle_ms
    check_battery(others, tally)
    return {"validation.oracle_ms": oracle_ms, "validation.other_checks_ms": others_ms}


def oracle_verdict(check) -> str | None:
    """Run one validation check; ``None`` when it passes, else why not."""
    try:
        passed, detail = check()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return None if passed else f"{ORACLE_CHECK}: {detail}"


def per_layer(args, workload, rng, sampler: SpeedSampler, tally: Tally, aux: Tally) -> dict:
    """Alternate untraced and traced operations; per-operation layer figures.

    The in-process CLI calls and the validation battery are layer probes, not
    the workload's operations: their checks go to ``aux``.
    """
    metrics = import_times(sampler)
    metrics["cli.main_ms"] = cli_main_ms(workload, rng, sampler, aux)
    tracer = LayerTracer(sampler)

    def traced(inp):
        with tracer:
            return workload.run_in_process(inp)

    plain_ms, traced_ms, scales = [], [], []
    index = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not traced_ms:
        # A whole round untraced, then a whole round traced, so both see
        # every kind of operation in the round.
        for run, sink in ((workload.run_in_process, plain_ms), (traced, traced_ms)):
            for _ in range(workload.round_size):
                inp = workload.make_input(rng, index)
                out, t0, t1, wall = timed(sampler, run, inp)
                scale = sampler.kernel.scale(t0, t1)
                sink.append(wall * 1e3 * scale)
                if run is traced:
                    scales.append(scale)
                workload.check(inp, out, tally)
                index += 1
    ops = len(traced_ms)
    scale = statistics.median(scales)
    stats = tracer.stats
    protocol_points = stats["protocol.run_protocol"].calls

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 * scale / ops

    metrics.update({
        "hilbert.coherent_amplitudes.ms": per_op_ms(stats["hilbert.coherent_amplitudes"].total),
        "hilbert.coherent_amplitudes.calls": stats["hilbert.coherent_amplitudes"].calls / ops,
        "hilbert.partial_trace_field.ms": per_op_ms(stats["hilbert.partial_trace_field"].total),
        "hilbert.partial_trace_field.calls": stats["hilbert.partial_trace_field"].calls / ops,
        "hilbert.amplitudes_per_point": (tracer.protocol_amplitudes / protocol_points
                                         if protocol_points else 0.0),
        "dynamics.propagate.ms": per_op_ms(stats["dynamics.propagate"].total),
        "dynamics.propagate.calls": stats["dynamics.propagate"].calls / ops,
        "dynamics.coherence_from_propagator.ms": per_op_ms(
            stats["dynamics.coherence_from_propagator"].total),
        "dynamics.evolve_atom_field_mixture.self_ms": per_op_ms(
            stats["dynamics.evolve_atom_field_mixture"].self_time),
        "protocol.run_protocol.self_ms": per_op_ms(stats["protocol.run_protocol"].self_time),
        "protocol.pi_half_pulse.ms": per_op_ms(stats["protocol.pi_half_pulse"].total),
        "protocol.sweep_interaction_time.self_ms": per_op_ms(
            stats["protocol.sweep_interaction_time"].self_time),
        "analytic.temperature_from_pe.ms": per_op_ms(stats["analytic.temperature_from_pe"].total),
    })
    metrics.update(battery_times(workload.pkg, sampler, aux))
    plain, traced_median = statistics.median(plain_ms), statistics.median(traced_ms)
    metrics["trace.overhead_pct"] = 100.0 * (traced_median - plain) / plain
    print(describe("untraced operation", "ms", plain_ms))
    print(describe("traced operation", "ms", traced_ms))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g}")
    units = {".calls": "count", "amplitudes_per_point": "count", "overhead_pct": "%"}
    return {name: {"value": value,
                   "unit": next((u for k, u in units.items() if name.endswith(k)), "ms")}
            for name, value in metrics.items()}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The host's vCPUs run at different speeds from moment to moment (0.84 ms
    against 1.40 ms for the reference kernel, measured side by side), so the
    kernel samples only describe the CPU the measured work runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not args.seconds > 0:
        raise SystemExit("error: --seconds must be positive")
    workload, rng = set_up(args)
    if args.setup_probe:
        print(f"ready {time.perf_counter()!r}", flush=True)
        return 0
    tally, aux = Tally(), Tally()
    with SpeedSampler() as sampler:
        if args.trace:
            metrics = per_layer(args, workload, rng, sampler, tally, aux)
        else:
            metrics = end_to_end(args, workload, rng, sampler, tally)
    print(f"{args.workload}: {tally.attempted} sub-operations checked, {tally.failed} failed, "
          f"{tally.unexpected} not a known fault")
    if aux.attempted:
        print(f"layer probes (CLI calls, validation checks): {aux.attempted} checked, "
              f"{aux.failed} failed")
    for message in tally.examples + aux.examples:
        print(f"  unexpected: {message}")
    print(json.dumps({
        "correct": not tally.unexpected and not aux.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
