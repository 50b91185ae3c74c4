"""fuzzynav benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks every op's outputs and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run that alternates traced and untraced ops on the
same inputs.  The line before it is a JSON ``info`` object: seed, sample
counts, fail ratio and the environment.  ``--workload all`` runs the three
workloads in turn and prints their metrics under the per-workload names
(ticks_per_s, infer_us_p99, cli_op_ms_p50, ...).

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# Per-workload names of the generic end-to-end metrics, and the scale from
# the generic unit: ops_per_s, op_us_p50, op_us_tail.
WORKLOAD_NAMES = {
    "closed_loop": (("ticks_per_s", "1/s", 1.0), ("tick_us_p50", "us", 1.0), ("tick_us_p90", "us", 1.0)),
    "infer_scatter": (("infer_per_s", "1/s", 1.0), ("infer_us_p50", "us", 1.0), ("infer_us_p99", "us", 1.0)),
    "cli_rules": (("cli_ops_per_s", "1/s", 1.0), ("cli_op_ms_p50", "ms", 1e-3), ("cli_op_ms_p90", "ms", 1e-3)),
}


def import_package():
    """Import fuzzynav from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import fuzzynav
        import fuzzynav.cli
    except ImportError as exc:
        print(f"benchmark: cannot import fuzzynav from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(fuzzynav.__file__).startswith(SRC + os.sep):
        print(f"benchmark: fuzzynav resolved to {fuzzynav.__file__}, outside {SRC}", file=sys.stderr)
        sys.exit(2)
    return fuzzynav


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": nproc,
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_seconds(workload: str, seed: int, workdir: str) -> list[float]:
    """Cold set-up times, each from a fresh interpreter: import to first result."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def probe(workload: str, seed: int, workdir: str):
    """Child of setup_seconds: time ``import fuzzynav`` up to the first result."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    t0 = perf_counter()
    import fuzzynav
    import fuzzynav.cli

    cls.first_result(fuzzynav, seed, workdir)
    print(perf_counter() - t0)


class Tally:
    """Op outcomes: attempted, failed, per-op samples and totals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples_us: list[float] = []
        self.ns = 0
        self.units = 0
        self.bytes_written = 0

    def run(self, wl, i: int):
        """Run op ``i``; an op that raises counts as failed and is not timed."""
        self.attempted += 1
        try:
            ns, units, ok, written = wl.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self.failed += not ok
        self.ns += ns
        self.units += units
        self.bytes_written += written
        self.samples_us.append(ns / 1e3 / max(units, 1))


def measure(wl, seconds: float) -> Tally:
    tally = Tally()
    gc.collect()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline:
        tally.run(wl, i)
        i += 1
    return tally


def measure_traced(wl, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Each block of ops runs once untraced and once traced, in alternating order."""
    plain, traced = Tally(), Tally()
    gc.collect()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline:
        block = range(i, i + wl.block)
        for with_trace in ((False, True) if (i // wl.block) % 2 == 0 else (True, False)):
            if with_trace:
                tracer.enable()
            for j in block:
                if with_trace:
                    tracer.op = j
                (traced if with_trace else plain).run(wl, j)
            if with_trace:
                tracer.disable()
        i += wl.block
    return plain, traced


def perturb(wl, reference: dict):
    """Shift one reference output so the checks must count failures."""
    if hasattr(wl, "oracle_shift"):
        wl.oracle_shift = 1e-3
        return
    key = wl.cases[0].key
    entry = list(reference[key])
    entry[-1 if wl.name == "closed_loop" else 3] += 1e-3
    reference[key] = entry


def bench(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, info)."""
    fz = import_package()
    from tracing import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    env = environment()
    cls = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = cls(fz, args.seed, workdir, reference)
        if args.perturb_reference:
            perturb(wl, reference)
        info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "environment": env}
        if args.trace:
            tracer = Tracer()
            tracer.prepare()
            plain, tally = measure_traced(wl, args.seconds, tracer)
            overhead = tally.ns / plain.ns - 1.0 if plain.ns else 0.0
            values = layer_metrics(tracer, tally.units, tally.bytes_written, overhead)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
            os.makedirs(OUT, exist_ok=True)
            trace_path = os.path.join(OUT, f"trace_{args.workload}.csv")
            tracer.write(trace_path)
            info.update(spans=len(tracer.start), absent_bindings=tracer.absent, trace_file=trace_path)
            attempted = plain.attempted + tally.attempted
            failed = plain.failed + tally.failed + wl.final_failures()
        else:
            setup = setup_seconds(args.workload, args.seed, workdir)
            tally = measure(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples = tally.samples_us or [0.0]
            tail = statistics.quantiles(samples, n=100)[cls.tail - 1] if len(samples) > 1 else samples[0]
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "ops_per_s": {"value": tally.units / (tally.ns / 1e9) if tally.ns else 0.0, "unit": "1/s"},
                "op_us_p50": {"value": statistics.median(samples), "unit": "us"},
                "op_us_tail": {"value": tail, "unit": "us"},
            }
            info.update(setup_samples=len(setup), op_samples=len(tally.samples_us),
                        tail_percentile=cls.tail, op_units=tally.units)
            attempted, failed = tally.attempted, tally.failed + wl.final_failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["fail_ratio"] = failed / attempted if attempted else 1.0
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def bench_all(args) -> dict:
    """Each workload in its own process; metrics under their per-workload names."""
    report = {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"benchmark: workload {name} exited with {out.returncode}")
        lines = out.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
        metrics = dict(result["metrics"])
        if not args.trace:
            for (new, unit, scale), old in zip(WORKLOAD_NAMES[name], ("ops_per_s", "op_us_p50", "op_us_tail")):
                metrics[new] = {"value": metrics.pop(old)["value"] * scale, "unit": unit}
        metrics["fail_ratio"] = {"value": info["fail_ratio"], "unit": "ratio"}
        report[name] = {"correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"], "metrics": metrics}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", "closed_loop", "infer_scatter", "cli_rules"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="shift one reference output (self-check: failures must be counted)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        probe(args.workload, args.seed, args.workdir)
        return
    if args.workload == "all":
        print(json.dumps(bench_all(args), indent=1))
        return
    result, info = bench(args)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
