"""Self-check of the benchmark harness; exits non-zero on the first problem.

    python3 perfbench/selfcheck.py

* A shortened pass of every workload, untraced and traced, emits every
  metric BENCHMARK.json names, with its unit, and counts no failure.
* With a deliberately perturbed reference every workload counts failures.
* ``--workload all`` prints the twelve per-workload end-to-end metrics.
* In a directory holding only BENCHMARK.json and the benchmark, without the
  package, the benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"

WORKLOAD_METRICS = {
    "setup_s", "peak_rss_mb", "fail_ratio",
    "ticks_per_s", "tick_us_p50", "tick_us_p90",
    "infer_per_s", "infer_us_p50", "infer_us_p99",
    "cli_ops_per_s", "cli_op_ms_p50", "cli_op_ms_p90",
}


def fail(message: str):
    sys.exit(f"selfcheck: FAIL: {message}")


def bench(*args: str, cwd: str = ROOT, run: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(out: subprocess.CompletedProcess, what: str) -> dict:
    if out.returncode != 0:
        fail(f"{what}: exit code {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            result = last_json(bench("--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", trace), what)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{what}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{what}: metrics {got} != {want}")
            print(f"ok: {what}: {len(got)} metrics, {result['attempted']} ops, none failed")

        what = f"{workload} with a perturbed reference"
        result = last_json(bench("--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", "0",
                                 "--perturb-reference"), what)
        if result["correct"] or result["failed"] < 1:
            fail(f"{what}: failures not counted ({result['failed']} of {result['attempted']})")
        print(f"ok: {what}: {result['failed']} of {result['attempted']} ops failed")

    report = json.loads(bench("--workload", "all", "--seed", "7", "--seconds", SECONDS).stdout)
    names = {name for row in report.values() for name in row["metrics"]}
    if names != WORKLOAD_METRICS:
        fail(f"--workload all: metrics {sorted(names)}")
    print(f"ok: --workload all: {len(names)} metrics over {len(report)} workloads")

    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = bench("--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", SECONDS, "--trace", "0",
                    cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail(f"without the package: exit code {out.returncode}, stdout {out.stdout!r}")
    print(f"ok: without the package: exit code {out.returncode}, no result")


if __name__ == "__main__":
    main()
