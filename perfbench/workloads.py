"""The three workloads: inputs, one op, and the output checks.

Each workload turns its seed into inputs before timing and then runs ops one
after another, each issued when the previous one has returned (a closed loop
with one client).  ``op(i)`` times only the call into the package and checks
the outputs afterwards; it returns (ns, units, ok, bytes written), where
units is how many of the workload's op units the call did (ticks for
closed_loop, 1 otherwise).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter_ns

import inputs


class ClosedLoop:
    """Library ``run`` on built-in controllers; the op unit is a tick."""

    name = "closed_loop"
    tail = 90
    block = 1

    def __init__(self, fz, seed: int, workdir: str, reference: dict):
        self.fz = fz
        self.cases = inputs.closed_loop_cases(seed)
        self.reference = reference
        self.scenarios = [fz.benchmark_scenario(c.controller, c.bearing, c.distance) for c in self.cases]

    @staticmethod
    def first_result(fz, seed: int, workdir: str):
        case = inputs.closed_loop_cases(seed)[0]
        fz.run(fz.benchmark_scenario(case.controller, case.bearing, case.distance))

    def op(self, i: int):
        k = i % len(self.cases)
        sc = self.scenarios[k]
        t0 = perf_counter_ns()
        trajectory, m = self.fz.run(sc)
        ns = perf_counter_ns() - t0
        return ns, len(trajectory), self.check(self.cases[k], trajectory, m), 0

    def check(self, case, trajectory, m) -> bool:
        reached, ticks, path_length = self.reference[case.key]
        if case.key.endswith("/paper") and m.time_to_target != inputs.PAPER_TIMES[case.controller]:
            return False
        return (
            m.reached == reached
            and len(trajectory) == ticks
            and abs(m.path_length - path_length) <= 1e-6
        )

    def final_failures(self) -> int:
        return 0


class InferScatter:
    """Direct ``infer`` calls on the three built-ins; the op unit is one call."""

    name = "infer_scatter"
    tail = 99
    block = 64
    # Every CHECK_STRIDE-th point of the first pass through the cycle is
    # checked against the brute-force oracle after timing.
    CHECK_STRIDE = 512

    def __init__(self, fz, seed: int, workdir: str, reference: dict):
        self.fz = fz
        self.points = inputs.infer_points(seed)
        self.rbs = [fz.builtin(int(c), d_max=inputs.INFER_D_MAX) for c in inputs.CONTROLLERS]
        self.bounds = [(rb.right_var.lo, rb.right_var.hi, rb.left_var.lo, rb.left_var.hi) for rb in self.rbs]
        self.checked: dict[int, tuple[float, float]] = {}
        self.oracle_shift = 0.0

    @staticmethod
    def first_result(fz, seed: int, workdir: str):
        rbs = [fz.builtin(int(c), d_max=inputs.INFER_D_MAX) for c in inputs.CONTROLLERS]
        c, e_theta, e_d = inputs.infer_points(seed)[0]
        fz.infer(rbs[c], e_theta, e_d)

    def op(self, i: int):
        k = i % len(self.points)
        c, e_theta, e_d = self.points[k]
        rb = self.rbs[c]
        infer = self.fz.infer
        t0 = perf_counter_ns()
        res = infer(rb, e_theta, e_d)
        ns = perf_counter_ns() - t0
        r_lo, r_hi, l_lo, l_hi = self.bounds[c]
        ok = (
            math.isfinite(res.v_right) and math.isfinite(res.v_left)
            and r_lo <= res.v_right <= r_hi and l_lo <= res.v_left <= l_hi
        )
        if k % self.CHECK_STRIDE == 0 and k not in self.checked:
            self.checked[k] = (res.v_right, res.v_left)
        return ns, 1, ok, 0

    def final_failures(self) -> int:
        """Checked results that disagree with the oracle, counted after timing."""
        import oracle

        failed = 0
        for k, got in self.checked.items():
            c, e_theta, e_d = self.points[k]
            want = oracle.infer(self.rbs[c], e_theta, e_d)
            if any(abs(g - w - self.oracle_shift) > oracle.TOLERANCE for g, w in zip(got, want)):
                failed += 1
        return failed


class CliRules:
    """``cli.main``: validate a rules file, then run a scenario with it."""

    name = "cli_rules"
    tail = 90
    block = 1

    def __init__(self, fz, seed: int, workdir: str, reference: dict):
        self.fz = fz
        self.cases = inputs.cli_cases(seed)
        self.reference = reference
        inputs.write_cli_inputs(fz, self.cases, workdir)
        self.out_dir = os.path.join(workdir, "out")
        self.argv = [self._argv(case, workdir, self.out_dir) for case in self.cases]

    @staticmethod
    def _argv(case, workdir: str, out_dir: str):
        rules = inputs.rules_path(workdir, case)
        scenario = inputs.scenario_path(workdir, case)
        return (
            ["validate", rules],
            ["run", "--scenario", scenario, "--controller", rules, "--quiet", "--out", out_dir],
        )

    @staticmethod
    def first_result(fz, seed: int, workdir: str):
        validate, run = CliRules._argv(inputs.cli_cases(seed)[0], workdir, os.path.join(workdir, "probe"))
        from fuzzynav.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(validate)
            main(run)

    def op(self, i: int):
        k = i % len(self.cases)
        validate, run = self.argv[k]
        main = self.fz.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter_ns()
            codes = (main(validate), main(run))
            ns = perf_counter_ns() - t0
        ok, written = self.check(self.cases[k], codes)
        return ns, 1, ok, written

    def check(self, case, codes) -> tuple[bool, int]:
        """Exit codes, metrics.json and the CSV's row count against the reference."""
        code, reached, ticks, path_length, rule_count = self.reference[case.key]
        csv_path = os.path.join(self.out_dir, "trajectory.csv")
        json_path = os.path.join(self.out_dir, "metrics.json")
        try:
            with open(json_path, encoding="utf-8") as fh:
                m = json.load(fh)
            with open(csv_path, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            written = os.path.getsize(csv_path) + os.path.getsize(json_path)
        except (OSError, ValueError):
            return False, 0
        ok = (
            codes == (0, code)
            and m.get("reached") == reached
            and m.get("rule_count") == rule_count
            and rows == ticks
            and isinstance(m.get("path_length"), float)
            and abs(m["path_length"] - path_length) <= 1e-6
        )
        for path in (csv_path, json_path):
            os.remove(path)
        return ok, written

    def final_failures(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (ClosedLoop, InferScatter, CliRules)}
