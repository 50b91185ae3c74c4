"""Spans around the package's layer boundaries, and the per-layer metrics.

Tracing wraps each layer's public function at the binding its caller looks
it up through (``fuzzynav.engine.fuzzify`` is the name ``fire_rules`` calls,
``fuzzynav.simulation.step_euler`` the one ``run`` calls), so the package
itself is not edited.  Spans live in flat arrays in memory, carry their
parent span and op ids, and are written out once, at the end of the run.
A binding that a later refactor removes is reported as absent and its
metrics read 0; nothing crashes.
"""
from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

# (module, attribute, span name).  The same span name on several bindings
# means one layer function reached through several callers.
BINDINGS = (
    ("fuzzynav.engine", "fuzzify", "membership.fuzzify"),
    ("fuzzynav.engine", "fire_rules", "engine.fire_rules"),
    ("fuzzynav.engine", "aggregate", "engine.aggregate"),
    ("fuzzynav.engine", "defuzz_centroid", "engine.defuzz"),
    ("fuzzynav", "infer", "engine.infer"),
    ("fuzzynav.navigator", "infer", "engine.infer"),
    ("fuzzynav.simulation", "compute_errors", "navigator.compute_errors"),
    ("fuzzynav.simulation", "control_step", "navigator.control_step"),
    ("fuzzynav.simulation", "wheel_to_twist", "kinematics.wheel_to_twist"),
    ("fuzzynav.simulation", "step_euler", "kinematics.step_euler"),
    ("fuzzynav", "run", "simulation.run"),
    ("fuzzynav.cli", "run", "simulation.run"),
    ("fuzzynav.cli", "load_scenario", "simulation.load_scenario"),
    ("fuzzynav.simulation", "builtin", "rulebase.builtin"),
    ("fuzzynav.simulation", "parse_rulebase", "ruleformat.parse_rulebase"),
    ("fuzzynav.cli", "parse_rulebase", "ruleformat.parse_rulebase"),
    ("fuzzynav.cli", "main", "cli.main"),
    ("fuzzynav.cli", "_write_trajectory_csv", "cli.write"),
    ("fuzzynav.cli", "_write_json", "cli.write"),
)

# Per-layer metric -> unit.  README.md lists which end-to-end metric each
# should move, on which workload.
LAYER_UNITS = {
    "membership.fuzzify.us": "us",
    "membership.fuzzify.calls": "1/op",
    "engine.fire_rules.us": "us",
    "engine.rules_fired_ratio": "ratio",
    "engine.aggregate.us": "us",
    "engine.defuzz.us": "us",
    "engine.defuzz.points_per_call": "points",
    "engine.infer.self_us": "us",
    "engine.zero_area": "1/op",
    "navigator.compute_errors.us": "us",
    "navigator.control_step.self_us": "us",
    "kinematics.step.us": "us",
    "simulation.run.self_us_per_tick": "us",
    "simulation.load_scenario.us": "us",
    "rulebase.builtin.us": "us",
    "rulebase.builtin.calls": "1/op",
    "ruleformat.parse_rulebase.us": "us",
    "ruleformat.parse_rulebase.bytes_per_s": "B/s",
    "cli.self_ms_per_op": "ms",
    "cli.bytes_written_per_op": "B",
    "cli.write_mb_per_s": "MB/s",
    "trace.overhead": "ratio",
}


def _samples_per_term(defuzz) -> int:
    """Points the defuzzifier evaluates per output term.

    A sampled centroid evaluates every term on its grid (the default of
    its ``samples`` parameter); an exact one visits the three breakpoints
    of each triangle.
    """
    param = inspect.signature(defuzz).parameters.get("samples")
    if param is not None and isinstance(param.default, int):
        return param.default
    return 3


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("h")
        self.span_op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op = 0
        self.counts = {"rules_fired": 0, "rules_evaluated": 0, "zero_area": 0,
                       "defuzz_points": 0, "parse_bytes": 0, "run_ticks": 0}
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(starts)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.parent.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after(self, name: str, fn):
        c = self.counts
        if name == "engine.fire_rules":
            def after(args, kwargs, out):
                c["rules_fired"] += len(out[0])
                c["rules_evaluated"] += len(args[0].rules)
        elif name == "engine.infer":
            def after(args, kwargs, out):
                c["zero_area"] += out.right_zero_area + out.left_zero_area
        elif name == "engine.defuzz":
            per_term = _samples_per_term(fn)

            def after(args, kwargs, out):
                c["defuzz_points"] += per_term * len(args[0].var.terms)
        elif name == "ruleformat.parse_rulebase":
            def after(args, kwargs, out):
                c["parse_bytes"] += len(args[0].encode("utf-8"))
        elif name == "simulation.run":
            def after(args, kwargs, out):
                c["run_ticks"] += len(out[0])
        else:
            after = None
        return after

    def prepare(self):
        """Build a wrapper for every binding the imported package still has."""
        absent = []
        for mod_name, attr, span in BINDINGS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            self._bindings.append((module, attr, fn, self._wrap(span, fn, self._after(span, fn))))
        self.absent = absent

    def enable(self):
        for module, attr, _, traced in self._bindings:
            setattr(module, attr, traced)

    def disable(self):
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def write(self, path: str):
        """All spans as CSV: id, parent, op, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.span_op[i]},{names[self.span_name[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, total ns, self ns).

        A span's self time is its duration minus its children's; spans of
        one thread nest, so the children never overlap one another.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}


def layer_metrics(tracer: Tracer, ops: int, bytes_written: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics from one traced phase of ``ops`` ops.

    An op is the workload's own unit: a tick, an infer call or a CLI op.
    Layers the workload never reaches, and bindings absent from the
    package, read 0.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def mean_us(name, column=1):
        row = totals.get(name, (0, 0, 0))
        return row[column] / row[0] / 1e3 if row[0] else 0.0

    def total_ns(name, column=1):
        return totals.get(name, (0, 0, 0))[column]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls("kinematics.step_euler")
    kin_ns = total_ns("kinematics.wheel_to_twist") + total_ns("kinematics.step_euler")
    parse_ns = total_ns("ruleformat.parse_rulebase")
    write_ns = total_ns("cli.write")
    return {
        "membership.fuzzify.us": mean_us("membership.fuzzify"),
        "membership.fuzzify.calls": ratio(calls("membership.fuzzify"), ops),
        "engine.fire_rules.us": mean_us("engine.fire_rules"),
        "engine.rules_fired_ratio": ratio(counts["rules_fired"], counts["rules_evaluated"]),
        "engine.aggregate.us": mean_us("engine.aggregate"),
        "engine.defuzz.us": mean_us("engine.defuzz"),
        "engine.defuzz.points_per_call": ratio(counts["defuzz_points"], calls("engine.defuzz")),
        "engine.infer.self_us": mean_us("engine.infer", 2),
        "engine.zero_area": ratio(counts["zero_area"], ops),
        "navigator.compute_errors.us": mean_us("navigator.compute_errors"),
        "navigator.control_step.self_us": mean_us("navigator.control_step", 2),
        "kinematics.step.us": ratio(kin_ns, steps) / 1e3,
        "simulation.run.self_us_per_tick": ratio(total_ns("simulation.run", 2), counts["run_ticks"]) / 1e3,
        "simulation.load_scenario.us": mean_us("simulation.load_scenario"),
        "rulebase.builtin.us": mean_us("rulebase.builtin"),
        "rulebase.builtin.calls": ratio(calls("rulebase.builtin"), ops),
        "ruleformat.parse_rulebase.us": mean_us("ruleformat.parse_rulebase"),
        "ruleformat.parse_rulebase.bytes_per_s": ratio(counts["parse_bytes"], parse_ns / 1e9),
        "cli.self_ms_per_op": ratio(total_ns("cli.main", 2), ops) / 1e6,
        "cli.bytes_written_per_op": ratio(bytes_written, ops),
        "cli.write_mb_per_s": ratio(bytes_written / 1e6, write_ns / 1e9),
        "trace.overhead": overhead,
    }
