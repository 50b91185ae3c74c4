"""Seeded mutation fuzz of the two input loaders: rules text and scenarios.

Each mutated input either loads or raises a ValueError that names a line
or a field.  A loaded input survives inference and a short run with no
warning.  ``cli.main`` on it exits 0, 1, 2 or 3 with at most one
``error:`` line and no traceback.
"""
import copy
import json
import random
import re
import warnings
from dataclasses import replace

import pytest

from fuzzynav import (
    Goal,
    Pose,
    RuleDefinitionError,
    Scenario,
    builtin,
    infer,
    parse_rulebase,
    render_rulebase,
    run,
    scenario_from_dict,
)
from fuzzynav.cli import main

SEED = 16
RULES_CASES = 2000
SCENARIO_CASES = 2000
# cli.main costs a few ms, so only every CLI_STRIDE-th case goes through it
CLI_STRIDE = 20
# runs longer than this many ticks are left out of the CLI pass
CLI_MAX_TICKS = 10

# at and around the bound and the floor, and past what a float holds
NUMBERS = ("0", "-0.0", "1", "-1", "0.5", "5e-324", "1e-320", "1e-7", "1e-6", "2e-6", "999999", "1e6", "-1e6",
           "1000000.1", "1e7", "-1e7", "1e307", "-1e307", "1e308", "1e999", "inf", "-inf", "nan", "0x1p3", "1_0")
WORDS = ("var", "term", "rule", "range", "tri", "if", "is", "and", "then", ",", "#", "angle", "distance",
         "right", "left", "speed", "S", "M", "F", "N", "Z", "P", "QQ", "")
# a rules error without a line names its variable or its grid cell
UNANCHORED = re.compile(r"no variables defined$|variable '\w+' (not defined|has no terms)$|incomplete grid: \(")

VALUES = (0, -1, 0.0, -0.0, 5e-324, 1e-320, 1e-7, 1e-6, 0.05, 0.1, 1, 3.0, 1e6, 1e6 + 1, 1e7, -1e7, 1e307,
          1e308, -1e308, float("inf"), float("-inf"), float("nan"), 10**400, True, None, "1", "", [], {}, [1.0])
CONTROLLERS = ("3", "5", "7", 3, 7, 4.0, "", True, None, [], {})
# a scenario error names its field, its section's key, or the config itself
NAMES_A_FIELD = re.compile(r"^((scenario|start|goal|params) (config|field|fields) |unknown (scenario|start|goal|params) key )")

BASE_SCENARIO = {
    "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
    "goal": {"x": 3.0, "y": 4.0},
    "dt": 0.1,
    "max_time": 0.3,
    "goal_tol": 0.1,
    "angle_tol": 0.05,
    "params": {"wheel_base": 0.5, "wheel_radius": 0.1, "v_max": 2.0},
    "controller": "3",
}
PROBES = ((0.0, 0.0), (0.3, 2.0), (-3.0, 10.0), (3.2, 1e9), (-1e9, -1.0))


def rescale(line: str, factor: float) -> str:
    """A ``var`` line's range or a ``term`` line's breakpoints times ``factor``."""
    tokens = line.split()
    k = 2 if tokens[0] == "var" else 3
    try:
        tokens[-k:] = [repr(float(t) * factor) for t in tokens[-k:]]
    except ValueError:  # a token an earlier mutation made no number
        return line
    return " ".join(tokens)


def mutate_rules(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    n = rng.randrange(len(lines))
    tokens = lines[n].split()
    if not tokens:
        return lines
    op = rng.choice((0, 0, 1, 2, 3, 4, 5, 5, 5, 6))  # rescaling loads most often
    if op == 0:  # one number token
        numbers = [i for i, t in enumerate(tokens) if re.fullmatch(r"-?[\d.]+(e-?\d+)?", t)]
        if numbers:
            tokens[rng.choice(numbers)] = rng.choice(NUMBERS)
    elif op == 1:  # one token
        tokens[rng.randrange(len(tokens))] = rng.choice(WORDS)
    elif op == 2:
        del tokens[rng.randrange(len(tokens))]
    elif op == 3:
        del lines[n]
        return lines
    elif op == 4:
        lines.insert(rng.randrange(len(lines) + 1), lines[n])
        return lines
    elif op == 5:  # a whole variable rescaled, so extreme but valid geometry loads
        role = rng.choice(("angle", "distance", "right", "left"))
        factor = rng.choice((1e-9, 1e-7, 1e-6, 1e-3, 1e3, 1e4, 4e4, 1e5, 1e300))
        return [rescale(ln, factor) if ln.split()[:2] in (["var", role], ["term", role]) else ln for ln in lines]
    else:  # one stray character
        pos = rng.randrange(len(lines[n]) + 1)
        lines[n] = lines[n][:pos] + rng.choice("#,.-e0 x\t") + lines[n][pos:]
        return lines
    lines[n] = " ".join(tokens)
    return lines


def mutate_scenario(rng: random.Random, data: dict) -> dict:
    data = copy.deepcopy(data)
    section = rng.choice(("start", "goal", "params", None))
    target = data if section is None or not isinstance(data.get(section), dict) else data[section]
    op = rng.randrange(6)
    if op == 0 and target:  # one value
        target[rng.choice(sorted(target))] = rng.choice(VALUES)
    elif op == 1 and target:
        del target[rng.choice(sorted(target))]
    elif op == 2:
        target[rng.choice(("z", "speed", "mass"))] = 1.0
    elif op == 3:  # a whole section replaced
        data[rng.choice(("start", "goal", "params"))] = rng.choice(VALUES)
    elif op == 4:
        data["controller"] = rng.choice(CONTROLLERS)
    else:  # far, or coincident, goal
        data["goal"] = {"x": rng.choice((0.0, 0.1, 7e5, 1e6, 2e6, 1e300)), "y": rng.choice((0.0, 7e5, -1e-320))}
    return data


def run_cli(capsys, argv: list[str]) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert err.count("error:") <= 1 and "Traceback" not in err, (argv, err)
    return code


def test_mutated_rules_files_load_or_name_their_line(tmp_path, capsys):
    rng = random.Random(SEED)
    base = render_rulebase(builtin(3)).splitlines()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(BASE_SCENARIO), encoding="utf-8")
    rules_path = tmp_path / "case.rules"
    loaded = 0
    for case in range(RULES_CASES):
        lines = base
        for _ in range(rng.choice((1, 1, 2, 3))):
            lines = mutate_rules(rng, lines)
        text = "\n".join(lines) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rb = parse_rulebase(text)
            except RuleDefinitionError as exc:
                assert exc.issues, text
                for issue in exc.issues:
                    assert issue.line is not None or UNANCHORED.match(issue.message), (text, issue)
            else:
                loaded += 1
                for e_theta, e_d in PROBES:
                    res = infer(rb, e_theta, e_d)
                    assert rb.right_var.lo <= res.v_right <= rb.right_var.hi, (text, e_theta, e_d, res)
                    assert rb.left_var.lo <= res.v_left <= rb.left_var.hi, (text, e_theta, e_d, res)
                run(Scenario(Pose(0.0, 0.0, 0.0), Goal(3.0, 4.0), max_time=0.3, controller=rb))
            if case % CLI_STRIDE == 0:
                rules_path.write_text(text, encoding="utf-8")
                assert run_cli(capsys, ["validate", str(rules_path)]) in (0, 3)
                run_cli(capsys, ["run", "--scenario", str(scenario_path), "--controller", str(rules_path),
                                 "--out", str(tmp_path / "out"), "--quiet"])
    # the fuzz must reach both outcomes, or it tests only one of them
    assert 0.1 * RULES_CASES < loaded < 0.9 * RULES_CASES, loaded


def test_mutated_scenarios_load_or_name_their_field(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "case.json"
    loaded = 0
    for case in range(SCENARIO_CASES):
        data = BASE_SCENARIO
        for _ in range(rng.choice((1, 1, 2, 3))):
            data = mutate_scenario(rng, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sc = scenario_from_dict(data)
            except ValueError as exc:
                assert NAMES_A_FIELD.match(str(exc)), (data, exc)
                sc, rejected = None, True
            else:
                loaded += 1
                try:
                    run(replace(sc, max_time=sc.dt))
                    rejected = False
                except ValueError as exc:  # a controller that names no built-in is read as a rules file
                    assert str(exc).startswith("scenario field 'controller' is not one of 3, 5, 7"), (data, exc)
                    rejected = True
            if case % CLI_STRIDE == 0 and (sc is None or sc.max_time / sc.dt <= CLI_MAX_TICKS):
                path.write_text(json.dumps(data), encoding="utf-8")
                code = run_cli(capsys, ["run", "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
                assert code == 1 if rejected else code in (0, 2), (data, code)
    assert 0.1 * SCENARIO_CASES < loaded < 0.9 * SCENARIO_CASES, loaded


@pytest.mark.parametrize("v_max", [1e308, 1e-320])
def test_cli_rejects_an_out_of_range_v_max_in_one_line(tmp_path, capsys, v_max):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**BASE_SCENARIO, "params": {"v_max": v_max}}), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scenario field 'params': v_max must "), err
