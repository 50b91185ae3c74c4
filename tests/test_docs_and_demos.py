"""Keep the shipped docs and demo assets honest."""
import json
import math
import re
from pathlib import Path

import pytest

from fuzzynav import load_scenario, parse_rulebase, run, scenario_from_dict
from fuzzynav.simulation import initial_distance

ROOT = Path(__file__).resolve().parent.parent


def fenced_blocks(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return [m.group(1) for m in re.finditer(r"```(?:\w*)\n(.*?)```", text, re.DOTALL)]


def test_rule_format_doc_example_parses_clean():
    blocks = fenced_blocks(ROOT / "docs" / "rule_format.md")
    example = next(b for b in blocks if b.startswith("var angle"))
    rb = parse_rulebase(example)
    assert len(rb.rules) == 9


def test_scenario_format_doc_example_loads():
    blocks = fenced_blocks(ROOT / "docs" / "scenario_format.md")
    example = next(b for b in blocks if b.lstrip().startswith("{"))
    sc = scenario_from_dict(json.loads(example))
    assert math.isclose(initial_distance(sc), 24.41, abs_tol=1e-9)


def test_shipped_benchmark_scenario_runs_to_the_goal():
    sc = load_scenario(str(ROOT / "demos" / "benchmark_scenario.json"))
    assert math.isclose(initial_distance(sc), 24.41, abs_tol=1e-9)
    assert sc.dt == 0.1 and sc.controller == "3"
    _, metrics = run(sc)
    assert metrics.reached


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demos_execute(name, tmp_path, capsys):
    # demos 04 and 06 write next to ``__file__``, so it points into tmp_path
    source = (ROOT / "demos" / name).read_text(encoding="utf-8")
    exec(compile(source, name, "exec"), {"__name__": "__main__", "__file__": str(tmp_path / name)})
    assert capsys.readouterr().out
