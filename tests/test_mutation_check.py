import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def mutation_check():
    spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "tools" / "mutation_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_anchor_occurs_exactly_once_in_src():
    # a refactor that moves or duplicates a mutated line fails here, not only when the check runs
    tool = mutation_check()
    assert tool.anchor_problems() == []
    listed = tool.MUTANTS + tool.EQUIVALENT
    assert all(m.path.startswith("src/fuzzynav/") for m in listed)
    assert all((ROOT / t).is_file() for m in tool.MUTANTS for t in m.tests)
    assert len(tool.MUTANTS) >= 28 and len(tool.EQUIVALENT) == 1


def test_a_missing_anchor_is_reported(tmp_path):
    tool = mutation_check()
    shutil.copytree(ROOT / "src", tmp_path / "src")
    engine = tmp_path / "src" / "fuzzynav" / "engine.py"
    engine.write_text(engine.read_text(encoding="utf-8").replace("_MEMO_SIZE = 1", "_MEMO_SIZE = 2"),
                      encoding="utf-8")
    assert tool.anchor_problems(str(tmp_path)) == [
        "src/fuzzynav/engine.py: anchor '_MEMO_SIZE = 1' occurs 0 times, not once"
    ]
