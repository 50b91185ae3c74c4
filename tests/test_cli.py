import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from fuzzynav import Metrics, Scenario, builtin, load_scenario, parse_rulebase, render_rulebase
from fuzzynav import cli
from fuzzynav.cli import CSV_HEADER, main

ROOT = Path(__file__).resolve().parent.parent


def write_benchmark_scenario(tmp_path, **overrides):
    cfg = {
        "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
        "goal": {
            "x": 24.41 * math.cos(math.pi / 4),
            "y": 24.41 * math.sin(math.pi / 4),
        },
        "dt": 0.1,
        "max_time": 120.0,
        "goal_tol": 0.1,
        "angle_tol": 0.05,
        "params": {"wheel_base": 0.5, "wheel_radius": 0.1, "v_max": 2.0},
        "controller": "3",
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestRunCommand:
    def test_reached_run_writes_artifacts(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(sc), "--out", str(out)])
        assert code == 0
        csv_text = (out / "trajectory.csv").read_text(encoding="utf-8")
        lines = csv_text.splitlines()
        assert lines[0] == CSV_HEADER == "t,x,y,theta,e_d,e_theta,v_l,v_r"
        assert len(lines) > 2
        assert "\r" not in csv_text
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert list(metrics) == [f.name for f in fields(Metrics)] == [
            "reached", "time_to_target", "time_angle_aligned", "path_length", "rule_count",
        ]
        assert metrics["reached"] is True and metrics["rule_count"] == 9
        assert "reached" in capsys.readouterr().out

    def test_not_reached_exits_2_with_null_time(self, tmp_path):
        # 1 s at v_max=2 covers at most 2 m, far short of 24.41 m
        sc = write_benchmark_scenario(tmp_path, max_time=1.0)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(sc), "--out", str(out), "--quiet"]) == 2
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["reached"] is False and metrics["time_to_target"] is None

    def test_zero_dt_exits_1_naming_the_field(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path, dt=0.0)
        code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "'dt'" in capsys.readouterr().err

    def test_malformed_json_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "start": {,}\n}', encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_controller_exits_1_naming_choices(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path, controller="9")
        code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "3, 5, 7" in capsys.readouterr().err

    def test_controller_flag_overrides_scenario(self, tmp_path):
        sc = write_benchmark_scenario(tmp_path, controller="3")
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(sc), "--controller", "7", "--out", str(out), "--quiet"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["rule_count"] == 49

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path)
        main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_csv_numbers_use_nine_significant_digits(self, tmp_path):
        sc = write_benchmark_scenario(tmp_path)
        out = tmp_path / "out"
        main(["run", "--scenario", str(sc), "--out", str(out), "--quiet"])
        row = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[5]
        for cell in row.split(","):
            mantissa = cell.lstrip("-").replace(".", "").lstrip("0")
            assert len(mantissa.split("e")[0]) <= 9


class TestCompareCommand:
    def test_table_contains_all_rule_counts(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(sc), "--out", str(out)])
        assert code == 0
        table = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert [row["metrics"]["rule_count"] for row in table["rows"]] == [9, 25, 49]
        csv_lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "controller,rule_count,time_to_target,time_angle_aligned,path_length,reached"
        assert len(csv_lines) == 4
        stdout = capsys.readouterr().out
        assert "fastest controller" in stdout

    def test_reruns_are_byte_identical(self, tmp_path):
        sc = write_benchmark_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--scenario", str(sc), "--out", str(out1), "--quiet"]) == 0
        assert main(["compare", "--scenario", str(sc), "--out", str(out2), "--quiet"]) == 0
        for name in (
            "comparison.json", "comparison.csv",
            "trajectory_3.csv", "trajectory_5.csv", "trajectory_7.csv",
            "metrics_3.json", "metrics_5.json", "metrics_7.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_trajectory_row_format_writes_the_bytes_of_format(self):
        # each row is one %-format of eight %.9g fields; on every float it must
        # give format(v, ".9g"), so the bytes pinned in tests/pins/closed_loop.txt cannot move
        rng = random.Random(97)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310, 1e300, -1e300,
                  1.7976931348623157e308, 0.1, 26.3, 1e16, 123456789.5]
        values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300) for _ in range(20000)]
        values += [rng.uniform(-50.0, 50.0) for _ in range(20000)]
        for v in values:
            assert "%.9g" % v == format(v, ".9g"), v.hex()
        rows = [tuple(values[i:i + 8]) for i in range(0, 40000, 8)]
        assert all(cli._CSV_ROW % row == ",".join(format(v, ".9g") for v in row) for row in rows)

    def test_per_controller_trajectories_written(self, tmp_path):
        sc = write_benchmark_scenario(tmp_path)
        out = tmp_path / "cmp"
        main(["compare", "--scenario", str(sc), "--out", str(out), "--quiet"])
        for name in ("3", "5", "7"):
            header = (out / f"trajectory_{name}.csv").read_text(encoding="utf-8").splitlines()[0]
            assert header == CSV_HEADER

    def test_scenario_echo_is_the_loaded_scenario_without_its_controller(self, tmp_path):
        # a rules path that does not exist: compare runs the built-ins and never reads it
        for controller in ("3", str(tmp_path / "missing.rules")):
            path = write_benchmark_scenario(tmp_path, controller=controller)
            out = tmp_path / "cmp"
            assert main(["compare", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
            echo = json.loads((out / "comparison.json").read_text(encoding="utf-8"))["scenario"]
            want = asdict(load_scenario(str(path)))
            del want["controller"]
            assert list(echo) == [f.name for f in fields(Scenario) if f.name != "controller"]
            assert echo == json.loads(json.dumps(want))

    def test_config_error_exits_1(self, tmp_path, capsys):
        code = main(["compare", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err

    def test_far_scenario_is_one_error_line_and_writes_nothing(self, tmp_path, capsys):
        # finite for its rules-file controller, past the bound for the built-ins compare runs
        sc = tmp_path / "far.json"
        sc.write_text('{"start": {"x": 0, "y": 0}, "goal": {"x": 2000000, "y": 0}, "controller": "whatever.rules"}',
                      encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(sc), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scenario fields 'start' and 'goal': distance must not exceed 1e+06 in magnitude, got 2000000.0\n"
        )
        assert captured.out == ""
        assert not list(out.glob("comparison.*"))


class TestValidateCommand:
    def test_exported_builtin_validates_clean(self, tmp_path, capsys):
        rules = tmp_path / "five.rules"
        assert main(["export-rules", "--controller", "5", "--out", str(rules), "--quiet"]) == 0
        assert main(["validate", str(rules)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_byte_order_mark_validates_clean(self, tmp_path, capsys):
        # some Windows editors start a UTF-8 file with EF BB BF
        rules = tmp_path / "bom.rules"
        rules.write_bytes(b"\xef\xbb\xbf" + render_rulebase(builtin(3)).encode("utf-8"))
        assert main(["validate", str(rules)]) == 0
        assert capsys.readouterr().out == "OK: 9 rules over 3x3 grid\n"

    def test_duplicate_cell_exits_3_with_one_diagnostic(self, tmp_path, capsys):
        text = render_rulebase(builtin(3))
        dup = text + text.splitlines()[-1] + "\n"
        path = tmp_path / "dup.rules"
        path.write_text(dup, encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert "duplicate cell" in out

    def test_empty_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.rules"
        path.write_text("", encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        assert "no variables defined" in capsys.readouterr().out

    def test_missing_rule_line_exits_3_naming_the_cell(self, tmp_path, capsys):
        text = render_rulebase(builtin(5))
        first_rule = next(line for line in text.splitlines(keepends=True) if line.startswith("rule "))
        path = tmp_path / "holey.rules"
        path.write_text(text.replace(first_rule, "", 1), encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 and out.startswith("incomplete grid: ")

    def test_issue_lines_carry_positions(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text("var angle range -1 oops\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        assert capsys.readouterr().out.startswith("line 1, col 20:")


class TestExportRulesCommand:
    @pytest.mark.parametrize("size,count", [("3", 9), ("5", 25), ("7", 49)])
    def test_rule_line_counts(self, tmp_path, size, count):
        path = tmp_path / f"{size}.rules"
        assert main(["export-rules", "--controller", size, "--out", str(path), "--quiet"]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sum(1 for ln in lines if ln.startswith("rule ")) == count

    def test_export_round_trips_to_builtin(self, tmp_path):
        path = tmp_path / "three.rules"
        main(["export-rules", "--controller", "3", "--out", str(path), "--quiet"])
        assert parse_rulebase(path.read_text(encoding="utf-8")) == builtin(3)

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "x.rules"
        assert main(["export-rules", "--controller", "3", "--out", str(target)]) == 1
        assert capsys.readouterr().err


class TestUnusableFiles:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unusable_out_exits_1(self, tmp_path, capsys, command):
        sc = write_benchmark_scenario(tmp_path, max_time=1.0)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        for out in (blocker, blocker / "sub"):
            assert main([command, "--scenario", str(sc), "--out", str(out), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(blocker) in err

    def test_non_utf8_file_exits_1_naming_the_path(self, tmp_path, capsys):
        # a file that is not UTF-8, one that is missing and a directory
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("# caf\xe9\n".encode("latin-1"))
        sc, out = str(write_benchmark_scenario(tmp_path, max_time=1.0)), str(tmp_path / "o")
        for bad in (str(latin1), str(tmp_path / "missing.txt"), str(tmp_path)):
            for argv, named in (
                (["validate", bad], ()),
                (["run", "--scenario", bad, "--out", out], ()),
                (["compare", "--scenario", bad, "--out", out], ()),
                (["run", "--scenario", sc, "--controller", bad, "--out", out], ("'controller'",)),
            ):
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
                assert bad in err and all(word in err for word in named), argv

    def test_malformed_rules_controller_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("var angle range -1 oops\n", encoding="utf-8")
        # given by --controller, then as the scenario's own controller
        for in_scenario, flag in (("3", ["--controller", str(bad)]), (str(bad), [])):
            sc = write_benchmark_scenario(tmp_path, controller=in_scenario)
            assert main(["run", "--scenario", str(sc), *flag, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: scenario field 'controller': {bad}: line 1, col 20: "), err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("body,message", [
        ('{"start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1}, "dt": 1' + "0" * 400 + "}",
         "error: scenario field 'dt' must be finite, got inf"),
        ('{"start": ' + "[" * 100_000 + "]" * 100_000 + "}", "scenario.json: invalid JSON: "),
        ('{"start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1}, "dt": 1' + "0" * 5000 + "}",
         "scenario.json: invalid JSON: Exceeds the limit (4300 digits)"),
        *((body, f"scenario.json: scenario config must be a JSON object, got {kind}")
          for body, kind in (("null", "null"), ("true", "boolean"), ("1.5", "number"), ('"x"', "string"),
                             ("[]", "array"))),
        *(('{"start": {"x": 0, "y": 0}, "goal": {"x": 3, "y": 4}, "params": {"v_max": %s}}' % v_max,
           f"error: scenario field 'params': v_max must {bound}, got {v_max}")
          for v_max, bound in (("1e+308", "not exceed 1e+06 in magnitude"), ("1e-320", "be at least 1e-06"))),
        ('{"start": {"x": 0, "y": 0}, "goal": {"x": 3, "y": 4}, "dt": 1e302, "max_time": 2e302}',
         "error: scenario field 'dt' must not exceed 1e+06 in magnitude, got 1e+302"),
    ], ids=["integer-overflowing-a-float", "nested-past-the-recursion-limit", "integer-past-the-digit-limit",
            "null", "boolean", "number", "string", "array", "huge-v_max", "tiny-v_max", "huge-dt"])
    def test_malformed_scenario_exits_1_without_a_traceback(self, tmp_path, command, body, message):
        # in a child process, so an uncaught error shows as its traceback on stderr
        path = tmp_path / "scenario.json"
        path.write_text(body, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzynav.cli", command, "--scenario", str(path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], proc.stderr


class TestUsageErrors:
    def test_bad_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frob"])
        assert excinfo.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", "somewhere"])
        assert excinfo.value.code == 1

    def test_bad_export_choice_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export-rules", "--controller", "4", "--out", "x"])
        assert excinfo.value.code == 1


class TestOneProcess:
    def test_commands_in_sequence_behave_as_alone(self, tmp_path, capsys, monkeypatch):
        # one parser serves every call in a process: a usage error, then
        # validate, then run give the exit code and output each gives in a
        # fresh interpreter
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width in both
        rules = tmp_path / "five.rules"
        rules.write_text(render_rulebase(builtin(5)), encoding="utf-8")
        scenario = write_benchmark_scenario(tmp_path)
        commands = (["run", "--out", str(tmp_path / "u")], ["validate", str(rules)],
                    ["run", "--scenario", str(scenario), "--controller", str(rules), "--out", str(tmp_path / "r")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        alone = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "fuzzynav.cli", *argv],
                                  capture_output=True, text=True, timeout=60, env=env)
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        together = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            together.append((code, *capsys.readouterr()))
        assert together == alone
        assert [code for code, _, _ in alone] == [1, 0, 0]
        assert alone[0][2].startswith("usage: fuzzynav run [-h] --scenario SCENARIO")
        assert alone[0][2].endswith("fuzzynav run: error: the following arguments are required: --scenario\n")


class TestCompareExitCodes:
    def test_not_all_reached_exits_2(self, tmp_path, capsys):
        sc = write_benchmark_scenario(tmp_path, max_time=1.0)
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(sc), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out.endswith(
            "fastest controller: undetermined (not all runs reached the goal)\n"
        )
        table = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert all(row["metrics"]["reached"] is False for row in table["rows"])
        assert table["ordering"]["three_mf_fastest"] is None
