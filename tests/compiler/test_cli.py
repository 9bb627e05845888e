"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.assays import glucose, glycomics


@pytest.fixture
def glucose_file(tmp_path):
    path = tmp_path / "glucose.fluid"
    path.write_text(glucose.SOURCE)
    return str(path)


@pytest.fixture
def glycomics_file(tmp_path):
    path = tmp_path / "glycomics.fluid"
    path.write_text(glycomics.SOURCE)
    return str(path)


class TestCheck:
    def test_valid_assay(self, glucose_file, capsys):
        assert main(["check", glucose_file]) == 0
        out = capsys.readouterr().out
        assert "glucose: OK" in out
        assert "10 wet operations" in out

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.fluid"
        bad.write_text("ASSAY x\nSTART\nfluid a\nEND\n")  # missing ';'
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.fluid"]) == 2


class TestDag:
    def test_listing(self, glucose_file, capsys):
        assert main(["dag", glucose_file]) == 0
        out = capsys.readouterr().out
        assert "8 nodes" in out
        assert "Glucose" in out

    def test_dot(self, glucose_file, capsys):
        assert main(["dag", glucose_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestPlan:
    def test_static_plan(self, glucose_file, capsys):
        assert main(["plan", glucose_file]) == 0
        out = capsys.readouterr().out
        assert "dagsolve" in out
        assert "Reagent: 100" in out

    def test_runtime_plan(self, glycomics_file, capsys):
        assert main(["plan", glycomics_file]) == 0
        out = capsys.readouterr().out
        assert "4 partitions" in out
        assert "share 1/2, 50 nl" in out

    def test_hierarchy_toggles(self, glucose_file, capsys):
        assert main(["plan", glucose_file, "--no-lp", "--no-cascade"]) == 0


class TestCompile:
    def test_listing_emitted(self, glucose_file, capsys):
        assert main(["compile", glucose_file]) == 0
        out = capsys.readouterr().out
        assert "glucose{" in out
        assert "sense.OD sensor2, Result[5]" in out

    def test_machine_selection(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--machine", "aquacore-xl"]) == 0

    def test_rolled_listing(self, tmp_path, capsys):
        from repro.assays import enzyme

        path = tmp_path / "enzyme.fluid"
        path.write_text(enzyme.SOURCE)
        assert main(["compile", str(path), "--rolled"]) == 0
        out = capsys.readouterr().out
        assert "loop0: index i: 1->4" in out
        assert "move s5(i), mixer1" in out

    def test_objective_default_is_noop(self, glucose_file, capsys):
        assert main(["compile", glucose_file]) == 0
        plain = capsys.readouterr().out
        assert main(["compile", glucose_file, "--objective", "default"]) == 0
        assert capsys.readouterr().out == plain

    def test_objective_waste_compiles(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--objective", "waste"]) == 0
        out = capsys.readouterr().out
        assert "glucose{" in out

    def test_unknown_objective_rejected(self, glucose_file):
        with pytest.raises(SystemExit):
            main(["compile", glucose_file, "--objective", "speed"])

    def test_plan_command_takes_objective(self, glucose_file, capsys):
        assert main(["plan", glucose_file, "--objective", "waste"]) == 0
        assert "dagsolve" in capsys.readouterr().out

    def test_machine_too_small_is_a_coded_error(self, tmp_path, capsys):
        """EnzymeN 7 needs more input ports than AquaCore has."""
        from repro.assays import enzyme

        path = tmp_path / "enzyme7.fluid"
        path.write_text(
            enzyme.SOURCE.replace("[4]", "[7]").replace("TO 4", "TO 7")
        )
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of input ports")
        assert "Traceback" not in captured.err


class TestRun:
    def test_readings(self, glucose_file, capsys):
        code = main(["run", glucose_file, "--coeff", "Glucose=2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "regenerations: 0" in out
        assert "Result[1] = 1" in out

    def test_separation_models(self, glycomics_file, capsys):
        code = main(
            [
                "run",
                glycomics_file,
                "--sep-yield",
                "separator1=0.4",
                "--sep-yield",
                "separator2=0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured volumes:" in out

    def test_trace_flag(self, glucose_file, capsys):
        assert main(["run", glucose_file, "--trace", "5"]) == 0
        out = capsys.readouterr().out
        assert "input s1, ip1" in out

    def test_bad_coeff_syntax(self, glucose_file):
        with pytest.raises(SystemExit):
            main(["run", glucose_file, "--coeff", "Glucose"])


class TestBenchRegen:
    def test_glucose_count(self, glucose_file, capsys):
        assert main(["bench-regen", glucose_file]) == 0
        out = capsys.readouterr().out
        assert "regenerations without volume management: 2" in out
        assert "Reagent: 2" in out


class TestCompileAnalyzers:
    def test_lint_and_certify_on_one_compile(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--lint", "--certify"]) == 0
        captured = capsys.readouterr()
        assert "input s1" in captured.out          # the listing still prints
        assert "PLAN-WASTE" in captured.err        # certify note reported

    def test_single_file_with_cache_dir(self, glucose_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["compile", glucose_file, "--cache-dir", cache_dir]
        ) == 0
        cold = capsys.readouterr().out
        assert main(
            ["compile", glucose_file, "--cache-dir", cache_dir]
        ) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[0] == cold.splitlines()[0]
        import os

        assert any(
            name.startswith("plan-") for name in os.listdir(cache_dir)
        )


class TestCompileInstrumentation:
    def test_time_passes_table(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--time-passes"]) == 0
        captured = capsys.readouterr()
        assert "input s1" in captured.out           # listing untouched
        assert "wall ms" in captured.err            # table on stderr
        assert "codegen" in captured.err
        assert "total:" in captured.err

    def test_explain_pass_plan(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--explain"]) == 0
        err = capsys.readouterr().err
        assert "pass plan:" in err
        assert "hierarchy" in err
        assert "won at round 1" in err

    def test_single_compile_stats_json(self, glucose_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "passes.json"
        assert main(
            ["compile", glucose_file, "--stats-json", str(stats_path)]
        ) == 0
        data = json.loads(stats_path.read_text())
        assert data["program"] == "glucose"
        names = [entry["name"] for entry in data["passes"]]
        assert "parse" in names and "codegen" in names
        assert all("wall_ms" in entry for entry in data["passes"])

    def test_stats_json_plan_payload_warm_equals_cold(
        self, glucose_file, tmp_path, capsys
    ):
        import json

        cache_dir = str(tmp_path / "cache")
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        argv = ["compile", glucose_file, "--cache-dir", cache_dir,
                "--stats-json"]
        assert main(argv + [str(cold_path)]) == 0
        assert main(argv + [str(warm_path)]) == 0
        cold = json.loads(cold_path.read_text())["plan"]
        warm = json.loads(warm_path.read_text())["plan"]
        # the warm hit restores the plan, so the winning attempt and
        # transform metadata match the cold compile exactly
        assert warm == cold
        assert cold["status"] in ("dagsolve", "lp")
        assert any(a["succeeded"] for a in cold["attempts"])
        assert all(a["objective"] == "default" for a in cold["attempts"])

    def test_warm_cache_shows_prefix_skip(self, glucose_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["compile", glucose_file, "--cache-dir", cache_dir,
                "--time-passes"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cached" in err and "hit" in err

    def test_profile_hotspot_table(self, glucose_file, capsys):
        assert main(["compile", glucose_file, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "input s1" in captured.out           # listing untouched
        assert "cProfile hotspots" in captured.err  # report on stderr
        assert "ms cum" in captured.err

    def test_profile_stats_json(self, glucose_file, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        assert main(
            ["compile", glucose_file, "--profile",
             "--stats-json", str(stats_path)]
        ) == 0
        data = json.loads(stats_path.read_text())
        assert data["profile"], "stats JSON should carry hotspot entries"
        entry = data["profile"][0]
        assert {"pass", "hotspots"} <= set(entry)
        assert {"func", "calls", "tottime_ms", "cumtime_ms"} <= set(
            entry["hotspots"][0]
        )

    def test_instrumentation_rejected_in_batch(self, glucose_file):
        with pytest.raises(SystemExit):
            main(["compile", glucose_file, "--batch", "--time-passes"])
        with pytest.raises(SystemExit):
            main(["compile", glucose_file, "--batch", "--explain"])
        with pytest.raises(SystemExit):
            main(["compile", glucose_file, "--batch", "--profile"])


class TestCompileBatch:
    def test_batch_reports_statuses(self, glucose_file, tmp_path, capsys):
        other = tmp_path / "glucose2.fluid"
        other.write_text(glucose.SOURCE)
        assert main(
            ["compile", glucose_file, str(other), "--batch"]
        ) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "deduped" in out
        assert "cache:" in out

    def test_batch_warm_run_hits(self, glucose_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["compile", glucose_file, "--batch", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert " hit " in capsys.readouterr().out

    def test_batch_stats_json(self, glucose_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        assert main(
            [
                "compile", glucose_file, "--batch",
                "--stats-json", str(stats_path),
            ]
        ) == 0
        data = json.loads(stats_path.read_text())
        assert data["jobs"] == 1
        assert data["results"][0]["status"] == "compiled"

    def test_batch_failure_exit_code(self, glucose_file, tmp_path, capsys):
        bad = tmp_path / "bad.fluid"
        bad.write_text("assay nope {")
        assert main(
            ["compile", glucose_file, str(bad), "--batch"]
        ) == 1
        assert "failed" in capsys.readouterr().out

    def test_batch_certify_flag(self, glucose_file, capsys):
        assert main(
            ["compile", glucose_file, "--batch", "--certify"]
        ) == 0
        assert "certified" in capsys.readouterr().out

    def test_rolled_rejected_in_batch(self, glucose_file):
        with pytest.raises(SystemExit):
            main(["compile", glucose_file, "--batch", "--rolled"])
