"""The seeded stress harness and its CLI surface."""

import dataclasses
import json
import sys
import threading
from fractions import Fraction

import pytest

from repro.assays import enzyme, glucose, paper_example
from repro.cli import main
from repro.compiler.passes import run_compile
from repro.machine.faults import FaultKind
from repro.machine.spec import AQUACORE_SPEC
from repro.runtime.stress import stress_compiled

pytestmark = pytest.mark.stress


@pytest.fixture(scope="module")
def figure2_compiled():
    return run_compile(source=paper_example.SOURCE).compiled


class TestStressCompiled:
    def test_reports_are_byte_identical(self, figure2_compiled):
        first = stress_compiled(figure2_compiled, seeds=4, fault_rate=0.08)
        second = stress_compiled(figure2_compiled, seeds=4, fault_rate=0.08)
        assert first.render_json() == second.render_json()

    def test_zero_rate_all_survive_and_match(self, figure2_compiled):
        report = stress_compiled(figure2_compiled, seeds=3, fault_rate=0.0)
        assert report.survived == 3
        assert report.survival_rate == 1.0
        assert all(s.readings_match for s in report.scenarios)
        assert report.faults_by_kind() == {}

    def test_kind_restriction(self):
        # glucose, not figure2: the kind filter only shows through on an
        # assay that actually senses (figure2 has no sense instructions).
        # Default specs carry no extinction coefficients, so reads are 0
        # and a *relative* misread would be invisible — give the sensors
        # a Glucose coefficient to make readings nonzero.
        spec = dataclasses.replace(
            AQUACORE_SPEC,
            extinction_coefficients={"Glucose": Fraction(1)},
        )
        report = stress_compiled(
            run_compile(source=glucose.SOURCE, spec=spec).compiled,
            seeds=6,
            fault_rate=0.3,
            kinds={FaultKind.SENSOR_MISREAD},
        )
        assert set(report.faults_by_kind()) <= {"sensor-misread"}
        # misreads perturb readings but never volumes: every run completes
        assert report.survived == 6
        assert any(s.readings_match is False for s in report.scenarios)

    def test_failures_are_structured(self, figure2_compiled):
        report = stress_compiled(figure2_compiled, seeds=10, fault_rate=0.35)
        for scenario in report.scenarios:
            if not scenario.survived:
                assert scenario.failure is not None
                assert scenario.failure.error_kind
        payload = json.loads(report.render_json())
        assert payload["seeds"] == 10
        assert len(payload["scenarios"]) == 10

    def test_to_dict_is_json_clean(self, figure2_compiled):
        report = stress_compiled(figure2_compiled, seeds=2, fault_rate=0.1)
        payload = json.loads(report.render_json())
        assert payload["version"] == 1
        assert payload["assay"] == "figure2"
        assert payload["baseline"]["wet_instructions"] > 0


class TestConcurrentStress:
    """``repro serve`` runs stress jobs on worker threads: stress runs of
    one compiled assay at once must each report what a serial run does
    (every fault roll reseeds a generator its own injector owns)."""

    def test_concurrent_runs_match_the_serial_run(self):
        compiled = run_compile(source=enzyme.SOURCE).compiled
        serial = stress_compiled(compiled, seeds=2).render_json()
        assert json.loads(serial)["faults_by_kind"], "no fault fired"
        workers = 3  # more threads than a 2-vCPU host has cores
        start = threading.Barrier(workers, timeout=60)
        rendered: list[str] = []

        def job() -> None:
            start.wait()
            rendered.append(stress_compiled(compiled, seeds=2).render_json())

        # switch threads often, so the runs' rolls interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=job) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert rendered == [serial] * workers


class TestStressCli:
    @pytest.fixture()
    def assay_file(self, tmp_path):
        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        return str(path)

    def test_json_output_is_deterministic(self, assay_file, capsys):
        argv = [
            "stress", assay_file,
            "--seeds", "3", "--fault-rate", "0.05", "--json",
        ]
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert code_a == code_b
        payload = json.loads(out_a)
        assert payload["seeds"] == 3

    def test_zero_rate_exit_code_ok(self, assay_file, capsys):
        assert main(["stress", assay_file, "--seeds", "2",
                     "--fault-rate", "0"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios survived" in out

    def test_kinds_filter_and_validation(self, assay_file, capsys):
        code = main([
            "stress", assay_file, "--seeds", "2", "--fault-rate", "0.2",
            "--kinds", "sensor-misread", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kinds"] == ["sensor-misread"]
        assert code == 0
        with pytest.raises(SystemExit, match="unknown fault kind"):
            main(["stress", assay_file, "--kinds", "gremlins"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "0"], "--seeds: must be an integer in"),
            (["--fault-rate", "7"], "--fault-rate: must be a number in"),
            (["--budget=-5"], "--budget: must be a non-negative volume"),
            (["--budget", "1/0"], "--budget: must be a non-negative volume"),
        ],
    )
    def test_out_of_range_params_rejected(
        self, assay_file, capsys, flags, message
    ):
        """The CLI applies the wire's stress ranges: no vacuous 0/0 pass."""
        with pytest.raises(SystemExit, match=message):
            main(["stress", assay_file, *flags])
        assert capsys.readouterr().out == ""
