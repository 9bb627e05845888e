"""Regression pin for the one severity / exit-code table.

``repro lint``, ``repro certify``, the compiler's diagnostic sink, and
the pass-manager drivers all map findings to process exit codes through
``repro.compiler.diagnostics``.  These tests pin the mapping so a change
to any one consumer cannot silently fork the policy.
"""

import pytest

from repro.analysis import lint as lint_mod
from repro.analysis.certify import report as certify_mod
from repro.analysis.report import AnalysisReport
from repro.compiler.diagnostics import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_FATAL,
    EXIT_WARNINGS,
    SEVERITY_EXIT_CODES,
    Diagnostic,
    DiagnosticSink,
    Severity,
    exit_code_for,
    severity_counts,
)


def diag(severity, code="x"):
    return Diagnostic(severity, code, "message")


class TestTable:
    def test_exit_code_values_are_pinned(self):
        assert EXIT_CLEAN == 0
        assert EXIT_WARNINGS == 1
        assert EXIT_ERRORS == 2
        # parse/compile failure deliberately shares the error code:
        # callers gate on "nonzero means not clean".
        assert EXIT_FATAL == EXIT_ERRORS

    def test_severity_to_exit_code_mapping_is_pinned(self):
        assert SEVERITY_EXIT_CODES == {
            None: 0,
            Severity.NOTE: 0,
            Severity.WARNING: 1,
            Severity.ERROR: 2,
        }

    def test_severity_ordering(self):
        assert Severity.NOTE.rank < Severity.WARNING.rank < Severity.ERROR.rank
        ranks = sorted(severity.rank for severity in Severity)
        assert ranks == [0, 1, 2]

    def test_exit_code_for_takes_the_worst_finding(self):
        assert exit_code_for([]) == EXIT_CLEAN
        assert exit_code_for([diag(Severity.NOTE)]) == EXIT_CLEAN
        assert (
            exit_code_for([diag(Severity.NOTE), diag(Severity.WARNING)])
            == EXIT_WARNINGS
        )
        assert (
            exit_code_for(
                [diag(Severity.WARNING), diag(Severity.ERROR), diag(Severity.NOTE)]
            )
            == EXIT_ERRORS
        )

    def test_exit_code_matches_sink_max_severity(self):
        sink = DiagnosticSink()
        assert SEVERITY_EXIT_CODES[sink.max_severity] == EXIT_CLEAN
        sink.note("a", "m")
        assert SEVERITY_EXIT_CODES[sink.max_severity] == EXIT_CLEAN
        sink.warning("b", "m")
        assert SEVERITY_EXIT_CODES[sink.max_severity] == EXIT_WARNINGS
        sink.error("c", "m")
        assert SEVERITY_EXIT_CODES[sink.max_severity] == EXIT_ERRORS


class TestConsumersShareTheTable:
    """Lint and certify re-export the table rather than defining their own."""

    @pytest.mark.parametrize("module", [lint_mod, certify_mod])
    def test_reexported_constants_are_the_same_objects(self, module):
        assert module.EXIT_CLEAN == EXIT_CLEAN
        assert module.EXIT_WARNINGS == EXIT_WARNINGS
        assert module.EXIT_ERRORS == EXIT_ERRORS

    @pytest.mark.parametrize(
        "findings, expected",
        [
            ([], EXIT_CLEAN),
            ([diag(Severity.NOTE)], EXIT_CLEAN),
            ([diag(Severity.WARNING)], EXIT_WARNINGS),
            ([diag(Severity.ERROR), diag(Severity.NOTE)], EXIT_ERRORS),
        ],
    )
    def test_lint_and_certify_reports_agree(self, findings, expected):
        lint_report = AnalysisReport(
            tool="lint", program="p", machine="m", findings=list(findings)
        )
        certify_report = AnalysisReport(
            tool="certify",
            program="p",
            machine="m",
            findings=list(findings),
            verdict="certified",
            verdict_allows_notes=True,
        )
        assert lint_report.exit_code == expected
        assert certify_report.exit_code == expected
        assert lint_report.exit_code == exit_code_for(findings)
        assert certify_report.exit_code == exit_code_for(findings)

    def test_report_payload_embeds_the_shared_exit_code(self):
        findings = [diag(Severity.WARNING)]
        payload = AnalysisReport(
            tool="lint", program="p", machine="m", findings=findings
        ).to_dict()
        counts = severity_counts(findings)
        assert payload["summary"]["exit_code"] == EXIT_WARNINGS
        assert payload["summary"]["errors"] == counts["error"]
        assert payload["summary"]["warnings"] == counts["warning"]
        assert payload["summary"]["notes"] == counts["note"]
