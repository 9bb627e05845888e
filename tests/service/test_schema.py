"""Wire schema v1 validation: every refusal is typed and stable."""

import pytest

from repro.service.schema import SchemaError, parse_job_request


def body(**overrides):
    base = {"kind": "compile", "source": "ASSAY x\nSTART\nEND"}
    base.update(overrides)
    return base


def rejects(payload, code, status=400):
    with pytest.raises(SchemaError) as info:
        parse_job_request(payload)
    assert info.value.code == code
    assert info.value.status == status
    return info.value


class TestTopLevel:
    def test_minimal_accepted(self):
        request = parse_job_request(body())
        assert request.kind == "compile"
        assert request.name == "job"
        assert request.machine == "aquacore"

    def test_non_object_rejected(self):
        rejects([1, 2], "bad-request")
        rejects("compile", "bad-request")

    def test_unknown_fields_rejected(self):
        rejects(body(extra=1), "bad-request")

    def test_unknown_kind(self):
        rejects(body(kind="transpile"), "unsupported-kind")

    def test_missing_source(self):
        rejects({"kind": "compile"}, "bad-request")
        rejects(body(source="   "), "bad-request")

    def test_oversized_source_is_413(self):
        error = rejects(
            body(source="x" * (262_144 + 1)), "oversized-program", 413
        )
        assert "262144" in str(error)

    def test_unknown_machine(self):
        rejects(body(machine="dropbot"), "bad-request")
        rejects(body(machine=["aquacore"]), "bad-request")

    def test_bad_name(self):
        rejects(body(name=""), "bad-request")
        rejects(body(name="n" * 129), "bad-request")
        rejects(body(name=7), "bad-request")


class TestOptions:
    def test_known_options_accepted(self):
        request = parse_job_request(
            body(options={"use_lp": False, "allow_cascading": True})
        )
        assert request.options == {"use_lp": False, "allow_cascading": True}

    def test_unknown_option_rejected(self):
        rejects(body(options={"turbo": True}), "bad-request")

    def test_non_bool_option_rejected(self):
        rejects(body(options={"use_lp": 1}), "bad-request")

    def test_objective_option_accepted(self):
        for objective in ("default", "waste"):
            request = parse_job_request(
                body(options={"objective": objective, "use_lp": True})
            )
            assert request.options["objective"] == objective
            assert request.options["use_lp"] is True

    def test_unknown_objective_rejected(self):
        error = rejects(body(options={"objective": "speed"}), "bad-request")
        assert "objective" in str(error)
        rejects(body(options={"objective": True}), "bad-request")
        rejects(body(options={"objective": ["waste"]}), "bad-request")


class TestParams:
    def test_compile_takes_no_params(self):
        rejects(body(params={"assay": True}), "bad-request")

    def test_lint_assay_flag(self):
        request = parse_job_request(
            body(kind="lint", params={"assay": True})
        )
        assert request.params == {"assay": True}
        rejects(body(kind="lint", params={"assay": "yes"}), "bad-request")

    def test_certify_topology(self):
        request = parse_job_request(
            body(kind="certify", params={"topology": "ring"})
        )
        assert request.params["topology"] == "ring"
        rejects(
            body(kind="certify", params={"topology": "mesh"}), "bad-request"
        )
        rejects(
            body(kind="certify", params={"topology": {"bus": 1}}),
            "bad-request",
        )

    def test_stress_bounds(self):
        good = parse_job_request(
            body(
                kind="stress",
                params={
                    "seeds": 5,
                    "fault_rate": 0.5,
                    "kinds": ["metering-drift"],
                    "budget": "40",
                },
            )
        )
        assert good.params["seeds"] == 5
        rejects(body(kind="stress", params={"seeds": 0}), "bad-request")
        rejects(body(kind="stress", params={"seeds": True}), "bad-request")
        rejects(
            body(kind="stress", params={"fault_rate": 1.5}), "bad-request"
        )
        rejects(body(kind="stress", params={"kinds": []}), "bad-request")
        rejects(body(kind="stress", params={"budget": ""}), "bad-request")
