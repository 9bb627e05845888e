"""Full job lifecycle over the wire: submit, poll, result, artifact.

Every test talks HTTP to a real in-process daemon (see conftest).  The
robustness half drives raw sockets at the server — malformed request
lines, oversized bodies, mid-body disconnects — and asserts the accept
loop survives each one.
"""

import json
import socket
import threading
import time

import pytest

from repro.assays import enzyme, glucose, paper_example
from repro.service.client import ServiceClient, ServiceError


def _raw_exchange(url, payload: bytes, *, close_after: int | None = None):
    """Send raw bytes at the daemon; returns the response (b"" if none)."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        if close_after is not None:
            sock.sendall(payload[:close_after])
            return b""
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


class TestLifecycle:
    def test_compile_submit_poll_result_artifact(self, client):
        job = client.submit("compile", glucose.SOURCE, name="glucose")
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["cache"] == "miss"
        assert final["fingerprint"]
        response = client.result(job["id"])
        result = response["result"]
        assert result["kind"] == "compile"
        assert result["exit_code"] == 0
        assert result["plan_status"] == "dagsolve"
        artifact = client.artifact(job["id"])
        assert artifact.decode("utf-8") == result["listing"] + "\n"
        assert artifact.startswith(b"glucose{")

    def test_lint_job(self, client):
        compile_result = client.run("compile", glucose.SOURCE)["result"]
        response = client.run("lint", compile_result["listing"])
        report = response["result"]["report"]
        assert response["result"]["exit_code"] == 0
        assert report["summary"]["errors"] == 0
        artifact = client.artifact(response["job"]["id"])
        assert json.loads(artifact.decode("utf-8")) == report

    def test_certify_job(self, client):
        response = client.run(
            "certify", paper_example.SOURCE, params={"assay": True}
        )
        result = response["result"]
        assert result["exit_code"] == 0
        assert result["report"]["summary"]["plan_checked"] is True

    def test_stress_job(self, client):
        response = client.run(
            "stress",
            paper_example.SOURCE,
            params={"seeds": 2, "fault_rate": 0.05},
        )
        result = response["result"]
        assert len(result["report"]["scenarios"]) == 2
        artifact = json.loads(client.artifact(response["job"]["id"]))
        assert artifact == result["report"]
        # names and volumes are checked when the job runs: a negative
        # budget fails the same way as a malformed one
        for budget in ("-5", "lots"):
            job = client.submit(
                "stress", paper_example.SOURCE, params={"budget": budget}
            )
            final = client.wait(job["id"])
            assert final["state"] == "failed"
            assert final["error"]["code"] == "bad-params"
            assert "params.budget" in final["error"]["message"]

    def test_failed_job_reports_error(self, client):
        job = client.submit("compile", "ASSAY broken\nSTART\nBOGUS;\nEND")
        final = client.wait(job["id"])
        assert final["state"] == "failed"
        assert final["error"]["code"] == "frontend-error"
        with pytest.raises(ServiceError) as info:
            client.result(job["id"])
        assert info.value.code == "not-finished"

    def test_machine_too_small_is_compile_error(self, client):
        """EnzymeN 7 needs more input ports than AquaCore has."""
        source = enzyme.SOURCE.replace("[4]", "[7]").replace("TO 4", "TO 7")
        job = client.submit("compile", source)
        final = client.wait(job["id"])
        assert final["state"] == "failed"
        assert final["error"]["code"] == "compile-error"
        assert "out of input ports" in final["error"]["message"]

    def test_result_before_finished_is_409(self, client, monkeypatch):
        """Deterministic: the job cannot finish until the gate opens, and
        the gate opens only after the result request."""
        from repro.service import server as server_module

        gate = threading.Event()
        real_stress = server_module.JOBS["stress"]

        def gated_stress(*args, **kwargs):
            assert gate.wait(timeout=120), "gate never released"
            return real_stress(*args, **kwargs)

        monkeypatch.setitem(server_module.JOBS, "stress", gated_stress)
        job = client.submit(
            "stress", glucose.SOURCE, params={"seeds": 50}
        )
        try:
            with pytest.raises(ServiceError) as info:
                client.result(job["id"])
            assert info.value.status == 409
        finally:
            gate.set()
        assert client.wait(job["id"])["state"] == "done"

    def test_job_listing_scoped_and_ordered(self, client):
        first = client.submit("compile", glucose.SOURCE)
        second = client.submit("compile", paper_example.SOURCE)
        ids = [job["id"] for job in client.list_jobs()]
        assert ids == sorted(ids)
        assert {first["id"], second["id"]} <= set(ids)
        for job_id in ids:
            client.wait(job_id)

    def test_cancel_queued_job(self, service, client, monkeypatch):
        """Deterministic: the blocker holds the one worker until the gate
        opens, and the gate opens only after the cancel."""
        from repro.service import server as server_module

        gate = threading.Event()
        real_stress = server_module.JOBS["stress"]

        def gated_stress(*args, **kwargs):
            assert gate.wait(timeout=120), "gate never released"
            return real_stress(*args, **kwargs)

        monkeypatch.setitem(server_module.JOBS, "stress", gated_stress)
        # one worker: the stress job occupies it, the compile queues
        blocker = client.submit(
            "stress", glucose.SOURCE, params={"seeds": 40}
        )
        try:
            deadline = time.monotonic() + 60
            while client.status(blocker["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            victim = client.submit("compile", paper_example.SOURCE)
            assert client.status(victim["id"])["state"] == "queued"
            client.cancel(victim["id"])
            final = client.wait(victim["id"])
            assert final["state"] == "cancelled"
        finally:
            gate.set()
        assert client.wait(blocker["id"])["state"] == "done"
        metrics = client.metrics()
        assert metrics["jobs"]["compile"]["cancelled"] == 1

    def test_cancel_finished_job_is_409(self, client):
        response = client.run("compile", glucose.SOURCE)
        with pytest.raises(ServiceError) as info:
            client.cancel(response["job"]["id"])
        assert info.value.code == "not-cancellable"


class TestTenancy:
    def test_cross_tenant_jobs_invisible(self, service):
        alice = ServiceClient(service.url, tenant="alice")
        bob = ServiceClient(service.url, tenant="bob")
        job = alice.submit("compile", glucose.SOURCE)
        alice.wait(job["id"])
        with pytest.raises(ServiceError) as info:
            bob.status(job["id"])
        assert info.value.status == 404
        assert bob.list_jobs() == []

    def test_token_auth(self, service_factory):
        handle = service_factory(tokens={"sekrit": "alice"})
        with pytest.raises(ServiceError) as info:
            ServiceClient(handle.url).list_jobs()
        assert info.value.status == 401
        with pytest.raises(ServiceError):
            ServiceClient(handle.url, token="wrong").list_jobs()
        authed = ServiceClient(handle.url, token="sekrit")
        job = authed.submit("compile", glucose.SOURCE)
        assert job["tenant"] == "alice"
        authed.wait(job["id"])

    def test_invalid_tenant_header_rejected(self, service):
        bad = ServiceClient(service.url, tenant="no spaces allowed")
        with pytest.raises(ServiceError) as info:
            bad.list_jobs()
        assert info.value.status == 400


class TestRobustness:
    def test_malformed_request_line(self, service, client):
        response = _raw_exchange(service.url, b"BANANAS\r\n\r\n")
        assert _status_of(response) == 400
        assert client.healthz()["ok"]

    def test_bad_json_body(self, service, client):
        body = b"{not json"
        payload = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        response = _raw_exchange(service.url, payload)
        assert _status_of(response) == 400
        assert client.healthz()["ok"]

    def test_oversized_program_via_schema(self, service_factory):
        handle = service_factory(max_source_bytes=64)
        small = ServiceClient(handle.url)
        with pytest.raises(ServiceError) as info:
            small.submit("compile", "x" * 65)
        assert info.value.status == 413
        assert info.value.code == "oversized-program"

    def test_oversized_body_refused_before_read(self, service_factory):
        handle = service_factory(max_source_bytes=64)
        payload = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 1000000\r\n\r\n"
        )
        response = _raw_exchange(handle.url, payload + b"x" * 4096)
        assert _status_of(response) == 413
        assert ServiceClient(handle.url).healthz()["ok"]

    def test_mid_body_disconnect_creates_no_job(self, service, client):
        before = len(client.list_jobs())
        body = json.dumps(
            {"kind": "compile", "source": glucose.SOURCE}
        ).encode()
        payload = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        _raw_exchange(service.url, payload, close_after=len(payload) - 50)
        time.sleep(0.05)       # let the server observe the disconnect
        assert client.healthz()["ok"]
        assert len(client.list_jobs()) == before
        metrics = client.metrics()
        assert metrics["jobs_total"]["submitted"] == before

    def test_unknown_route_and_method(self, service, client):
        assert _status_of(
            _raw_exchange(service.url, b"GET /v2/jobs HTTP/1.1\r\n\r\n")
        ) == 404
        assert _status_of(
            _raw_exchange(service.url, b"PATCH /v1/jobs HTTP/1.1\r\n\r\n")
        ) == 405
        assert client.healthz()["ok"]

    def test_rejections_counted(self, service, client):
        _raw_exchange(service.url, b"BANANAS\r\n\r\n")
        with pytest.raises(ServiceError):
            client.request_json("POST", "/v1/jobs", {"kind": "nope"})
        assert client.metrics()["rejected"] >= 2
