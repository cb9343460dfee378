"""End-to-end daemon tests: real sockets, real HTTP, one event loop."""

import asyncio
import os

import pytest

from repro.obs import MemorySink, observed, validate_exposition
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.scheduler import ServiceScheduler


def run(coro):
    return asyncio.run(coro)


async def _with_daemon(test, **scheduler_kw):
    """Start a loopback daemon, run ``test(client, daemon)``, tear down."""
    scheduler = ServiceScheduler(
        scheduler_kw.pop("strategy", "ls_group[k=2]"),
        m=scheduler_kw.pop("m", 4),
        **scheduler_kw,
    )
    daemon = ServiceDaemon(scheduler, port=0)
    server = asyncio.create_task(daemon.serve())
    await daemon.started.wait()
    try:
        async with ServiceClient(port=daemon.port) as client:
            await test(client, daemon)
    finally:
        daemon.stop()
        await server


def test_admit_and_fetch_lifecycle():
    async def scenario(client, daemon):
        body = await client.submit("tenant-a", 2.5, key="a-0")
        assert body["created"] is True
        assert body["state"] in ("queued", "running")
        assert len(body["machines"]) == 2
        fetched = await client.get_task(body["task_id"])
        assert fetched["tenant"] == "tenant-a"
        await client.drain()
        done = await client.get_task(body["task_id"])
        assert done["state"] == "done" and "actual" in done

    run(_with_daemon(scenario, seed=4))


def test_idempotency_key_over_http():
    async def scenario(client, daemon):
        first = await client.submit("t", 1.5, key="dup")
        replay = await client.submit("t", 1.5, key="dup")
        assert first["created"] and not replay["created"]
        assert replay["task_id"] == first["task_id"]
        status = await client.status()
        assert status["admitted"] == 1 and status["deduplicated"] == 1

    run(_with_daemon(scenario))


def test_http_error_codes():
    async def scenario(client, daemon):
        with pytest.raises(ServiceError) as err:
            await client.submit("t", -3.0)
        assert err.value.status == 400 and err.value.code == "bad_estimate"
        status, body = await client.request("POST", "/v1/tasks", {"estimate": 1, "bogus": 2})
        assert status == 400 and body["error"]["code"] == "unknown_field"
        status, body = await client.request("POST", "/v1/tasks", {"estimate": 1, "size": "big"})
        assert status == 400 and body["error"]["code"] == "bad_size"
        status, _ = await client.request("GET", "/v1/tasks/999")
        assert status == 404
        status, _ = await client.request("GET", "/nowhere")
        assert status == 404
        status, _ = await client.request("DELETE", "/v1/tasks")
        assert status == 405
        status, body = await client.request("GET", "/v1/tasks?page_token=garbage")
        assert status == 400 and body["error"]["code"] == "bad_page_token"

    run(_with_daemon(scenario))


def test_pagination_over_http():
    async def scenario(client, daemon):
        for j in range(12):
            await client.submit("t", 1.0 + j)
        seen = []
        token = None
        while True:
            page = await client.list_tasks(page_token=token, limit=5)
            seen.extend(t["task_id"] for t in page["tasks"])
            token = page.get("next_page_token")
            if token is None:
                break
        assert seen == list(range(12))

    run(_with_daemon(scenario))


def test_drain_rejects_new_admissions_and_empties_queue():
    async def scenario(client, daemon):
        for j in range(9):
            await client.submit("t", 0.5 + 0.1 * j)
        stats = await client.drain()
        assert stats["draining"] is True
        assert stats["queued"] == 0 and stats["running"] == 0
        assert stats["done"] == stats["admitted"] == 9
        with pytest.raises(ServiceError) as err:
            await client.submit("t", 1.0)
        assert err.value.status == 503 and err.value.code == "draining"

    run(_with_daemon(scenario))


def test_shutdown_stops_the_server_after_draining():
    async def scenario():
        scheduler = ServiceScheduler("ls_group[k=2]", m=4, seed=1)
        daemon = ServiceDaemon(scheduler, port=0)
        server = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        async with ServiceClient(port=daemon.port) as client:
            for j in range(5):
                await client.submit("t", 1.0)
            stats = await client.shutdown()
            assert stats["done"] == 5
        await asyncio.wait_for(server, timeout=5)
        assert scheduler.draining

    run(scenario())


def test_metrics_and_slo_endpoints_live():
    async def scenario():
        with observed(MemorySink()):
            scheduler = ServiceScheduler("ls_group[k=2]", m=4, seed=2)
            daemon = ServiceDaemon(scheduler, port=0)
            server = asyncio.create_task(daemon.serve())
            await daemon.started.wait()
            try:
                async with ServiceClient(port=daemon.port) as client:
                    for j in range(6):
                        await client.submit("t", 1.0 + j)
                    await client.drain()
                    text = await client.metrics()
                    families, errors = validate_exposition(text)
                    assert not errors
                    assert "repro_service_admissions" in families
                    report = await client.slo(["count(service.admissions) >= 6"])
                    assert report["passed"] is True
                    failing = await client.slo(["count(service.admissions) >= 999"])
                    assert failing["passed"] is False
                    status, body = await client.request("GET", "/v1/slo?objective=nonsense(((")
                    assert status == 400 and body["error"]["code"] == "bad_objective"
            finally:
                daemon.stop()
                await server

    run(scenario())


def test_unix_socket_transport():
    async def scenario(tmp_path):
        scheduler = ServiceScheduler("lpt_no_choice", m=2, seed=0)
        socket_path = str(tmp_path / "svc.sock")
        daemon = ServiceDaemon(scheduler, port=None, socket_path=socket_path)
        server = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        try:
            async with ServiceClient(socket_path=socket_path) as client:
                body = await client.submit("t", 1.0)
                assert body["created"]
                queue = await client.queue()
                assert queue["running"] + queue["queued"] + queue["done"] == 1
        finally:
            daemon.stop()
            await server

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        run(scenario(Path(tmp)))


def test_shutdown_removes_the_unix_socket(tmp_path):
    """A stale socket file would pass a ``[ -S path ]`` readiness check."""

    async def scenario():
        scheduler = ServiceScheduler("lpt_no_choice", m=2, seed=0)
        socket_path = tmp_path / "svc.sock"
        daemon = ServiceDaemon(scheduler, port=None, socket_path=str(socket_path))
        server = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        assert socket_path.is_socket()
        async with ServiceClient(socket_path=str(socket_path)) as client:
            await client.submit("t", 1.0)
            await client.shutdown()
        await asyncio.wait_for(server, timeout=5)

    run(scenario())
    assert not os.path.lexists(tmp_path / "svc.sock")


def test_shutdown_keeps_a_socket_it_did_not_bind(tmp_path):
    """Only the inode this daemon bound is removed: a newer socket at the
    same path (another daemon's) survives the old daemon's shutdown."""
    import socket

    async def scenario():
        scheduler = ServiceScheduler("lpt_no_choice", m=2, seed=0)
        socket_path = tmp_path / "svc.sock"
        daemon = ServiceDaemon(scheduler, port=None, socket_path=str(socket_path))
        server = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        socket_path.unlink()
        with socket.socket(socket.AF_UNIX) as newer:
            newer.bind(str(socket_path))
            daemon.stop()
            await asyncio.wait_for(server, timeout=5)
            assert socket_path.is_socket()

    run(scenario())


def test_queue_endpoint_reports_group_loads():
    async def scenario(client, daemon):
        await client.submit("t", 4.0)
        await client.submit("t", 1.0)
        queue = await client.queue()
        assert len(queue["group_loads"]) == 2
        assert sorted(queue["group_loads"]) == [1.0, 4.0]

    run(_with_daemon(scenario))


async def _await_down(client, machines, attempts=200):
    """Poll /v1/health until ``machines`` are all down (eager pump races)."""
    for _ in range(attempts):
        health = await client.health()
        if set(machines) <= set(health["down"]):
            return health
        await asyncio.sleep(0.01)
    raise AssertionError(f"machines {machines} never went down: {health['down']}")


def test_health_endpoint_snapshot():
    async def scenario(client, daemon):
        health = await client.health()
        assert health["machines"] == 4 and health["groups"] == 2
        assert health["availability"] == 1.0
        assert health["down"] == [] and health["degraded_groups"] == []
        assert health["admitted"] == health["done"] == 0
        # No health tracker configured -> no policy key.
        assert set(health) == {
            "clock", "machines", "groups", "availability", "down",
            "degraded_groups", "admitted", "queued", "running", "done",
            "shed", "replaced", "machine_failures", "machine_recoveries",
        }

    run(_with_daemon(scenario))


def test_chaos_endpoint_round_trip():
    from repro.chaos.policy import HealthTracker

    async def scenario(client, daemon):
        body = await client.chaos(fail=[0, 1])  # kill group 0 permanently
        assert body["failed"] == [0, 1]
        health = await _await_down(client, [0, 1])
        assert health["availability"] == 0.5
        assert health["degraded_groups"] == [0]
        assert health["machine_failures"] == 2
        assert health["policy"]["counts"]["suspect"] == 2
        # Admissions survive on the other group's replicas.
        admitted = await client.submit("t", 1.0)
        assert admitted["group"] == 1
        assert set(admitted["machines"]) == {2, 3}
        recovered = await client.chaos(recover=[0, 1])
        assert recovered["recovered"] == [0, 1]
        for _ in range(200):
            health = await client.health()
            if not health["down"]:
                break
            await asyncio.sleep(0.01)
        assert health["availability"] == 1.0
        assert health["machine_recoveries"] == 2

    run(_with_daemon(scenario, health=HealthTracker()))


def test_chaos_endpoint_validation():
    async def scenario(client, daemon):
        for payload in (
            {},
            {"fail": []},
            {"fail": [0], "bogus": 1},
            {"fail": [True]},
            {"fail": [0], "downtime": "soon"},
            {"fail": [99]},
        ):
            status, body = await client.request("POST", "/v1/chaos", payload)
            assert status == 400, payload
            assert body["error"]["code"] == "bad_chaos"

    run(_with_daemon(scenario))


def test_degraded_admission_returns_503():
    async def scenario(client, daemon):
        # m=2 with k=2: one machine per group, so failing both machines
        # leaves no group to admit into.
        await client.chaos(fail=[0, 1])
        await _await_down(client, [0, 1])
        with pytest.raises(ServiceError) as err:
            await client.submit("t", 1.0)
        assert err.value.status == 503 and err.value.code == "degraded"

    run(_with_daemon(scenario, m=2))




@pytest.mark.parametrize("pace", [-1.0, float("nan"), float("inf")])
def test_pace_must_be_finite_and_non_negative(pace):
    """The pump paces itself when ``pace > 0`` and yields every few steps
    when ``pace == 0``; a pace that is neither would never yield."""
    with pytest.raises(ValueError, match="pace"):
        ServiceDaemon(ServiceScheduler("ls_group[k=2]", m=4), port=0, pace=pace)
