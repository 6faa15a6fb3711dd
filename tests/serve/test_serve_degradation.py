"""Graceful degradation of the serve tier: load shedding, per-request
deadlines, and per-system circuit breakers — every refusal typed,
nothing unbounded, breakers recovering half-open → closed."""

import asyncio
import time

import pytest
from serveutil import run

import repro.serve.service as service_module
from repro.serve import ServeError
from repro.serve.models import FleetStatus
from repro.serve.service import INLINE_LIMIT

CONFIG = "ft_min_word_len = 5\n"


class _Clock:
    """Injectable monotonic clock driving breaker cool-downs."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestLoadShedding:
    def test_overloaded_requests_get_typed_refusals(self, make_service):
        async def scenario():
            service = make_service(
                systems=["mysql"], max_pending=1
            )
            await service.start()
            try:
                gate = asyncio.Event()

                async def stuck(request):
                    await gate.wait()
                    raise AssertionError("never reached")

                real_inner = service._check_inner
                service._check_inner = stuck
                first = asyncio.ensure_future(
                    service.check_config("mysql", CONFIG)
                )
                await asyncio.sleep(0)  # let it occupy the slot
                outcomes = await asyncio.gather(
                    service.check_config("mysql", CONFIG),
                    service.check_config("mysql", CONFIG),
                    return_exceptions=True,
                )
                # Unblock the occupant through the real path.
                service._check_inner = real_inner
                gate.set()
                first.cancel()
                try:
                    await first
                except (asyncio.CancelledError, ServeError):
                    pass
                return outcomes, service.status()
            finally:
                await service.close()

        outcomes, status = run(scenario())
        assert all(isinstance(o, ServeError) for o in outcomes)
        assert {o.code for o in outcomes} == {"overloaded"}
        assert status.resilience["shed"] == 2
        assert status.resilience["max_pending"] == 1

    def test_unbounded_by_default(self, make_service):
        async def scenario():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                response = await service.check_config("mysql", CONFIG)
                return response, service.status()
            finally:
                await service.close()

        response, status = run(scenario())
        assert response.system == "mysql"
        assert status.resilience["max_pending"] is None
        assert status.resilience["shed"] == 0


class TestDeadlines:
    def test_stuck_check_becomes_typed_deadline(self, make_service):
        async def scenario():
            service = make_service(
                systems=["mysql"], deadline_seconds=0.05
            )
            await service.start()
            try:
                async def stuck(request):
                    await asyncio.sleep(5)

                service._check_inner = stuck
                with pytest.raises(ServeError) as excinfo:
                    await service.check_config("mysql", CONFIG)
                return excinfo.value, service.status()
            finally:
                await service.close()

        error, status = run(scenario())
        assert error.code == "deadline"
        assert status.resilience["deadline_timeouts"] == 1

    @pytest.mark.parametrize(
        "config, timed_out",
        [(CONFIG, False), (CONFIG * (INLINE_LIMIT // len(CONFIG) + 1), True)],
        ids=["inline", "pooled"],
    )
    def test_deadline_applies_to_pooled_checks_only(
        self, make_service, monkeypatch, config, timed_out
    ):
        """An inline check never yields to the loop, so a deadline
        cannot cut it short: the inline limit bounds it instead.  A
        pooled check is awaited, and the deadline ends the wait."""
        real = service_module.validate_config

        def slow(checker, config_text):
            time.sleep(0.2)
            return real(checker, config_text)

        monkeypatch.setattr(service_module, "validate_config", slow)

        async def scenario():
            service = make_service(
                systems=["mysql"], deadline_seconds=0.05
            )
            await service.start()
            try:
                try:
                    await service.check_config("mysql", config)
                except ServeError as exc:
                    assert exc.code == "deadline"
                return service.status().resilience["deadline_timeouts"]
            finally:
                await service.close()

        assert run(scenario()) == int(timed_out)

    def test_fast_checks_unaffected_by_a_generous_deadline(
        self, make_service
    ):
        async def scenario():
            service = make_service(
                systems=["mysql"], deadline_seconds=30.0
            )
            await service.start()
            try:
                return await service.check_config("mysql", CONFIG)
            finally:
                await service.close()

        assert run(scenario()).system == "mysql"


class TestCircuitBreaker:
    def test_full_lifecycle_trip_cool_down_probe_close(self, make_service):
        clock = _Clock()

        async def scenario():
            service = make_service(
                systems=["mysql"],
                circuit_threshold=2,
                circuit_reset_seconds=10.0,
                clock=clock,
            )
            await service.start()
            try:
                real_inner = service._check_inner

                async def crash(request):
                    raise RuntimeError("checker exploded")

                service._check_inner = crash
                faults = []
                for _ in range(2):
                    with pytest.raises(ServeError) as excinfo:
                        await service.check_config("mysql", CONFIG)
                    faults.append(excinfo.value.code)
                breaker = service._breakers["mysql"]
                tripped = breaker.state
                # While open, requests are refused before any work.
                with pytest.raises(ServeError) as excinfo:
                    await service.check_config("mysql", CONFIG)
                refusal = excinfo.value.code
                # Cool-down elapses: the next request is the probe.
                clock.advance(11.0)
                half = breaker.state
                service._check_inner = real_inner
                probe = await service.check_config("mysql", CONFIG)
                return (
                    faults,
                    tripped,
                    refusal,
                    half,
                    probe,
                    breaker.state,
                    service.status(),
                )
            finally:
                await service.close()

        faults, tripped, refusal, half, probe, closed, status = run(
            scenario()
        )
        assert faults == ["checker-fault", "checker-fault"]
        assert tripped == "open"
        assert refusal == "circuit-open"
        assert half == "half-open"
        assert probe.system == "mysql"
        assert closed == "closed"
        assert status.resilience["checker_faults"] == 2
        assert status.resilience["circuit_open"] == 1
        assert status.resilience["breakers"] == {"mysql": "closed"}

    def test_failed_probe_reopens(self, make_service):
        clock = _Clock()

        async def scenario():
            service = make_service(
                systems=["mysql"],
                circuit_threshold=1,
                circuit_reset_seconds=10.0,
                clock=clock,
            )
            await service.start()
            try:
                async def crash(request):
                    raise RuntimeError("still broken")

                service._check_inner = crash
                with pytest.raises(ServeError):
                    await service.check_config("mysql", CONFIG)
                clock.advance(11.0)
                with pytest.raises(ServeError) as excinfo:
                    await service.check_config("mysql", CONFIG)
                return excinfo.value.code, service._breakers["mysql"].state
            finally:
                await service.close()

        probe_code, state = run(scenario())
        assert probe_code == "checker-fault"  # the probe ran, and failed
        assert state == "open"  # straight back to a full cool-down

    def test_typed_refusals_do_not_trip_the_breaker(self, make_service):
        async def scenario():
            service = make_service(
                systems=["mysql"], circuit_threshold=1
            )
            await service.start()
            try:
                async def refuse(request):
                    raise ServeError("bad-request", "typed, deliberate")

                service._check_inner = refuse
                with pytest.raises(ServeError) as excinfo:
                    await service.check_config("mysql", CONFIG)
                return excinfo.value.code, service._breakers["mysql"].state
            finally:
                await service.close()

        code, state = run(scenario())
        assert code == "bad-request"
        assert state == "closed"


class TestStatusSchema:
    def test_resilience_block_roundtrips_the_wire(self, make_service):
        async def scenario():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                return service.status()
            finally:
                await service.close()

        status = run(scenario())
        wire = status.summary_dict()
        assert set(wire["resilience"]) == {
            "max_pending",
            "deadline_seconds",
            "shed",
            "deadline_timeouts",
            "circuit_open",
            "checker_faults",
            "breakers",
        }
        rehydrated = FleetStatus.from_dict(wire)
        assert rehydrated.resilience == status.resilience

    def test_old_payload_without_resilience_still_parses(self):
        # Additive schema change: a pre-resilience server's status
        # payload must rehydrate with an empty resilience block.
        status = FleetStatus(
            schema_version=1,
            systems=("mysql",),
            checks_served=0,
            configs_tracked=0,
            results_retained=0,
            uptime_seconds=0.0,
            warmup_seconds=0.0,
            workers=1,
            cache_stats={},
        )
        wire = status.summary_dict()
        wire.pop("resilience")
        assert FleetStatus.from_dict(wire).resilience == {}
