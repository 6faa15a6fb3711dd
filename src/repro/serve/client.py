"""Typed async client for the validation service.

Mirrors the service's API surface one coroutine per op, rehydrating
wire dicts into the typed models so callers never touch raw JSON.
The schema version travels in every response envelope; a mismatch
raises `ServeError("schema-mismatch")` instead of silently misreading
fields.

Usage::

    import asyncio
    from repro.serve import ServeClient

    async def main():
        client = await ServeClient.connect("127.0.0.1", 7878)
        response = await client.check("mysql", "port = 70000\n",
                                      config_id="prod/my.cnf")
        print(response.flagged, response.errors)
        async for item in client.iter_pages(response.page):
            print(item["param"], item["message"])
        await client.close()

    asyncio.run(main())

`submit_config` is the synchronous one-shot used by the ``submit``
CLI command: connect, check, drain every diagnostic page, disconnect.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.models import (
    SCHEMA_VERSION,
    CheckResponse,
    ConfigHistory,
    DiagnosticPage,
    FleetStatus,
    MetricsResponse,
    ServeError,
)
from repro.serve.server import MAX_LINE_BYTES


class ServeClient:
    """One NDJSON connection to a `ValidationServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        read_timeout: float | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        # How long one op - sending the request and reading its
        # response line - may take (None = wait forever).  A blown
        # timeout surfaces as a typed `ServeError("deadline")`, never a
        # hang or a bare `TimeoutError` the caller has to know asyncio
        # internals for.
        self.read_timeout = read_timeout

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> "ServeClient":
        try:
            async with asyncio.timeout(connect_timeout):
                reader, writer = await asyncio.open_connection(
                    host, port, limit=MAX_LINE_BYTES
                )
        except asyncio.TimeoutError:
            raise ServeError(
                "deadline",
                f"connecting to {host}:{port} exceeded the "
                f"{connect_timeout}s connect timeout",
            ) from None
        return cls(reader, writer, read_timeout=read_timeout)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the wire ------------------------------------------------------------

    async def _call(self, op: str, **payload) -> dict:
        message = dict(payload, op=op)
        self._writer.write(
            (json.dumps(message) + "\n").encode("utf-8")
        )
        try:
            # One deadline for the whole op, on this task: no Task per
            # await, and `timeout(None)` never expires.
            async with asyncio.timeout(self.read_timeout):
                await self._writer.drain()
                line = await self._reader.readline()
        except asyncio.TimeoutError:
            raise ServeError(
                "deadline",
                f"op {op!r} exceeded the {self.read_timeout}s read "
                "timeout waiting on the server",
            ) from None
        if not line:
            raise ServeError(
                "bad-request", "server closed the connection mid-call"
            )
        envelope = json.loads(line.decode("utf-8"))
        version = envelope.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ServeError(
                "schema-mismatch",
                f"server speaks schema {version}, client expects "
                f"{SCHEMA_VERSION}",
            )
        if not envelope.get("ok"):
            error = envelope.get("error") or {}
            raise ServeError(
                error.get("code", "bad-request"),
                error.get("message", "unspecified server error"),
            )
        return envelope["data"]

    # -- typed ops -----------------------------------------------------------

    async def check(
        self,
        system: str,
        config_text: str,
        config_id: str | None = None,
        page_size: int | None = None,
        severity: str | None = None,
        kinds: tuple[str, ...] = (),
    ) -> CheckResponse:
        payload: dict = {
            "system": system,
            "config_text": config_text,
            "config_id": config_id,
            "severity": severity,
            "kinds": list(kinds),
        }
        if page_size is not None:
            payload["page_size"] = page_size
        return CheckResponse.from_dict(await self._call("check", **payload))

    async def page(
        self, cursor: str, limit: int | None = None
    ) -> DiagnosticPage:
        return DiagnosticPage.from_dict(
            await self._call("page", cursor=cursor, limit=limit)
        )

    async def history(self, system: str, config_id: str) -> ConfigHistory:
        return ConfigHistory.from_dict(
            await self._call("history", system=system, config_id=config_id)
        )

    async def status(self) -> FleetStatus:
        return FleetStatus.from_dict(await self._call("status"))

    async def metrics(self, limit: int | None = None) -> MetricsResponse:
        payload = {} if limit is None else {"limit": limit}
        return MetricsResponse.from_dict(
            await self._call("metrics", **payload)
        )

    async def ping(self) -> bool:
        return bool((await self._call("ping")).get("pong"))

    async def shutdown(self) -> None:
        await self._call("shutdown")

    # -- pagination helpers --------------------------------------------------

    async def iter_pages(self, first_page: DiagnosticPage):
        """Async-iterate every diagnostic from `first_page` onward,
        following cursors until exhaustion."""
        page = first_page
        while True:
            for item in page.items:
                yield item
            if page.cursor is None:
                return
            page = await self.page(page.cursor)

    async def check_all(
        self, system: str, config_text: str, **kwargs
    ) -> tuple[CheckResponse, list[dict]]:
        """Check, then drain every page: (response, all diagnostics
        that matched the request's filter)."""
        response = await self.check(system, config_text, **kwargs)
        items = [
            item async for item in self.iter_pages(response.page)
        ]
        return response, items


def submit_config(
    host: str,
    port: int,
    system: str,
    config_text: str,
    config_id: str | None = None,
    severity: str | None = None,
    kinds: tuple[str, ...] = (),
    connect_timeout: float | None = None,
    read_timeout: float | None = None,
) -> tuple[CheckResponse, list[dict]]:
    """One-shot synchronous submission (the ``submit`` CLI command)."""

    async def run():
        client = await ServeClient.connect(
            host,
            port,
            connect_timeout=connect_timeout,
            read_timeout=read_timeout,
        )
        try:
            return await client.check_all(
                system,
                config_text,
                config_id=config_id,
                severity=severity,
                kinds=kinds,
            )
        finally:
            await client.close()

    return asyncio.run(run())
