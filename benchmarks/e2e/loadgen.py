"""HTTP load generator for the service workload.

One asyncio thread in the benchmark process and at most two open
connections.  Replies are read by ``Content-Length``, never to EOF: a
connection that is open while the service forks its process pool is
inherited by the pool worker, so the server closing its end never
gives EOF to a client that waits for it (``repro.service.fetch_json``
reads to EOF and hangs there).

Two traffic shapes:

* :func:`open_loop` sends requests on a fixed schedule whatever the
  service does (independent users) and times each one from when it was
  *due*, so a stall also charges the requests queued behind it;
* :func:`closed_loop` runs clients that each send the next request
  only after the previous reply (callers waiting on results), which
  measures the rate the service sustains.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Request", "Reply", "LoopStats", "exchange", "open_loop", "closed_loop"]

#: Most connections the generator holds open at once.
MAX_CONNECTIONS = 2

#: Seconds one exchange may take before it counts as failed.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    """One pre-encoded request and the reply the benchmark expects."""

    method: str
    path: str
    body: bytes
    request_id: str
    expect_hit: Optional[bool] = None


@dataclass(frozen=True)
class Reply:
    """What came back for one request, with its timestamps."""

    request: Request
    due: float
    sent: float
    done: float
    status: int
    payload: Any
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """Seconds from when the request was due to its full reply."""
        return self.done - self.due


@dataclass
class LoopStats:
    """How far the generator itself fell behind (open loop only)."""

    lag_s: List[float]
    inflight_max: int


async def exchange(host: str, port: int, request: Request) -> Tuple[int, Any]:
    """Send one request; return ``(status, decoded JSON body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{request.method} {request.path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(request.body)}\r\n"
            f"X-Request-Id: {request.request_id}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + request.body)
        await writer.drain()
        status = int((await reader.readuntil(b"\r\n")).split()[1])
        length = None
        while True:
            line = await reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:
            raise ValueError("reply has no Content-Length")
        body = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return status, json.loads(body) if body else None


async def _send(host: str, port: int, request: Request, due: float) -> Reply:
    sent = perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            exchange(host, port, request), TIMEOUT_S
        )
        error = None
    except (OSError, ValueError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
        status, payload, error = 0, None, f"{type(exc).__name__}: {exc}"
    return Reply(request, due, sent, perf_counter(), status, payload, error)


async def open_loop(
    host: str, port: int, requests: Sequence[Request], rate: float
) -> Tuple[List[Reply], LoopStats]:
    """Send ``requests`` at ``rate`` per second on a fixed schedule."""
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    lag: List[float] = []
    inflight = inflight_max = 0

    async def one(request: Request, due: float) -> Reply:
        nonlocal inflight, inflight_max
        async with slots:
            lag.append(perf_counter() - due)
            inflight += 1
            inflight_max = max(inflight_max, inflight)
            try:
                return await _send(host, port, request, due)
            finally:
                inflight -= 1

    start = perf_counter()
    tasks = []
    for index, request in enumerate(requests):
        due = start + index / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(request, due)))
    replies = await asyncio.gather(*tasks)
    return list(replies), LoopStats(lag_s=lag, inflight_max=inflight_max)


async def closed_loop(
    host: str, port: int, requests: Iterator[Request], seconds: float
) -> Tuple[List[Reply], float]:
    """Run :data:`MAX_CONNECTIONS` back-to-back clients for ``seconds``.

    Returns the replies and the wall time until the last client
    finished its final request.
    """
    replies: List[Reply] = []
    start = perf_counter()
    deadline = start + seconds

    async def client() -> None:
        while perf_counter() < deadline:
            request = next(requests)
            replies.append(await _send(host, port, request, perf_counter()))

    await asyncio.gather(*(client() for _ in range(MAX_CONNECTIONS)))
    return replies, perf_counter() - start
