"""The benchmark's own open-loop client for the serving daemon.

It speaks the daemon's wire format -- a 4-byte big-endian length, then a
UTF-8 JSON object -- with its own code, and imports nothing from the
program, so a change to the program's load generator or protocol module
cannot move the numbers.

Arrivals are open-loop: the whole Poisson schedule is drawn up front
from the seed, and each request is sent when it is due whatever the
daemon is doing.  Requests alternate over the connections.  Each reply
is timed from its request's *scheduled* send time, so a stall also
charges the requests queued behind it; how late the sender itself ran
is recorded as ``late_ms``.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import time
from collections import deque
from dataclasses import dataclass, field

_HEADER = struct.Struct(">I")


def encode(message: dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload)) + payload


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """One reply, or ``None`` at a clean end of stream."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise
        return None
    (length,) = _HEADER.unpack(header)
    return json.loads(await reader.readexactly(length))


class Connection:
    """One client connection: a daemon session whose replies must come in order."""

    def __init__(self, reader, writer, client_id: int) -> None:
        self.reader = reader
        self.writer = writer
        self.client_id = client_id
        #: (sessions_completed, query_index) the next ``ok`` reply must carry.
        self.expect = (0, 0)

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode({"op": "hello"}))
        reply = await read_message(reader)
        if not reply or not reply.get("ok"):
            raise RuntimeError(f"hello refused: {reply}")
        return cls(reader, writer, reply["client_id"])

    def check_order(self, reply: dict) -> str | None:
        """Whether an ``ok`` reply is the next step of this connection's session."""
        got = (reply.get("sessions_completed"), reply.get("query_index"))
        problem = None
        if reply.get("client_id") != self.client_id or got != self.expect:
            problem = (
                f"connection {self.client_id}: expected step {self.expect}, got "
                f"client {reply.get('client_id')} step {got}"
            )
        done = bool(reply.get("session_done"))
        self.expect = (got[0] + 1, 0) if done else (got[0], got[1] + 1)
        return problem

    async def close(self, op: str) -> dict | None:
        """Send ``bye`` or ``shutdown``, return its reply, and expect end of stream."""
        self.writer.write(encode({"op": op}))
        reply = await read_message(self.reader)
        extra = await read_message(self.reader)
        self.writer.close()
        if extra is not None:
            raise RuntimeError(f"connection {self.client_id}: unexpected frame {extra}")
        return reply


@dataclass
class Point:
    """One load point: its offered rate (``None`` = all at once) and what came back."""

    rate: float | None
    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    problems: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def achieved_qps(self) -> float:
        return self.ok / self.seconds if self.seconds > 0 else 0.0


def schedule(rate: float | None, n_requests: int, seed: int) -> list[float]:
    """Send offsets in seconds: Poisson at ``rate``, or all at 0 for ``None``."""
    if rate is None:
        return [0.0] * n_requests
    rng = random.Random(seed)
    t, offsets = 0.0, []
    for _ in range(n_requests):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


async def run_point(
    conns: list[Connection], rate: float | None, n_requests: int, seed: int
) -> Point:
    """Send one open-loop point over ``conns`` and collect every reply."""
    point = Point(rate)
    offsets = schedule(rate, n_requests, seed)
    pending = [deque() for _ in conns]
    counts = [len(range(i, n_requests, len(conns))) for i in range(len(conns))]
    start = time.perf_counter() + 0.005
    point.start_ns = int(start * 1e9)

    async def sender() -> None:
        for k, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            point.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            conn = k % len(conns)
            pending[conn].append(due)
            conns[conn].writer.write(encode({"op": "query"}))
            point.sent += 1
            if k % 64 == 63:
                await asyncio.gather(*(c.writer.drain() for c in conns))

    async def receiver(i: int) -> None:
        conn = conns[i]
        for _ in range(counts[i]):
            reply = await read_message(conn.reader)
            now = time.perf_counter()
            if reply is None:
                point.problems.append(f"connection {conn.client_id} closed early")
                return
            if not pending[i]:
                point.problems.append(f"connection {conn.client_id}: reply without a request")
                continue
            due = pending[i].popleft()
            if reply.get("ok"):
                point.ok += 1
                point.latencies_ms.append((now - due) * 1e3)
                problem = conn.check_order(reply)
                if problem:
                    point.problems.append(problem)
            elif reply.get("shed"):
                point.shed += 1
            else:
                point.errors += 1
            point.end_ns = int(now * 1e9)

    await asyncio.gather(sender(), *(receiver(i) for i in range(len(conns))))
    return point
