"""The ``daemon-independent`` workload: the real ``scout-repro serve`` daemon.

The daemon runs in its own child process, started through
``launcher.py``; this process is only the load client (``loadgen.py``)
and never imports the program.  The daemon serves EWMA sessions on
independent walks over a 40-neuron tissue, through a 64-page shared
cache (smaller than the working set, so queries evict) and an admission
queue deep enough that nothing is shed.

The daemon's own seed is fixed (``DAEMON_SEED``): with two connections
it serves only two walks, so a seed-chosen tissue and walk pair would
swing the hit rate between 0.58 and 0.99 from seed to seed.  The
benchmark's ``--seed`` draws the traffic: every point's Poisson arrival
schedule.

A measured run starts the daemon ``SETUP_REPEATS`` times to time set-up
(spawn until its ``ready`` line), then drives the last one over two
connections with open-loop Poisson points at each ``LADDER`` rate,
with ``DRAIN_BURSTS`` saturating bursts (every request sent at once)
spread between the points; the median burst completion rate is the
drain rate.  One burst's rate can swing by tens of percent from the
next, so the median of bursts spread over the run is what stays
steadiest between runs.  A traced run first measures the bursts on an
untraced daemon, then repeats the whole run on a traced one.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import common
import loadgen
import spans

LADDER = (250, 500, 750, 1000)
#: Requests of each ladder point per second of run time: 1200 in a 30 s
#: run, so each point's p99 has more than ten samples beyond it (the
#: points take about a third of the run).
POINT_PER_S = 40
#: Requests of the saturating bursts per second of run time (most of the
#: rest of the run at a 1.3k to 1.8k q/s drain rate), and their count.
SATURATE_PER_S = 800
DRAIN_BURSTS = 12
CONNECTIONS = 2
SETUP_REPEATS = 3
DAEMON_SEED = 21
SLO_P99_MS = 50.0
#: A ladder whose sender ran later than this (p99 over all its requests)
#: is not open-loop any more.  Pooled over the ladder, so one stall of a
#: few tens of ms (which the latencies already carry, being timed from
#: each request's due time) does not void a run; a sender that keeps
#: falling behind does.
LATE_LIMIT_MS = 20.0
RUN_TIMEOUT_S = 160
DAEMON_ARGS = (
    "--neurons", "40",
    "--prefetcher", "ewma",
    "--mode", "independent",
    "--cache-pages", "64",
    "--max-queue", "1000000",
    "--report-interval", "3600",
)  # fmt: skip


class Daemon:
    """One daemon child process, started through the launcher."""

    def __init__(self, trace: bool, name: str, cpus: set[int] | None) -> None:
        self.trace = trace
        self.cpus = cpus
        self.out_path = common.OUT / f"{name}.json"
        self.proc = None
        self.port = None
        self.lines: list[dict] = []

    async def start(self) -> tuple[int, int]:
        """Spawn and wait for the ``ready`` line; returns its ``(start_ns, end_ns)``."""
        self.out_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(common.ROOT / "src"))
        argv = [
            sys.executable,
            str(common.ROOT / "perfbench" / "launcher.py"),
            "--bench-out",
            str(self.out_path),
            *(["--trace"] if self.trace else []),
            "serve",
            "--port",
            "0",
            "--seed",
            str(DAEMON_SEED),
            *DAEMON_ARGS,
        ]
        started = time.perf_counter_ns()
        self.proc = await asyncio.create_subprocess_exec(
            *argv,
            cwd=str(common.ROOT),
            env=env,
            stdout=asyncio.subprocess.PIPE,
            preexec_fn=common.pinned(self.cpus),
        )
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), timeout=120)
            if not line:
                await self.proc.wait()
                raise RuntimeError(f"daemon exited with {self.proc.returncode} before ready")
            message = json.loads(line)
            if message.get("type") == "ready":
                self.port = message["port"]
                return started, time.perf_counter_ns()

    async def finish(self) -> dict:
        """Read the daemon's output to its end, wait for it, return its final report."""
        rest = await asyncio.wait_for(self.proc.stdout.read(), timeout=120)
        await asyncio.wait_for(self.proc.wait(), timeout=60)
        for line in rest.decode().splitlines():
            if line.strip():
                self.lines.append(json.loads(line))
        finals = [m for m in self.lines if m.get("type") == "final"]
        if self.proc.returncode != 0 or not finals:
            raise RuntimeError(f"daemon exited with {self.proc.returncode} and no final report")
        return finals[-1]

    async def shutdown(self) -> dict:
        conn = await loadgen.Connection.open("127.0.0.1", self.port)
        await conn.close("shutdown")
        return await self.finish()

    def launcher_output(self) -> dict:
        return json.loads(self.out_path.read_text())

    async def stop(self) -> None:
        """Kill the daemon if it is still running, and wait until it has ended."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def _drive(daemon: Daemon, seed: int, seconds: float, ladder: bool) -> dict:
    """Drive one daemon through the ladder (optional) and the saturating bursts."""
    conns = [await loadgen.Connection.open("127.0.0.1", daemon.port) for _ in range(CONNECTIONS)]
    n_burst = max(CONNECTIONS, int(SATURATE_PER_S * seconds / DRAIN_BURSTS))
    rates = LADDER if ladder else ()
    # The bursts are spread between the ladder points, so the drain rate
    # samples the whole run rather than its last seconds.
    per_gap = DRAIN_BURSTS // max(len(rates), 1)
    points = []
    for i, rate in enumerate(rates):
        n = max(CONNECTIONS, int(POINT_PER_S * seconds))
        points.append(await loadgen.run_point(conns, rate, n, seed * 100 + i))
        for _ in range(per_gap):
            points.append(await loadgen.run_point(conns, None, n_burst, 0))
    while sum(p.rate is None for p in points) < DRAIN_BURSTS:
        points.append(await loadgen.run_point(conns, None, n_burst, 0))
    await conns[1].close("bye")
    ack = await conns[0].close("shutdown")
    final = await daemon.finish()
    return {"points": points, "final": final, "ack": ack}


def _check(run: dict) -> list[str]:
    points, final = run["points"], run["final"]
    errors = []
    sent = sum(p.sent for p in points)
    ok = sum(p.ok for p in points)
    shed = sum(p.shed for p in points)
    failed = sum(p.errors for p in points)
    for p in points:
        errors.extend(p.problems[:5])
        if p.ok + p.shed + p.errors != p.sent:
            errors.append(
                f"point {p.rate}: {p.ok}+{p.shed}+{p.errors} replies for {p.sent} requests"
            )
    late = _ladder_summary(points)["loadgen.late_ms.p99"][0]
    if late > LATE_LIMIT_MS:
        errors.append(f"the sender ran {late:.1f} ms late (p99 over the ladder); run invalid")
    if shed or failed:
        errors.append(f"{shed} requests shed and {failed} errored; expected none")
    if not (run["ack"] or {}).get("draining"):
        errors.append(f"shutdown not acknowledged: {run['ack']}")
    if final.get("drained") is not True:
        errors.append("final report does not say drained")
    if final.get("requests_admitted") != ok + failed or final.get("requests_shed") != shed:
        errors.append(
            f"daemon admitted {final.get('requests_admitted')} and shed "
            f"{final.get('requests_shed')}; client saw {ok + failed} served and {shed} shed "
            f"of {sent}"
        )
    return errors


def _ladder_summary(points) -> dict:
    """Per ladder rate its sample count, p50 and p99, and the highest rate
    meeting the SLO; every entry is ``name: (value, unit)``."""
    out = {}
    best = 0
    for p in points:
        if p.rate is None:
            continue
        rate = int(p.rate)
        p99 = common.percentile(p.latencies_ms, 99)
        out[f"n.r{rate}"] = (len(p.latencies_ms), "count")
        out[f"p50_ms.r{rate}"] = (common.percentile(p.latencies_ms, 50), "ms")
        out[f"p99_ms.r{rate}"] = (p99, "ms")
        out[f"achieved_qps.r{rate}"] = (p.achieved_qps, "1/s")
        if p99 <= SLO_P99_MS and p.shed == 0 and p.achieved_qps >= 0.95 * p.rate:
            best = max(best, rate)
    out["max_rate_at_slo_qps"] = (best, "1/s")
    ladder = [p for p in points if p.rate is not None]
    late = common.percentile([x for p in ladder for x in p.late_ms], 99)
    out["loadgen.late_ms.p99"] = (late, "ms")
    return out


def _drain(points) -> dict:
    """The saturating bursts' windows and the queries each completed;
    ``run.py`` takes the drain rate from them."""
    bursts = [p for p in points if p.rate is None]
    return {"windows": [(p.start_ns, p.end_ns) for p in bursts], "work": [p.ok for p in bursts]}


async def _measured(seed: int, seconds: float, cpus) -> dict:
    setup_windows = []
    daemon = None
    try:
        for rep in range(SETUP_REPEATS):
            daemon = Daemon(trace=False, name=f"daemon-setup{rep}", cpus=cpus)
            setup_windows.append(await daemon.start())
            if rep < SETUP_REPEATS - 1:
                await daemon.shutdown()
        run = await _drive(daemon, seed, seconds, ladder=True)
    finally:
        if daemon is not None:
            await daemon.stop()
    out = daemon.launcher_output()
    errors = _check(run)
    if "sim_speedup" not in out:
        errors.append("the daemon served no session to take a speedup from")
    points, final = run["points"], run["final"]
    cache = final["cache"]
    summary = _ladder_summary(points)
    summary["daemon.queue_depth_max"] = (final["queue_depth_max"], "count")
    return {
        "setup_windows": setup_windows,
        **_drain(points),
        "hit_rate": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "sim_speedup": out.get("sim_speedup", 0.0),
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": sum(p.sent for p in points),
        "failed": sum(p.shed + p.errors for p in points),
        "errors": errors,
        "summary": summary,
        "observed": {"inputs": out.get("inputs")},
    }


async def _traced(seed: int, seconds: float, cpus) -> dict:
    daemon = Daemon(trace=False, name="daemon-reference", cpus=cpus)
    try:
        await daemon.start()
        reference = await _drive(daemon, seed, seconds, ladder=False)
    finally:
        await daemon.stop()
    errors = _check(reference)

    daemon = Daemon(trace=True, name="daemon-traced", cpus=cpus)
    try:
        await daemon.start()
        run = await _drive(daemon, seed, seconds, ladder=True)
    finally:
        await daemon.stop()
    out = daemon.launcher_output()
    errors += _check(run)
    harvest = out["harvest"]
    errors += spans.check_tree(harvest["spans"])
    spans.dump(common.OUT / "daemon-independent.spans.json", harvest)

    points = run["points"]
    window = (points[0].start_ns, points[-1].end_ns)
    layers = spans.per_layer(harvest, window=window)
    r750 = next(p for p in points if p.rate == 750)
    waits = [
        value
        for t, value in harvest["samples"].get("daemon.queue_wait_ms", [])
        if r750.start_ns <= t <= r750.end_ns
    ]
    layers["daemon.queue_wait_ms.p50"] = common.percentile(waits, 50)
    layers["daemon.queue_wait_ms.p99"] = common.percentile(waits, 99)
    layers["daemon.queue_depth_max"] = run["final"]["queue_depth_max"]
    layers["loadgen.late_ms.p99"] = _ladder_summary(points)["loadgen.late_ms.p99"][0]
    return {
        **_drain(points),
        "reference": _drain(reference["points"]),
        "attempted": sum(p.sent for p in points) + sum(p.sent for p in reference["points"]),
        "failed": sum(p.shed + p.errors for p in points + reference["points"]),
        "errors": errors,
        "layers": layers,
        "observed": {"inputs": out.get("inputs")},
    }


def run(seed: int, seconds: float, trace: bool, cpus: set[int] | None) -> dict:
    """One run; the daemon is pinned to ``cpus`` and this process, the load
    client, to the other cores (None: no pinning)."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    if cpus is not None and os.sched_getaffinity(0) - cpus:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - cpus)
    workload = (_traced if trace else _measured)(seed, seconds, cpus)
    # A hung daemon must not hang the benchmark: the timeout cancels the
    # run, whose ``finally`` blocks kill the daemon and wait for it.
    return asyncio.run(asyncio.wait_for(workload, timeout=RUN_TIMEOUT_S))
