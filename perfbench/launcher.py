"""Benchmark-owned launcher of the ``scout-repro serve`` daemon.

Usage: ``python3 perfbench/launcher.py --bench-out PATH [--trace] serve ARGS...``
with ``src`` on ``PYTHONPATH``.  Everything after the launcher's own
options is handed to ``repro.cli.main`` unchanged.

With ``--trace`` the launcher installs the span wrappers of
``spans.py`` before the daemon starts.  In both modes it keeps a
reference to the daemon's session pool, tallies the simulated times of
every session it serves (``SessionTally``), and when the daemon has
drained and exited it writes ``PATH``: the digest of the pool's query
bounds (the daemon's generated inputs), the pooled simulated speedup of
the sessions served and, when traced, the span harvest.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import common
import spans


def _keep_instances(cls) -> list:
    """A list that every later instance of ``cls`` is appended to."""
    kept = []
    init = cls.__init__

    @functools.wraps(init)
    def init_and_keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kept.append(self)

    cls.__init__ = init_and_keep
    return kept


class SessionTally:
    """The simulated cold and response seconds of every session served.

    A session that ``renew`` replaces is folded in and released, so the
    daemon holds no more memory (and its garbage collector no more
    objects) than without the launcher; the sessions still open at exit
    are folded in by ``speedup``.  Each session's seconds come from the
    program's ``aggregate``; they are pooled as it pools sequences.
    """

    def __init__(self, session_cls, aggregate) -> None:
        self.aggregate = aggregate
        self.cold = self.response = 0.0
        self.live: dict[int, object] = {}
        init, renew = session_cls.__init__, session_cls.renew
        tally = self

        @functools.wraps(init)
        def init_and_track(session, *args, **kwargs):
            init(session, *args, **kwargs)
            tally.live[id(session)] = session

        @functools.wraps(renew)
        def renew_and_fold(session, *args, **kwargs):
            fresh = renew(session, *args, **kwargs)
            tally.fold(tally.live.pop(id(session), session))
            return fresh

        session_cls.__init__ = init_and_track
        session_cls.renew = renew_and_fold

    def fold(self, session) -> None:
        if session.metrics.records:
            pooled = self.aggregate([session.metrics])
            self.cold += pooled.cold_seconds
            self.response += pooled.response_seconds

    def speedup(self) -> float | None:
        """Pooled cold over response seconds; ``None`` if nothing was served."""
        for session in self.live.values():
            self.fold(session)
        self.live.clear()
        return self.cold / self.response if self.response > 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--bench-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args, daemon_argv = parser.parse_known_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    from repro import cli
    from repro.serve.daemon import ServeDaemon
    from repro.sim.engine import QuerySession
    from repro.sim.metrics import aggregate

    daemons = _keep_instances(ServeDaemon)
    sessions = SessionTally(QuerySession, aggregate)
    code = cli.main(daemon_argv)

    out = {"code": code, "peak_rss_mb": common.peak_rss_mb()}
    if daemons:
        out["inputs"] = common.bounds_digest(w.sequence for w in daemons[0].pool)
    speedup = sessions.speedup()
    if speedup is not None:
        out["sim_speedup"] = speedup
    if tracer is not None:
        out["harvest"] = tracer.take()
    spans.dump(Path(args.bench_out), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
