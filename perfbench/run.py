"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 11 --seconds 30 --trace 0

``--workload`` is ``paper-sweep``, ``fleet-hotspot`` or
``daemon-independent`` (see README.md for why each exists).  With
``--trace 0`` the run measures the end-to-end metrics with no tracing;
with ``--trace 1`` it makes the separate traced run and reports the
per-layer metrics, the self-time shares and the tracing overhead.
Beside either run, ``probe.py`` times a fixed kernel, and rates and
set-up times are reported at the reference host's speed.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

Every run checks the program's outputs; a failed check prints its
reason on standard error, reports ``"correct": false`` and exits 1.  The
exact-value checks (recorded digests and metrics in ``expected.json``)
apply to the default seed only, except for workloads whose recorded
inputs do not depend on the seed; the invariant checks run on every seed.
``--record`` rewrites the workload's entry of ``expected.json`` from a
default-seed run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import common
import probe

WORKLOADS = ("paper-sweep", "fleet-hotspot", "daemon-independent")
#: Workloads whose recorded inputs do not depend on ``--seed`` (the daemon
#: serves a fixed session pool; the seed draws only its traffic), so their
#: exact checks run on every seed.
SEED_FREE = ("daemon-independent",)

#: End-to-end metrics (``--trace 0``), with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("hit_rate", "ratio"),
    ("sim_speedup", "x"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Seconds a program child may take before the run gives up.
CHILD_TIMEOUT_S = 150
#: Workloads whose work runs in one busy process: the simulator, or the
#: daemon (its load client takes the other cores).  That process and the
#: probe are pinned to one core, because the host slows its cores one at a
#: time (a busy neighbour on a sibling hyperthread) and the probe must time
#: the core the work runs on.  ``paper-sweep`` keeps every core busy.
PINNED = ("fleet-hotspot", "daemon-independent")


def run_cpus(workload: str) -> set[int] | None:
    """The core a workload's busy process and the probe are pinned to (None: any)."""
    return {max(os.sched_getaffinity(0))} if workload in PINNED else None


class HostProbe:
    """``probe.py`` running beside a run, on ``cpus`` (None: any core);
    ``samples`` holds its kernel timings once the ``with`` block is over."""

    def __init__(self, cpus: set[int] | None = None) -> None:
        self.cpus = cpus

    def __enter__(self) -> "HostProbe":
        self.samples: list = []
        self.proc = subprocess.Popen(
            [sys.executable, str(common.ROOT / "perfbench" / "probe.py")],
            cwd=str(common.ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=common.pinned(self.cpus),
        )
        return self

    def __exit__(self, *exc) -> None:
        # communicate() closes the probe's stdin, which tells it to stop.
        try:
            stdout, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"host probe exited with {self.proc.returncode}")
        self.samples = json.loads(stdout)

    def rates(self, windows, work) -> tuple[list[float], list[float]]:
        """Each window's ``work`` per wall second, and per second at the
        reference host's speed (see probe.py)."""
        wall = [n / s for n, s in zip(work, common.seconds(windows))]
        factors = probe.speed_factors(self.samples, windows)
        return wall, [r * f for r, f in zip(wall, factors)]

    def seconds(self, windows) -> tuple[list[float], list[float]]:
        """Each window's wall seconds, and its seconds at the reference speed."""
        wall = common.seconds(windows)
        factors = probe.speed_factors(self.samples, windows)
        return wall, [s / f for s, f in zip(wall, factors)]

    def dump(self, path, out: dict) -> None:
        """Write the samples beside the windows they were matched to."""
        keys = ("windows", "work", "setup_windows")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"samples": self.samples} | {k: out[k] for k in keys}))


def run_program(
    workload: str, seed: int, seconds: float, *, trace=False, max_passes=None, cpus=None
) -> dict:
    """Run ``program.py`` in a fresh interpreter; its final JSON line."""
    argv = [
        sys.executable,
        str(common.ROOT / "perfbench" / "program.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
    ]  # fmt: skip
    if max_passes is not None:
        argv += ["--max-passes", str(max_passes)]
    if trace:
        argv.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(common.ROOT / "src"))
    # A session of its own, so a hung run can be killed with its pool workers.
    proc = subprocess.Popen(
        argv,
        cwd=str(common.ROOT),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=common.pinned(cpus),
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} program exited with {proc.returncode}")
    return common.last_json_line(stdout)


def check_expected(workload: str, observed: dict) -> list[str]:
    """Compare a default-seed run's outputs with the recorded ones."""
    want = common.expected(workload)
    if not want:
        return [f"no recorded values for {workload}; record them with --record"]
    errors = []
    for key, value in want.items():
        if key == "cells":
            got = observed.get("cells", {})
            for cell, metrics in value.items():
                if got.get(cell) != metrics:
                    errors.append(
                        f"cell {cell[:12]} hit_rate, sim_speedup {got.get(cell)} "
                        f"!= recorded {metrics}"
                    )
            if set(got) != set(value):
                errors.append("the grid's cells differ from the recorded ones")
        elif observed.get(key) != value:
            errors.append(f"{key} digest {observed.get(key)} != recorded {value}")
    return errors


def record_expected(workload: str, observed: dict) -> None:
    recorded = json.loads(common.EXPECTED_PATH.read_text())
    recorded[workload] = observed
    common.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def measured(workload: str, seed: int, seconds: float) -> dict:
    """The ``--trace 0`` run: end-to-end metrics plus a summary of extras."""
    with HostProbe(run_cpus(workload)) as host:
        if workload == "daemon-independent":
            import serving

            out = serving.run(seed, seconds, trace=False, cpus=run_cpus(workload))
            extras = out["summary"]
        else:
            out = run_program(workload, seed, seconds, cpus=run_cpus(workload))
            extras = {}
    host.dump(common.OUT / f"{workload}.probe.json", out)
    # Wall-clock metrics are medians over the run's windows, each window
    # at the reference host's speed (see probe.py).
    wall_rates, rates = host.rates(out["windows"], out["work"])
    wall_setup, setup = host.seconds(out["setup_windows"])
    extras["windows"] = (len(rates), "count")
    extras["window_qps"] = (rates, "1/s")
    extras["wall.window_qps"] = (wall_rates, "1/s")
    extras["wall.queries_per_s"] = (common.median(wall_rates), "1/s")
    extras["setup_s.each"] = (setup, "s")
    extras["wall.setup_s.each"] = (wall_setup, "s")
    extras["host.samples"] = (len(host.samples), "count")
    values = {
        "setup_s": common.median(setup),
        "queries_per_s": common.median(rates),
        "hit_rate": out["hit_rate"],
        "sim_speedup": out["sim_speedup"],
        "success_frac": (out["attempted"] - out["failed"]) / out["attempted"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "observed": out.get("observed"),
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "extras": extras,
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` run: an untraced reference, then the traced run."""
    import spans

    cpus = run_cpus(workload)
    with HostProbe(cpus) as host:
        if workload == "daemon-independent":
            import serving

            out = serving.run(seed, seconds, trace=True, cpus=cpus)
        else:
            reference = run_program(workload, seed, seconds, max_passes=1, cpus=cpus)
            out = run_program(workload, seed, seconds, trace=True, max_passes=1, cpus=cpus)
    layers = out["layers"]
    if workload == "daemon-independent":
        attempted, failed, errors = out["attempted"], out["failed"], out["errors"]
        observed = out["observed"]
        reference = out["reference"]
    else:
        attempted = reference["attempted"] + out["attempted"]
        failed = reference["failed"] + out["failed"]
        errors = reference["errors"] + out["errors"]
        observed = None
    errors += spans.check_arithmetic()
    # Both rates at the reference host's speed, so the host's drift between
    # the two runs does not enter the overhead.
    layers["trace.queries_per_s"] = common.median(host.rates(out["windows"], out["work"])[1])
    layers["trace.untraced_queries_per_s"] = common.median(
        host.rates(reference["windows"], reference["work"])[1]
    )
    traced_qps = layers.get("trace.queries_per_s", 0.0)
    layers["trace.overhead_ratio"] = (
        layers.get("trace.untraced_queries_per_s", 0.0) / traced_qps if traced_qps else 0.0
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "observed": observed,
        "metrics": {name: (float(layers.get(name, 0.0)), unit) for name, unit in spans.PER_LAYER},
        "extras": {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)

    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {common.ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.record and (args.seed != common.DEFAULT_SEED or args.trace):
        parser.error(f"--record needs --seed {common.DEFAULT_SEED} --trace 0")

    run = (traced if args.trace else measured)(args.workload, args.seed, args.seconds)
    errors = list(run["errors"])
    if args.record:
        record_expected(args.workload, run["observed"])
    elif run["observed"] is not None and (
        args.seed == common.DEFAULT_SEED or args.workload in SEED_FREE
    ):
        errors += check_expected(args.workload, run["observed"])
    if run["failed"]:
        errors.append(f"{run['failed']} of {run['attempted']} operations failed")

    for name, (value, unit) in run["metrics"].items():
        print(f"{args.workload:>18}  {name:<34} {value:>14.6g} {unit}")
    for name, (value, unit) in run["extras"].items():
        print(f"{args.workload:>18}  also {name}: {value} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": int(run["attempted"]),
                "failed": int(run["failed"]),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()
                },
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
