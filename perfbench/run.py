"""Benchmark entry point: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run sets up in ``SETUP_BATCHES`` batches (compile caches emptied before
each set-up), one before its timed rounds and the others spread between
them, and reports the median of every set-up as ``setup_s``; it runs whole
rounds of the workload's timed phases until ``--seconds`` of round time
have passed, checks the outputs and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A failed check prints the reason on
stderr and exits with code 1 without a result line.

With ``--trace 1`` the run first makes the untraced run, then wraps the
layers' public entry points, sets up once more and runs the same rounds
traced; the difference between the two is the tracing overhead.  The spans
(Chrome trace-event JSON) and the per-layer table go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Set-up batches per run; each sets up at least ``SETUP_BATCH_REPEATS``
#: times and for at least ``SETUP_BATCH_S``.  The median of every set-up is
#: reported, so a set-up of a few milliseconds is still a median over many
#: repeats, taken across the whole run.
SETUP_BATCHES = 5
SETUP_BATCH_REPEATS = 2
SETUP_BATCH_S = 0.4
WORKLOADS = ("paper-shadows", "qmatrix-l2-exact", "ensemble-shots-pool", "serve-tcp")


def _null_phase(name):
    return contextlib.nullcontext()


def _settle() -> None:
    """Collect set-up garbage and move what survives out of the collector's
    view, so the timed phases do not rescan the inputs the benchmark holds."""
    gc.collect()
    gc.freeze()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


# ------------------------------------------------------------------ set-up
async def _call(fn, *args):
    """Call ``fn``; await the result when it is awaitable (serving is async)."""
    out = fn(*args)
    if inspect.isawaitable(out):
        out = await out
    return out


async def _setup_batch(wl, seed: int, setup_s: list[float], phase, single: bool = False):
    """Set up ``SETUP_BATCH_REPEATS`` or more times and for ``SETUP_BATCH_S``
    or longer (once if ``single``), compile caches emptied before each,
    appending each time to ``setup_s``; returns the last context."""
    from workloads import clear_compile_caches

    ctx, count, t_batch = None, 0, time.perf_counter()
    while True:
        if ctx is not None:
            await _call(ctx.close)
        clear_compile_caches()
        with phase("setup"):
            t0 = time.perf_counter()
            ctx = await _call(wl.setup, seed)
            setup_s.append(time.perf_counter() - t0)
        count += 1
        if single or (
            count >= SETUP_BATCH_REPEATS and time.perf_counter() - t_batch >= SETUP_BATCH_S
        ):
            break
    _settle()
    return ctx


class _SetupSchedule:
    """A run's set-up batches: the first before its timed rounds, the others
    spread over them.  The machine's speed drifts over seconds, so set-ups
    timed all at the start would sample one stretch of it where the rounds
    sample the whole run."""

    def __init__(self, wl, seed: int, phase, batches: int) -> None:
        self.wl, self.seed, self.phase, self.batches = wl, seed, phase, batches
        self.setup_s: list[float] = []
        self.done = 0

    async def first(self):
        self.done = 1
        return await _setup_batch(self.wl, self.seed, self.setup_s, self.phase, self.batches == 1)

    async def another(self) -> None:
        """One more batch, if any is left; its contexts are closed."""
        if self.done < self.batches:
            ctx = await _setup_batch(self.wl, self.seed, self.setup_s, self.phase)
            await _call(ctx.close)
            self.done += 1

    async def rest(self) -> None:
        while self.done < self.batches:
            await self.another()


# ---------------------------------------------------------------- training
async def _training_pass(wl, seed: int, seconds: float, phase, batches: int):
    """Set up, then run whole rounds for ``seconds`` of round time, with a
    further set-up batch each time the round time passes another
    ``seconds / batches``."""
    setups = _SetupSchedule(wl, seed, phase, batches)
    ctx = await setups.first()
    attempted = failed = rounds = 0
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        a, f = wl.run_round(ctx, phase)
        spent += time.perf_counter() - t0
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
        if spent >= seconds:
            break
        if spent >= setups.done * seconds / batches:
            await setups.another()
    await setups.rest()
    return ctx, setups.setup_s, attempted, failed, rounds


async def _run_training(name: str, seed: int, seconds: float, trace: bool):
    from workloads import TRAINING

    wl = TRAINING[name]
    ctx, setup_s, attempted, failed, _ = await _training_pass(
        wl, seed, seconds, _null_phase, SETUP_BATCHES
    )
    metrics = wl.metrics(ctx)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    untraced_round = statistics.mean(ctx.fit_s) + statistics.mean(ctx.predict_s)
    wl.check(ctx)
    ctx.close()
    layers = None
    if trace:
        tracer = _tracer()
        try:
            tctx, _, t_attempted, t_failed, t_rounds = await _training_pass(
                wl, seed, seconds, tracer.phase, 1
            )
        finally:
            tracer.restore()
        wl.check(tctx)
        tctx.close()
        attempted, failed = attempted + t_attempted, failed + t_failed
        traced_round = statistics.mean(tctx.fit_s) + statistics.mean(tctx.predict_s)
        layers = _layers(
            tracer, t_rounds, name, seed, traced_round, untraced_round, "fit + predict"
        )
    return metrics, attempted, failed, layers


# ----------------------------------------------------------------- serving
async def _serve_pass(wl, seed: int, seconds: float, phase, batches: int):
    """Set up, then run the round; further set-up batches run between the
    round's slices."""
    setups = _SetupSchedule(wl, seed, phase, batches)
    ctx = await setups.first()
    wl.schedules(ctx, seconds)
    _settle()
    attempted, failed = await wl.run_round(ctx, seconds, phase, setups.another)
    await setups.rest()
    return ctx, setups.setup_s, attempted, failed


async def _run_serve(seed: int, seconds: float, trace: bool):
    from repro.serve import InProcessTransport
    from workloads import ServeTcp

    wl = ServeTcp()
    ctx, setup_s, attempted, failed = await _serve_pass(
        wl, seed, seconds, _null_phase, SETUP_BATCHES
    )
    metrics = wl.metrics(ctx)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    phases = ctx.phases
    if trace:
        inproc, inproc_schedules = await wl.run_phases(
            ctx, InProcessTransport(ctx.service), seconds, _null_phase,
            names=("light", "saturated"), fresh=True,
        )
        attempted += sum(r.attempted for r in inproc.values())
        failed += sum(r.failed for r in inproc.values())
    await ctx.close()
    wl.check(ctx, phases, wl.schedules(ctx, seconds))
    if not trace:
        return metrics, attempted, failed, None
    wl.check(ctx, inproc, inproc_schedules)
    tracer = _tracer()
    try:
        tctx, _, t_attempted, t_failed = await _serve_pass(wl, seed, seconds, tracer.phase, 1)
        await tctx.close()
    finally:
        tracer.restore()
    wl.check(tctx, tctx.phases, wl.schedules(tctx, seconds))
    attempted, failed = attempted + t_attempted, failed + t_failed
    busy = phases["busy"].summary()
    extra = {
        "transport.inproc_p50_ms.light": inproc["light"].percentile_ms(50),
        "transport.inproc_rps.saturated": inproc["saturated"].throughput,
        "loadgen.p99_ms.light": phases["light"].percentile_ms(99),
        "loadgen.p50_ms.busy": busy["p50_ms"],
        "loadgen.p99_ms.busy": busy["p99_ms"],
        "loadgen.lateness_max_ms": max(
            phases[p].summary()["lateness_max_ms"] for p in ("light", "busy")
        ),
    }
    # The overhead is taken on the closed loop: the open-loop phases are
    # paced by their schedules and last as long traced as untraced.
    layers = _layers(
        tracer, 1, wl.name, seed, tctx.phases["saturated"].elapsed_s,
        phases["saturated"].elapsed_s, "closed loop", extra,
    )
    return metrics, attempted, failed, layers


# ------------------------------------------------------------------ tracing
def _tracer():
    from layers import instrument
    from tracing import Tracer

    tracer = Tracer()
    instrument(tracer)
    return tracer


def _layers(tracer, rounds, name, seed, traced, untraced, over, extra=None):
    from layers import METRICS, report

    values, table = report(tracer, rounds)
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    values.update(extra or {})
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}")
    tracer.write(stem + "-spans.json")
    header = [
        f"per-layer table: {name}, seed {seed}; self time is wall-clock share",
        f"tracing overhead: {values['trace.overhead_pct']:+.1f}% "
        f"({over}: {traced:.4f} s traced vs {untraced:.4f} s untraced)",
    ]
    with open(stem + "-layers.txt", "w") as fh:
        fh.write("\n".join(header + table) + "\n")
    for line in header + table:
        print(line)
    return {m: {"value": float(values.get(m, 0.0)), "unit": u} for m, u, _ in METRICS}


# --------------------------------------------------------------------- main
def run_one(args) -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from envinfo import EnvironmentProbe

    probe = EnvironmentProbe()
    import refsim
    from checks import CheckFailed

    refsim.self_test()
    if args.workload == "serve-tcp":
        job = _run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        job = _run_training(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics, attempted, failed, layers = asyncio.run(job)
    except CheckFailed as exc:
        print(f"CHECK FAILED [{args.workload} seed {args.seed}]: {exc}", file=sys.stderr)
        return 1
    env = probe.report()
    human = metrics.pop("_human")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"  attempted {attempted}, failed {failed}")
    for label, value, unit in [
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
    ] + human:
        print(f"  {label:<28} {value:>14.6g} {unit}")
    print("  env " + json.dumps(env))
    end_to_end = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        "job_ms": {"value": metrics["job_ms"], "unit": "ms"},
        "rows_per_s": {"value": metrics["rows_per_s"], "unit": "1/s"},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {"env": env, "end_to_end": end_to_end, "human": human, "layers": layers,
             "attempted": attempted, "failed": failed},
            fh, indent=1,
        )
    print(_result(attempted, failed, layers if args.trace else end_to_end))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"give --all or --workload with one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
