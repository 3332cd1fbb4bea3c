"""Reference figures quoted in the README, re-measured with the workloads.

    python3 perfbench/reference.py [--seed N]

Prints, for the machine's default BLAS threads and for BLAS pinned to one
thread (``OPENBLAS_NUM_THREADS=1`` and friends, set for a child process
only):

* the classical-shadows cost per row (``paper-shadows`` features, 512
  snapshots, serial);
* the ``ensemble-shots-pool`` fit on the 2-worker thread pool against the
  same fit served inline;
* ``serve-tcp`` closed-loop throughput over TCP and over the in-process
  transport, swept over the number of requests in flight, which shows
  where the closed loop's throughput stops rising (``IN_FLIGHT`` is set
  there);
* the ``serve-tcp`` open-loop knee: p50 and p99 latency from due time at
  fixed rates, 3 s each.

Each figure is the median of three repeats after one warm-up (closed-loop
rates: of three runs of 3000 requests in ten blocks each).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KNEE_RATES = (100, 200, 300, 400, 500, 600, 700, 800, 1000)
IN_FLIGHT_SWEEP = (8, 16, 32, 64, 128, 256)
PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _median_of(fn, repeats: int = 3) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(seed: int) -> dict:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import loadgen
    import workloads
    from envinfo import _blas
    from repro.api import QuantumDevice
    from repro.core.features import generate_features
    from repro.core.model import PostVariationalRegressor
    from repro.serve import InProcessTransport

    out: dict = {"blas": _blas(), "in_flight": workloads.IN_FLIGHT}
    shadows = workloads.PaperShadows().setup(seed)
    rows = shadows.x_train[:100]
    out["shadows_s_per_row"] = _median_of(
        lambda: generate_features(shadows.strategy, rows, config=shadows.config)
    ) / len(rows)

    ctx = workloads.EnsembleShotsPool().setup(seed)
    for label, device in (
        ("pool2_fit_s", ctx.device),
        ("serial_fit_s", QuantumDevice(ctx.config)),
    ):
        model = PostVariationalRegressor(strategy=ctx.strategy, head="constrained", device=device)
        out[label] = _median_of(lambda: model.fit(ctx.x_train, ctx.y_train))
        device.close()

    async def serving() -> dict:
        serve = workloads.ServeTcp()
        sctx = await serve.setup(seed)
        names = sorted(sctx.strategies)
        shapes = {n: sctx.transport.template_shape(n) for n in names}
        rates = {}
        for in_flight in IN_FLIGHT_SWEEP:
            for label, transport in (
                ("tcp", sctx.transport),
                ("inproc", InProcessTransport(sctx.service)),
            ):
                runs = []
                for _ in range(3):
                    schedule = loadgen.poisson_schedule(
                        sctx.rng, 300, 3000, names, shapes, serve.tenants, 0
                    )
                    result = loadgen.PhaseResult(label, attempted=len(schedule))
                    for block in np.array_split(np.arange(len(schedule)), 10):
                        await loadgen.closed_loop(transport, result, schedule, block, in_flight)
                    if result.failed:
                        raise RuntimeError(f"closed loop at {in_flight}: {result.errors[:3]}")
                    runs.append(result.throughput)
                rates[f"{label}_rps_{in_flight}"] = statistics.median(runs)
        # The open-loop knee: p50 and p99 from due time, and how far the
        # phase overran its schedule (a growing backlog shows as overrun).
        for rate in KNEE_RATES:
            schedule = loadgen.poisson_schedule(
                sctx.rng, rate, 3 * rate, names, shapes, serve.tenants, 0
            )
            result = loadgen.PhaseResult(f"open-{rate}", attempted=len(schedule))
            await loadgen.open_loop(sctx.transport, result, schedule, np.arange(len(schedule)))
            rates[f"open_{rate}"] = {
                "p50_ms": result.percentile_ms(50),
                "p99_ms": result.percentile_ms(99),
                "overrun_s": result.elapsed_s - schedule[-1].offset_s,
            }
        await sctx.close()
        return rates

    out.update(asyncio.run(serving()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.seed)))
        return 0
    for label, extra in (("default BLAS threads", {}), ("BLAS pinned to 1 thread", PINNED)):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", "--seed", str(args.seed)],
            env={**os.environ, **extra}, capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        figures = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{label}: {json.dumps(figures)}")
        print(
            f"  shadows {figures['shadows_s_per_row'] * 1e3:.2f} ms/row; ensemble fit "
            f"pool {figures['pool2_fit_s']:.2f} s vs serial {figures['serial_fit_s']:.2f} s "
            f"({figures['pool2_fit_s'] / figures['serial_fit_s']:.2f}x)"
        )
        for in_flight in IN_FLIGHT_SWEEP:
            tcp, inproc = (figures[f"{t}_rps_{in_flight}"] for t in ("tcp", "inproc"))
            mark = "  <- IN_FLIGHT" if in_flight == figures["in_flight"] else ""
            print(
                f"  closed loop {in_flight:>4} in flight: TCP {tcp:6.0f} rps, "
                f"in-process {inproc:6.0f} rps ({inproc / tcp:.2f}x){mark}"
            )
        for rate in KNEE_RATES:
            knee = figures[f"open_{rate}"]
            print(
                f"  open loop {rate:>5} rps: p50 {knee['p50_ms']:6.2f} ms, "
                f"p99 {knee['p99_ms']:7.2f} ms, overrun {knee['overrun_s']:.3f} s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
