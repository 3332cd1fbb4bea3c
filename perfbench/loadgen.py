"""Load generators for the serving workload.

``open_loop`` sends requests on a fixed schedule whatever the service does,
as independent users would; each request's latency runs from the time it
was *due*, so a stall that delays later sends is charged to them, and the
generator's own lateness (send time minus due time) is reported next to
it.  ``closed_loop`` keeps a fixed number of requests in flight, as callers
that each wait for their reply would.  Both run in the caller's event loop
over one transport (one client connection), and both send a slice of a
phase's requests into that phase's :class:`PhaseResult`, so a workload can
interleave slices of its phases across a run.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset from the phase start, and its body."""

    offset_s: float
    template: str
    tenant: str
    x: np.ndarray
    seed: int


def poisson_schedule(
    rng: np.random.Generator,
    rate: float,
    count: int,
    templates: list[str],
    shapes: dict[str, tuple[int, int]],
    tenants: tuple[str, ...],
    seed_base: int,
) -> list[Request]:
    """``count`` requests with exponential gaps at mean ``rate`` per second.

    Templates, tenants and inputs are drawn from ``rng`` too, so the whole
    schedule is a function of the workload seed.  Every input is fresh, so
    the service's result cache never answers for the generator.
    """
    gaps = rng.exponential(1.0 / rate, size=count)
    offsets = np.cumsum(gaps) - gaps[0]
    picks = rng.integers(0, len(templates), size=count)
    who = rng.integers(0, len(tenants), size=count)
    out = []
    for i in range(count):
        name = templates[picks[i]]
        x = rng.uniform(0.0, 2.0 * np.pi, size=shapes[name])
        out.append(Request(float(offsets[i]), name, tenants[who[i]], x, seed_base + i))
    return out


@dataclass
class PhaseResult:
    """Counts, latencies and responses of one load phase."""

    name: str
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    responses: np.ndarray | None = None  # row i holds request i's features
    errors: list[str] = field(default_factory=list)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies_s, q) * 1e3)

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed_s

    def summary(self) -> dict:
        lat = self.lateness_s or [0.0]
        return {
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            "lateness_median_ms": statistics.median(lat) * 1e3,
            "lateness_max_ms": max(lat) * 1e3,
        }


async def _send(transport, request: Request, index: int, start: float, result: PhaseResult) -> None:
    try:
        out = await transport.submit(
            request.template, request.x, tenant=request.tenant, seed=request.seed
        )
    except Exception as exc:  # a failed request is counted, never retried
        result.failed += 1
        result.errors.append(f"{type(exc).__name__}: {exc}")
        return
    result.latencies_s.append(time.perf_counter() - start)
    result.completed += 1
    out = np.ravel(out)
    if result.responses is None:
        # One preallocated array, not one object per response: thousands
        # of retained objects would make the collector's passes, and so
        # the timings, depend on how many responses are being kept.
        result.responses = np.full((result.attempted, out.size), np.nan)
    result.responses[index] = out


async def open_loop(transport, result: PhaseResult, schedule: list[Request], indices) -> None:
    """Send ``schedule[i]`` for ``i`` in ``indices`` open-loop, due times
    counted from the first of them; latency runs from each due time."""
    tasks = []
    t0 = time.perf_counter()
    first = schedule[indices[0]].offset_s
    for i in indices:
        due = t0 + schedule[i].offset_s - first
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_s.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.ensure_future(_send(transport, schedule[i], int(i), due, result)))
    await asyncio.gather(*tasks)
    result.elapsed_s += time.perf_counter() - t0


async def closed_loop(
    transport, result: PhaseResult, requests: list[Request], indices, in_flight: int
) -> None:
    """Send ``requests[i]`` for ``i`` in ``indices`` as one closed-loop block
    with ``in_flight`` outstanding at all times."""
    cursor = iter(indices)

    async def caller() -> None:
        for i in cursor:
            await _send(transport, requests[i], int(i), time.perf_counter(), result)

    t0 = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(in_flight)))
    result.elapsed_s += time.perf_counter() - t0
