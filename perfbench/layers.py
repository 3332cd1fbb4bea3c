"""Which public entry points the traced run wraps, and the per-layer report.

Counts are computed from public arguments and program attributes only:
bytes and passes are *computed* figures (kernel passes or segments x state
bytes x rows), not hardware measurements.
"""

from __future__ import annotations

import selectors
import statistics

import numpy as np

from tracing import Tracer

#: Per-layer metrics, in report order: (name, unit, better).
METRICS = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("data.s", "s", "lower"),
    ("compile.s", "s", "lower"),
    ("compile.programs", "count", "lower"),
    ("evolve.s", "s", "lower"),
    ("evolve.calls", "count", "lower"),
    ("evolve.rows", "count", "lower"),
    ("evolve.bytes_computed", "B", "lower"),
    ("measure.s", "s", "lower"),
    ("measure.calls", "count", "lower"),
    ("measure.state_passes", "count", "lower"),
    ("runtime.tasks", "count", "lower"),
    ("runtime.busy_s", "s", "lower"),
    ("runtime.idle_s", "s", "lower"),
    ("runtime.utilization", "ratio", "higher"),
    ("features.s", "s", "lower"),
    ("features.self_s", "s", "lower"),
    ("head.fit_s", "s", "lower"),
    ("head.predict_s", "s", "lower"),
    ("serve.flushes", "count", "lower"),
    ("serve.requests_per_flush", "count", "higher"),
    ("serve.flush_s", "s", "lower"),
    ("serve.window_wait_ms", "ms", "lower"),
    ("protocol.frames", "count", "lower"),
    ("protocol.bytes", "B", "lower"),
    ("protocol.encode_s", "s", "lower"),
    ("protocol.decode_s", "s", "lower"),
    ("transport.inproc_p50_ms.light", "ms", "lower"),
    ("transport.inproc_rps.saturated", "1/s", "higher"),
    ("loadgen.p99_ms.light", "ms", "lower"),
    ("loadgen.p50_ms.busy", "ms", "lower"),
    ("loadgen.p99_ms.busy", "ms", "lower"),
    ("loadgen.lateness_max_ms", "ms", "lower"),
)


def _passes(program) -> int:
    """State-sized kernel passes one program makes per sample."""
    if program is None:
        return 0
    for attr in ("num_kernel_passes", "num_segments", "num_blocks", "num_gates"):
        value = getattr(program, attr, None)
        if value is not None:
            return int(value)
    return 0


def _evolve_counts(rows: int, program) -> dict:
    n = int(getattr(program, "num_qubits", 0) or 0)
    return {
        "rows": rows,
        "bytes_computed": _passes(program) * rows * 16 * 2**n,
    }


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's entry points (undone by ``tracer.restore()``)."""
    import repro.core.features as features
    import repro.core.model as model
    import repro.data.datasets as datasets
    import repro.quantum.backends as backends
    import repro.quantum.batched as batched
    import repro.serve.batcher as batcher
    import repro.serve.engine as engine
    import repro.serve.service as service
    import repro.serve.transport as transport
    from repro.ml.convex import ConstrainedLeastSquares
    from repro.ml.logistic import LogisticRegression

    tracer.wrap(datasets, "binary_coat_vs_shirt", "data")

    one = lambda a, k, r, s: {"programs": 1}  # noqa: E731
    tracer.wrap(features, "compile_circuit", "compile", one)
    tracer.wrap(features, "compile_parametric", "compile", one)
    tracer.wrap(backends, "compile_parametric", "compile", one)
    tracer.wrap(batched, "compile_parametric", "compile", one)

    sv = backends.StatevectorBackend
    tracer.wrap(sv, "evolve", "evolve", lambda a, k, r, s: _evolve_counts(a[1].shape[0], a[2]))
    tracer.wrap(sv, "evolve_batch", "evolve", lambda a, k, r, s: _evolve_counts(a[1].shape[0], a[2]))
    tracer.wrap(
        batched.ParametricCompiledCircuit,
        "apply_batch",
        "evolve",
        lambda a, k, r, s: _evolve_counts(np.shape(a[1])[0], a[0]),
    )

    def measure_counts(a, k, r, s):
        evolved, observables, estimator = a[0], a[1], a[2]
        rows = int(evolved.shape[0])
        passes = rows if estimator == "shadows" else len(observables)
        return {"estimator": estimator, "rows": rows, "state_passes": passes}

    tracer.wrap(features, "measure_block", "measure", measure_counts)
    tracer.wrap(engine, "measure_block", "measure", measure_counts)

    # The model's feature call is re-issued with return_report=True so the
    # runtime's DispatchReport rides on the features span.
    original = model.generate_features
    reports = []

    def with_report(*args, **kwargs):
        kwargs["return_report"] = True
        q, report = original(*args, **kwargs)
        reports.append(report)
        return q

    def report_counts(a, k, r, s):
        rep = reports.pop()
        busy = float(sum(rep.measured_seconds))
        capacity = rep.wall_seconds * rep.num_workers
        return {
            "tasks": rep.num_tasks,
            "busy_s": busy,
            "idle_s": max(0.0, capacity - busy),
            "capacity_s": capacity,
        }

    model.generate_features = with_report
    tracer._patches.append((model, "generate_features", original))
    tracer.wrap(model, "generate_features", "features", report_counts)

    # The two heads the workloads fit: logistic (classifiers) and
    # constrained least squares (the Theorem 4 regressor).
    for cls in (LogisticRegression, ConstrainedLeastSquares):
        tracer.wrap(cls, "fit", "head.fit")
        tracer.wrap(cls, "predict", "head.predict")

    # Serving: window wait runs from MicroBatcher.add to the flush's start.
    added: dict[int, int] = {}

    def add_counts(a, k, r, s):
        added[id(a[2].payload)] = s.start
        return {}

    def flush_counts(a, k, r, s):
        waits = [
            (s.start - added.pop(id(req), s.start)) / 1e6 for req in a[1]
        ]
        return {"requests": len(a[1]), "waits_ms": waits}

    tracer.wrap(batcher.MicroBatcher, "add", "serve.admit", add_counts)
    tracer.wrap(service, "execute_flush", "serve.flush", flush_counts)

    def frame_rid(a, k):
        rid = a[0].get("id") if a else None
        return None if rid is None else str(rid)

    tracer.wrap(
        transport, "pack_frame", "protocol.encode",
        lambda a, k, r, s: {"frames": 1, "bytes": len(r)}, rid=frame_rid,
    )
    tracer.wrap(transport, "encode_array", "protocol.encode")
    tracer.wrap(transport, "decode_array", "protocol.decode")
    # The event loop blocks in its selector while it has nothing to run:
    # that is idle time, not a program layer, and is shown as such.
    tracer.wrap(selectors.DefaultSelector, "select", "loop.idle")


# ------------------------------------------------------------------ report
def _sum(spans, layer, key=None) -> float:
    if key is None:
        return sum((s.end - s.start) / 1e9 for s in spans if s.layer == layer)
    return float(sum(s.counts.get(key, 0) for s in spans if s.layer == layer))


def _count(spans, layer) -> int:
    return sum(1 for s in spans if s.layer == layer)


def layer_values(spans) -> dict[str, float]:
    """Additive per-layer figures over a set of spans."""
    flushes = [s for s in spans if s.layer == "serve.flush"]
    return {
        "data.s": _sum(spans, "data"),
        "compile.s": _sum(spans, "compile"),
        "compile.programs": _sum(spans, "compile", "programs"),
        "evolve.s": _sum(spans, "evolve"),
        "evolve.calls": _count(spans, "evolve"),
        "evolve.rows": _sum(spans, "evolve", "rows"),
        "evolve.bytes_computed": _sum(spans, "evolve", "bytes_computed"),
        "measure.s": _sum(spans, "measure"),
        "measure.calls": _count(spans, "measure"),
        "measure.state_passes": _sum(spans, "measure", "state_passes"),
        "runtime.tasks": _sum(spans, "features", "tasks"),
        "runtime.busy_s": _sum(spans, "features", "busy_s"),
        "runtime.idle_s": _sum(spans, "features", "idle_s"),
        "_runtime.capacity_s": _sum(spans, "features", "capacity_s"),
        "features.s": _sum(spans, "features"),
        "head.fit_s": _sum(spans, "head.fit"),
        "head.predict_s": _sum(spans, "head.predict"),
        "serve.flushes": len(flushes),
        "_serve.requests": float(sum(s.counts.get("requests", 0) for s in flushes)),
        "serve.flush_s": _sum(spans, "serve.flush"),
        "protocol.frames": _sum(spans, "protocol.encode", "frames"),
        "protocol.bytes": _sum(spans, "protocol.encode", "bytes"),
        "protocol.encode_s": _sum(spans, "protocol.encode"),
        "protocol.decode_s": _sum(spans, "protocol.decode"),
    }


def report(tracer: Tracer, rounds: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for one set-up plus one round (round figures are
    averaged over ``rounds``), and a per-layer table of every phase kind."""
    by_kind: dict[str, list[int]] = {}
    for name, index in tracer.phases:
        by_kind.setdefault(name, []).append(index)
    totals: dict[str, float] = {}
    waits: list[float] = []
    table: list[str] = []
    unattributed = 0.0
    for kind, indices in by_kind.items():
        scale = 1.0 if kind == "setup" else 1.0 / rounds
        spans = [s for i in indices for s in tracer.phase_spans(i)]
        for key, value in layer_values(spans).items():
            totals[key] = totals.get(key, 0.0) + value * scale
        waits += [w for s in spans if s.layer == "serve.flush" for w in s.counts.get("waits_ms", ())]
        shares: dict[str, float] = {}
        wall = rest = 0.0
        for i in indices:
            part, un, w = tracer.attribute(i)
            for layer, sec in part.items():
                shares[layer] = shares.get(layer, 0.0) + sec
            rest += un
            wall += w
        totals["features.self_s"] = totals.get("features.self_s", 0.0) + shares.get("features", 0.0) * scale
        unattributed += rest * scale
        table.append(f"phase {kind}: {len(indices)} x, wall {wall:.4f} s")
        table.append(f"  {'layer':<18}{'calls':>9}{'self s':>11}{'share':>8}")
        for layer in sorted(shares, key=shares.get, reverse=True):
            calls = sum(1 for s in spans if s.layer == layer)
            table.append(
                f"  {layer:<18}{calls:>9}{shares[layer]:>11.4f}{shares[layer] / wall:>8.1%}"
            )
        table.append(f"  {'(unattributed)':<18}{'':>9}{rest:>11.4f}{rest / wall:>8.1%}")
        accounted = sum(shares.values()) + rest
        table.append(f"  {'sum':<18}{'':>9}{accounted:>11.4f}{accounted / wall:>8.1%}")
        by_estimator: dict[str, float] = {}
        for s in spans:
            if s.layer == "measure":
                est = s.counts.get("estimator", "?")
                by_estimator[est] = by_estimator.get(est, 0.0) + (s.end - s.start) / 1e9
        for est, sec in sorted(by_estimator.items()):
            table.append(f"  measure[{est}] inclusive {sec:.4f} s")
    capacity = totals.pop("_runtime.capacity_s", 0.0)
    requests = totals.pop("_serve.requests", 0.0)
    totals["runtime.utilization"] = totals["runtime.busy_s"] / capacity if capacity else 0.0
    flushes = totals["serve.flushes"]
    totals["serve.requests_per_flush"] = requests / flushes if flushes else 0.0
    totals["serve.window_wait_ms"] = statistics.median(waits) if waits else 0.0
    totals["trace.unattributed_s"] = unattributed
    return totals, table
