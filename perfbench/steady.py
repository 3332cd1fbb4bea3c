"""Steadiness check: run every workload several times and report spreads.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]

Each run is a fresh process with its own seed; the workload order alternates
between runs.  For every end-to-end metric the report gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median`` against the metric's bound in ``BENCHMARK.json``,
plus the share of failed operations.  With ``--sets 2`` it repeats the
whole set with other seeds and requires the two medians to differ, either
way, by less than the bound.  Raw results go to
``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    chosen = args.workload or names
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    raw: list[dict] = []
    for s in range(args.sets):
        for r in range(args.runs):
            order = chosen if r % 2 == 0 else list(reversed(chosen))
            seed = 1 + 1000 * s + r
            for name in order:
                res = run_once(spec, name, seed, args.seconds)
                raw.append({"set": s, "workload": name, "seed": seed, **res})
                print(
                    f"set {s} run {r} {name:<20} seed {seed:<5} wall {res['wall_s']:6.1f} s "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                    flush=True,
                )

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)

    ok = True
    print(f"\n{'workload':<20} {'metric':<12} set {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in chosen:
        medians = []
        for s in range(args.sets):
            rows = [x for x in raw if x["workload"] == name and x["set"] == s]
            shares = {x["failed"] / x["attempted"] for x in rows}
            for metric, meta in bounds.items():
                values = [x["metrics"][metric]["value"] for x in rows]
                med, q1, q3, spread = summarize(values)
                bound = meta["bound"]
                verdict = "ok" if spread < bound else "TOO WIDE"
                if spread >= bound / 3:
                    verdict += " (over a third of the bound)"
                ok &= verdict.startswith("ok")
                print(f"{name:<20} {metric:<12} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.2%} {bound:>6.2f}  {verdict}")
                medians.append((s, metric, med))
            print(f"{name:<20} {'failed share':<12} {s:>3} {sorted(shares)}")
        if args.sets > 1:
            for metric, meta in bounds.items():
                a, b = (m for s, k, m in medians if k == metric and s in (0, 1))
                worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
                verdict = "ok" if abs(b - a) / a < meta["bound"] else "SETS DISAGREE"
                ok &= verdict == "ok"
                print(f"{name:<20} {metric:<12} set 1 vs set 0: {worse:+.2%} worse "
                      f"(bound {meta['bound']:.2f} either way) {verdict}")
    print(f"\nraw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
