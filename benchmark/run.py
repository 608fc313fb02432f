"""Benchmark entry point: one workload per process, result as the last line.

    python3 benchmark/run.py --workload cv-ranking --seed 1 --seconds 10 --trace 0

Run from the repository root. With ``--trace 0`` the result carries the
end-to-end metrics of untraced rounds; with ``--trace 1`` it carries the
per-layer metrics of traced rounds and the overhead against untraced rounds,
and the spans are written to ``.benchwork/<workload>.trace.json``.
``--smoke`` shrinks every input so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least three times and until three seconds have gone.
SETUP_REPEATS, SETUP_SECONDS = 3, 3.0
# A traced run makes at least two pairs of rounds, one in each order.
TRACE_PAIRS = 2


def _median_metrics(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def measure(wl, seconds: float) -> dict:
    """Untraced: repeated set-up, then whole rounds until ``seconds`` pass."""
    from workloads import Session

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup(Session())
        setups.append(time.perf_counter() - t0)

    session, walls = Session(), []
    start = time.perf_counter()
    while len(walls) < wl.min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        wl.round(session)
        walls.append(time.perf_counter() - t0)

    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return {"ops": session.ops, "metrics": metrics, "report": wl.report(session.ops),
            "rounds": len(walls)}


def trace(wl, seconds: float, out: Path) -> dict:
    """A traced set-up, then pairs of rounds, one untraced and one traced,
    the order alternating from pair to pair, until ``seconds`` pass."""
    from tracing import SETUP_LAYERS, Tracer, per_layer_units
    from workloads import Session

    session, setup = Session(), Tracer()
    with setup.installed(session):
        wl.setup(session)
    n0 = len(session.ops)
    tracers, pairs = [], []
    start = time.perf_counter()
    while len(pairs) < TRACE_PAIRS or time.perf_counter() - start < seconds:
        tracer, walls = Tracer(), {}
        for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
            with tracer.installed(session) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                wl.round(session)
                walls[traced] = time.perf_counter() - t0
        tracers.append(tracer)
        pairs.append(walls)
    values = _median_metrics([t.layer_metrics() for t in tracers])
    setup_values = setup.layer_metrics()
    values.update({k: setup_values[k] for k in SETUP_LAYERS})
    values["trace.overhead_s"] = statistics.median(p[True] - p[False] for p in pairs)
    values["trace.overhead_pct"] = statistics.median(
        100.0 * (p[True] - p[False]) / p[False] for p in pairs)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "setup": setup.dump(), "rounds": [t.dump() for t in tracers],
        "untraced_vs_traced_s": [[p[False], p[True]] for p in pairs],
        "layer_metrics": values}, separators=(",", ":")) + "\n", encoding="utf-8")
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {"ops": session.ops[n0:], "metrics": metrics, "report": {},
            "rounds": 2 * len(pairs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oerrec" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no oerrec sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".benchwork" / args.workload
    wl = WORKLOADS[args.workload](work, args.seed, args.smoke)
    if args.trace:
        result = trace(wl, args.seconds, work.parent / f"{args.workload}.trace.json")
    else:
        result = measure(wl, args.seconds)

    try:
        fails = wl.check()
    except (OSError, KeyError, ValueError) as exc:  # an output missing or malformed
        fails = [f"outputs could not be checked: {exc!r}"]
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in sorted(wl.faults):
        print(f"operation failed: {msg}", file=sys.stderr)
    ops = result["ops"]
    failed = sum(1 for op in ops if not op.ok)
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} rounds, "
          f"{len(ops)} operations attempted, {failed} failed, "
          f"checks {'passed' if not fails else 'FAILED'}")
    for name, (value, unit) in result["report"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": len(ops), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
