"""Steadiness report: repeat each workload over several seeds and summarize
every end-to-end metric by its median and quartiles.

    python3 benchmark/steadiness.py --runs 10 --seconds 20
    python3 benchmark/steadiness.py --workloads cv-ranking --runs 5 --first-seed 11

Each run is a separate ``run.py`` process with its own seed, one at a time.
The spread of a metric is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``. A metric's suggested bound is three
times its widest spread over the workloads, at least 0.05 and at most 0.25;
``setup_s`` always gets 0.25, the largest bound. The report goes to
``.benchwork/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_BOUND, MAX_BOUND = 0.05, 0.25


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    report: dict = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                  flush=True)
        report[workload] = {
            "incorrect_seeds": [seed for seed, r in enumerate(results, args.first_seed)
                                if not r["correct"]],
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": {name: summarize([r["metrics"][name]["value"] for r in results])
                        for name in results[0]["metrics"]},
        }

    print(f"\n{'workload':<14}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for workload, body in report.items():
        for name, s in body["metrics"].items():
            print(f"{workload:<14}{name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>9.3f}")
        print(f"{workload:<14}incorrect seeds={body['incorrect_seeds']} "
              f"failed share={body['failed_share']}")

    bounds = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        spreads = [b["metrics"][name]["spread"] for b in report.values()]
        widest = max(spreads)
        bounds[name] = MAX_BOUND if name == "setup_s" else \
            min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * widest) / 100))
        print(f"bound {name}: widest spread {widest:.3f} -> {bounds[name]}")
    out = ROOT / ".benchwork" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "first_seed": args.first_seed,
                               "seconds": args.seconds, "workloads": report,
                               "suggested_bounds": bounds}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
