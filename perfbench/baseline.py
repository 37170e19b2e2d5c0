"""Repeat benchmark runs and summarize each metric: median, quartiles,
sample count, spread and bound.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/BASELINE.json

Runs run.py once per seed and workload with --trace 0, then once per
workload with --trace 1 for the per-layer numbers.  The spread of a metric
is the distance between its quartiles (statistics.quantiles, n=4) as a
share of its median; a steady metric keeps it below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in proc.stdout.splitlines()
               if line.startswith("env "))
    return parse_result(proc.stdout), env


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, doc["env"] = bench(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(m["value"], 4)
                                              for k, m in result["metrics"].items()}),
                  flush=True)
        entry = {"end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values, m["bound"])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], **s, "values": values}
            steady = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']} {steady}", flush=True)
        if not args.no_trace:
            result, _ = bench(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        doc["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
