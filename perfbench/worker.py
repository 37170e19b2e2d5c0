"""One benchmark run inside a fresh interpreter; started by run.py.

With --setup-only it imports trimoduli, makes the workload's inputs, and
reports when that finished.  Otherwise it then runs passes of the workload
until --seconds have gone by (at least one) and gates every pass.  With
--trace 1 every span also records CPU time and peak RSS, each pass is
followed by the workload's counts and probes, and the spans are written to
a trace file at the end.  The result is one JSON line on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import uuid
from pathlib import Path

import numpy as np

import trimoduli as tm
from tracing import Tracer, duration, layer_metrics, peak_rss_mb, quantile, self_time
from workloads import FULL, TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


def run_pass(wl, inp: dict, tracer: Tracer, workdir: Path) -> dict:
    """One pass inside a root span, then its gate; a pass that raises
    fails all of its operations."""
    ops = wl.ops(inp)
    workdir.mkdir(parents=True)
    try:
        with tracer.span(f"bench.{wl.name}") as root:
            out = wl.run(inp, tracer, workdir)
        fails = wl.check(inp, out)
        for _, msg in fails:
            print(f"gate failed: {wl.name}: {msg}", file=sys.stderr)
        res = {
            "ops": ops,
            "failed": len({op for op, _ in fails}),
            "wall": duration(root),
            "items": wl.items(inp, out),
        }
        if wl.op_per_pass:
            res["latencies"] = [duration(root)]
        else:
            res["latencies"] = [
                duration(s) for s in tracer.spans if s["parent"] == root["id"]
            ]
        if tracer.resources:
            res["layer"] = {
                **wl.counts(inp, out),
                **wl.probes(inp, out, tracer),
                "bench.self_s": self_time(tracer.spans, root["id"]),
            }
        return res
    except Exception:
        traceback.print_exc()
        return {"ops": ops, "failed": ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(tm.__file__).resolve().parents:
        print(f"trimoduli imported from {tm.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inp = wl.inputs(args.seed, TINY if args.tiny else FULL)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    run_id = uuid.uuid4().hex
    tracer = Tracer(run_id, resources=bool(args.trace))
    passes = []
    start = time.perf_counter()
    while True:
        workdir = OUT_DIR / f"{run_id}-{len(passes)}"
        passes.append(run_pass(wl, inp, tracer, workdir))
        if time.perf_counter() - start >= args.seconds:
            break

    ok = [p for p in passes if "wall" in p]
    metrics = {"peak_rss_mb": peak_rss_mb()}
    if ok:
        latencies = [t for p in ok for t in p["latencies"]]
        metrics.update(
            wall_s=statistics.median(p["wall"] for p in ok),
            items_per_s=statistics.median(p["items"] / p["wall"] for p in ok),
            op_p50_s=quantile(latencies, 0.5),
            op_p90_s=quantile(latencies, 0.9),
        )

    workers = tm.worker_count()
    result = {
        "setup_done": setup_done,
        "passes": len(passes),
        "metrics": metrics,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "workers": workers,
        },
    }
    if args.trace:
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}-{run_id}.jsonl"
        tracer.write_jsonl(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        if ok:
            result["per_layer"] = {
                **layer_metrics(tracer.spans, workers, len(ok)),
                **ok[-1]["layer"],
            }

    result["attempted"] = sum(p["ops"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
