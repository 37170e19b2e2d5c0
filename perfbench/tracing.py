"""In-memory spans around the benchmark's calls into trimoduli.

A span is one call into a public function of the package, named
``<module>.<function>`` (``enumeration.enumerate_weighted``), or the
benchmark's own pass around them (``bench.<workload>``).  Spans of one run
share a run id and are written as JSON lines when the run ends, so a later
in-package trace can nest ``census.scan`` under
``enumeration.enumerate_weighted`` and the same self-time arithmetic
applies.

Every pass records span start and end times, which is what the
end-to-end latencies are read from.  With ``resources=True`` (the traced
run) each span also records the CPU seconds of this process and its
waited-for children and the peak RSS at its end, both from getrusage.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

SPAN_KEYS = ("run", "id", "parent", "name", "start", "end")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Tracer:
    """Collects spans for one run; nesting follows the ``with`` blocks."""

    def __init__(self, run_id: str, resources: bool = False):
        self.run_id = run_id
        self.resources = resources
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        cpu0 = _cpu_s() if self.resources else 0.0
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if self.resources:
                rec["cpu_s"] = _cpu_s() - cpu0
                rec["peak_rss_mb"] = peak_rss_mb()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    """Parse a trace written by Tracer.write_jsonl, checking every line."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            rec = json.loads(line)
            missing = [k for k in SPAN_KEYS if k not in rec]
            if missing:
                raise ValueError(f"{path}:{lineno}: span lacks {missing}")
            if rec["end"] < rec["start"]:
                raise ValueError(f"{path}:{lineno}: span ends before it starts")
            spans.append(rec)
    return spans


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_time(spans: list[dict], span_id: int) -> float:
    """Duration of a span minus the part of it that its children cover."""
    rec = spans[span_id]
    pieces = sorted(
        (max(c["start"], rec["start"]), min(c["end"], rec["end"]))
        for c in spans
        if c["parent"] == span_id
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return duration(rec) - covered


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile, q in (0, 1); one value is its own."""
    if not values:
        raise ValueError("quantile of no values")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans: list[dict], workers: int, passes: int) -> dict[str, float]:
    """Per-name figures over the resource-traced spans of a run: wall_s
    (summed duration per pass), cpu_util (CPU over wall times workers),
    peak_rss_mb (largest at span end), p50_s and p90_s (over the calls)."""
    by_name: dict[str, list[dict]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
    out = {}
    for name, recs in by_name.items():
        durations = [duration(r) for r in recs]
        wall = sum(durations)
        out[f"{name}.wall_s"] = wall / passes
        out[f"{name}.p50_s"] = quantile(durations, 0.5)
        out[f"{name}.p90_s"] = quantile(durations, 0.9)
        if all("cpu_s" in r for r in recs):
            cpu = sum(r["cpu_s"] for r in recs)
            out[f"{name}.cpu_util"] = cpu / (wall * workers) if wall > 0 else 0.0
            out[f"{name}.peak_rss_mb"] = max(r["peak_rss_mb"] for r in recs)
    return out
