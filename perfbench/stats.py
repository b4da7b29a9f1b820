"""Latency and span statistics of the benchmark."""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it, so that one slow query cannot set the figure on its own.
TAIL_SAMPLES_BEYOND = 10


def tail(latencies: Sequence[float], beyond: int = TAIL_SAMPLES_BEYOND):
    """Latency at the highest percentile that has `beyond` samples above it.

    With n sorted samples the nearest-rank percentile 100 * r / n leaves
    n - r samples beyond rank r, so the highest percentile that keeps
    `beyond` of them is r = n - beyond.  Returns (value, percentile,
    samples beyond).
    """
    n = len(latencies)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    rank = n - beyond
    return sorted(latencies)[rank - 1], 100.0 * rank / n, n - rank


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    `spans` holds (start, end, parent index or -1).  Child intervals are
    clipped to the parent's interval and merged where they overlap, so only
    the part of the parent's time that some child actually covers is
    subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """Calls, self time and summed span info per (span name, site).

    Spans are the tuples `tracer.Tracer` records.
    """
    selfs = self_times([(s[2], s[3], s[4]) for s in spans])
    calls = defaultdict(int)
    self_s = defaultdict(float)
    info = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        key = (span[0], span[1])
        calls[key] += 1
        self_s[key] += own
        if span[6]:
            for field, value in span[6].items():
                info[key][field] += value
    return calls, self_s, info
