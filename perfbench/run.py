#!/usr/bin/env python3
"""Query benchmark for powerpoly: one workload, one seed, one run.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 12 --trace 0

Closed loop, one client, one process: each query is sent when the previous
one has returned and been verified.  Every answer is compared with the
reference answer recorded for its spec (perfbench/reference.json) and
checked independently, outside the timed interval.

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
interpreter starts, each importing powerpoly and running one warm-up query
per query kind), then a fixed number of whole cycles of the seeded mix,
about --seconds of query time on the reference host.  Times are reported
in reference-host seconds (see calibrate.py): a calibration loop timed
right before and after each query rescales it, so that the neighbours'
load on a shared host cancels out.  The measured seconds are printed and
recorded beside them.  Throughput is queries per second of query time
(verification between queries is not counted).

--trace 1 replays a fixed number of cycles twice, untraced and then with
spans around each layer's public functions, and reports per-layer figures;
its counts repeat exactly for a given seed and --seconds.

The last line of standard output is the JSON result; a fuller record goes
to .perfbench/results/.  The exit code is non-zero when any query failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import program

SETUP_STARTS = 7
#: Per-query step budget for the untimed run; a query that needs more fails.
STEP_BUDGET = 10_000_000
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


class Verifier:
    """Compares answers with the reference and runs each distinct answer's checks once."""

    def __init__(self, reference: dict, digest):
        self.reference = reference
        self.digest = digest
        self.checked: dict[tuple[str, str], str | None] = {}
        self.failures: list[str] = []

    def verify(self, query, result) -> bool:
        answer = query.answer(result)
        got = self.digest(answer)
        expected = self.reference.get(query.key)
        if expected is None:
            return self._fail(query, "no reference answer recorded for this spec")
        if got != expected["answer"]:
            return self._fail(query, f"answer {json.dumps(answer)[:200]} differs from the reference")
        key = (query.kind, got)
        if key not in self.checked:
            self.checked[key] = query.check(result)
        if self.checked[key]:
            return self._fail(query, self.checked[key])
        return True

    def _fail(self, query, message) -> bool:
        self.failures.append(f"{query.key}: {message}")
        return False


class Runner:
    def __init__(self, workload, reference, workdir):
        from queries import Query, digest
        from workloads import pool, spec_key

        self.workload = workload
        self.spec_key = spec_key
        self.verifier = Verifier(reference, digest)
        self.queries = {spec_key(s): Query(s, workdir) for s in pool(workload)}
        self.attempted = 0
        self.failed = 0
        #: A calibrate.HostClock in the untraced run, else None.
        self.clock = None

    def warm_up(self):
        from powerpoly.groebner import StepCounter

        for spec in self.workload.warmups:
            self.queries[self.spec_key(spec)].run(StepCounter())

    def one(self, spec, counter, tracer=None, qid=None):
        """Run and verify one query.

        Returns (latency, reference-host latency or None without a clock,
        query, result or None).
        """
        query = self.queries[self.spec_key(spec)]
        if tracer is not None:
            tracer.begin(qid, query.kind)
        start = time.perf_counter()
        try:
            result, error = query.run(counter), None
        except Exception:  # a failing query is recorded, and the loop goes on
            result, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        scaled = None if self.clock is None else self.clock.scale(latency)
        if tracer is not None:
            tracer.end()
            tracer.active = False
        self.attempted += 1
        if error is not None:
            self.verifier.failures.append(f"{query.key}: raised\n{error}")
        ok = error is None and self.verifier.verify(query, result)
        if tracer is not None:
            tracer.active = True
        self.failed += not ok
        return latency, scaled, query, result


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters, one after another.

    Returns the measured seconds and the reference-host seconds.
    """
    from calibrate import HostClock

    clock = HostClock()
    samples, scaled = [], []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(
            [sys.executable, PROBE, workload],
            capture_output=True, text=True, timeout=150, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(clock.scale(samples[-1]))
    return samples, scaled


def run_untraced(runner, seed, seconds):
    """A fixed number of whole cycles of the seeded mix.

    The cycle count is `seconds` over the workload's reference-host cycle
    time, so every run of a workload times the same number of queries of
    the same composition, whatever the host's speed.  Returns the measured
    latencies, the reference-host latencies and the number of cycles.
    """
    from itertools import islice

    from calibrate import HostClock
    from powerpoly.groebner import StepCounter
    from stats import TAIL_SAMPLES_BEYOND
    from workloads import cycles

    workload = runner.workload
    ncycles = max(
        1 + TAIL_SAMPLES_BEYOND // len(workload.slots), round(seconds / workload.nominal_cycle_s)
    )
    runner.clock = HostClock()
    measured, scaled = [], []
    for cycle in islice(cycles(workload, seed), ncycles):
        for spec in cycle:
            latency, reference_latency, _, _ = runner.one(spec, StepCounter(STEP_BUDGET))
            measured.append(latency)
            scaled.append(reference_latency)
    runner.clock = None
    return measured, scaled, ncycles


def run_traced(runner, seed, seconds):
    from itertools import islice

    from powerpoly.groebner import StepCounter
    from tracer import Tracer
    from workloads import cycles

    ncycles = max(1, round(seconds / 2 / runner.workload.nominal_cycle_s))
    plan = [
        (f"{c}.{i}", spec)
        for c, cycle in enumerate(islice(cycles(runner.workload, seed), ncycles))
        for i, spec in enumerate(cycle)
    ]
    untraced = sum(runner.one(spec, StepCounter(STEP_BUDGET))[0] for _, spec in plan)

    tracer = Tracer()
    records = []
    traced = 0.0
    tracer.install()
    try:
        for qid, spec in plan:
            counter = StepCounter()
            latency, _, query, result = runner.one(spec, counter, tracer, qid)
            traced += latency
            record = {"qid": qid, "kind": query.kind, "steps": counter.steps}
            if query.kind == "umpu" and result is not None:
                record["status"] = result["verdict"].status
            if query.kind == "power_grid":
                record["cells"] = len(query.inputs["points"])
            records.append(record)
    finally:
        tracer.uninstall()
    return tracer, records, traced / untraced - 1, len(plan), ncycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        powerpoly = program.load()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from metrics import END_TO_END, PER_LAYER, per_layer
    from stats import tail
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(PROBE), "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    program.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=program.OUT)
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(args.workload)
        runner = Runner(WORKLOADS[args.workload], reference, workdir)
        runner.warm_up()
        if args.trace:
            tracer, records, overhead, nqueries, ncycles = run_traced(runner, args.seed, args.seconds)
            values = per_layer(tracer.spans, records, overhead)
            units = {name: unit for name, unit, _ in PER_LAYER}
            extra = {"traced_queries": nqueries, "cycles": ncycles, "spans": len(tracer.spans)}
        else:
            measured, latencies, ncycles = run_untraced(runner, args.seed, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tail_value, percentile, beyond = tail(latencies)
            values = {
                "setup_s": statistics.median(setup),
                "throughput_qps": len(latencies) / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_value,
                "peak_rss_mb": rss_mb,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
            extra = {
                "cycles": ncycles,
                "setup_samples_s": setup,
                "tail_percentile": percentile,
                "tail_samples_beyond": beyond,
                "latency_samples": len(latencies),
                # The same statistics of the measured (not rescaled) seconds.
                "measured": {
                    "setup_s": statistics.median(setup_raw),
                    "throughput_qps": len(measured) / sum(measured),
                    "latency_p50_s": statistics.median(measured),
                    "latency_tail_s": tail(measured)[0],
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    env = {
        "kernel_backend": powerpoly.kernel_backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": program.commit(),
        "powerpoly_threads": os.environ["POWERPOLY_THREADS"],
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.verifier.failures,
        "metrics": metrics,
        **extra,
    }
    results = program.OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        spans = program.OUT / "spans"
        spans.mkdir(exist_ok=True)
        tracer.write(spans / f"{stem}.jsonl")

    print(
        f"workload {args.workload}, seed {args.seed}: {runner.attempted} queries "
        f"in {extra['cycles']} cycles, {runner.failed} failed; "
        + ", ".join(f"{k} {v}" for k, v in env.items())
    )
    for message in runner.verifier.failures[:10]:
        print(f"FAILED {message}")
    for name, metric in metrics.items():
        note = ""
        if name == "setup_s":
            note = f" (median of {len(setup)} fresh starts)"
        elif name == "latency_tail_s":
            note = (
                f" (p{extra['tail_percentile']:.2f}, {extra['tail_samples_beyond']} "
                f"samples beyond, {extra['latency_samples']} samples)"
            )
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    if not args.trace:
        print(f"failed_frac {record['failed_frac']:.6g} frac ({runner.failed} of {runner.attempted})")
        print(
            "measured, not rescaled to the reference host: "
            + ", ".join(f"{k} {v:.6g}" for k, v in extra["measured"].items())
        )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
