#!/usr/bin/env python3
"""Record the reference answer of every spec any workload can draw.

    python3 perfbench/record.py

Runs each spec once, applies the same independent checks as a benchmark
run, and writes perfbench/reference.json (spec -> answer digest, with a
short summary and the step count for reading).  Run it only on a commit
whose answers are known to be right: a benchmark run fails every query
whose answer differs from this file.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import program

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> int:
    program.load()
    from powerpoly.groebner import StepCounter
    from queries import Query, digest
    from workloads import WORKLOADS, pool

    reference = {}
    program.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=program.OUT)
    bad = 0
    try:
        for name in sorted(WORKLOADS):
            for spec in pool(WORKLOADS[name]):
                query = Query(spec, workdir)
                counter = StepCounter()
                start = time.perf_counter()
                result = query.run(counter)
                elapsed = time.perf_counter() - start
                answer = query.answer(result)
                failure = query.check(result)
                if failure:
                    bad += 1
                    print(f"CHECK FAILED {query.key}: {failure}")
                    continue
                summary = json.dumps(answer, sort_keys=True)[:120]
                reference[query.key] = {
                    "answer": digest(answer),
                    "steps": counter.steps,
                    "summary": summary,
                }
                print(f"{name:9s} {elapsed * 1000:9.1f} ms {counter.steps:9d} steps  {query.key[:90]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
