"""Set-up probe: time a fresh interpreter's import and warm-up for one workload.

    python3 perfbench/probe.py <workload>

Prints {"setup_s": ...}: seconds from the start of this script through
`import powerpoly` and one warm-up query of each query kind the workload
uses (inputs built and answered, not verified).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import program  # noqa: E402


def main() -> int:
    program.load()
    from powerpoly.groebner import StepCounter
    from queries import Query
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    program.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=program.OUT)
    try:
        for spec in workload.warmups:
            Query(spec, workdir).run(StepCounter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
