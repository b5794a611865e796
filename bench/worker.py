"""One benchmark job in a fresh interpreter.

Usage: python3 worker.py JOB.json

A job runs its `sfgen` argument lists in order through
`sceneflowgen.cli.main`, under one root span, and writes the first-call
time, the operation's start and end, its CPU time and (when tracing) its
spans and counters to the job's result file, once, at the end. A probe
job writes the first-call time and exits there, so it measures set-up
only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def run_operation(job):
    from spans import Tracer, install

    result = {}

    def write_result():
        Path(job["result"]).write_text(json.dumps(result))

    def end_probe(first_call):
        result["first_call"] = first_call
        write_result()
        os._exit(0)

    tracer = Tracer(record=job["trace"],
                    on_first_call=end_probe if job["probe"] else None)
    from sceneflowgen import cli

    install(tracer)
    cpu0, start = time.process_time(), time.monotonic()
    codes = tracer.root(lambda: [cli.main(argv) for argv in job["argvs"]])
    end, cpu1 = time.monotonic(), time.process_time()
    result.update(first_call=tracer.first_call, start=start, end=end,
                  cpu_s=cpu1 - cpu0, codes=codes, spans=tracer.spans,
                  counters=tracer.counters)
    write_result()
    return 0 if all(code == 0 for code in codes) else 1


def main(job_path):
    return run_operation(json.loads(Path(job_path).read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
