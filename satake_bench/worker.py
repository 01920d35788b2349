"""One pass of a workload in a fresh single-threaded process.

    python3 -S satake_bench/worker.py --workload NAME --jobs JOB_FILE --spawned T
        [--keep-outputs] [--trace SPANS_FILE] [--setup-only]

JOB_FILE is a pickle the parent wrote: the job list drawn from the seed
and, for fresh_data, the path of each job's datum file.  T is the
CLOCK_MONOTONIC reading of the parent just before it started this
process, so set-up time covers interpreter start, `import satake`,
reading the job file and building the inputs; drawing the jobs is the
parent's work and is not part of it.  The jobs then run one after
another in a closed loop (the next starts when the previous returns).  The last line
of standard output is a JSON record of the pass: its timings and the
digest of every job output (the outputs themselves with --keep-outputs).
"""

from __future__ import annotations

import time  # noqa: I001 - first, so set-up time starts as early as possible

import argparse
import hashlib
import json
import os
import pickle
import resource
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import satake  # noqa: E402
from workloads import build_inputs, run_job  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_pass(workload: str, job_file: str, spawned: float, keep_outputs: bool,
             tracer=None, setup_only: bool = False) -> dict:
    with open(job_file, "rb") as fh:
        jobs, files = pickle.load(fh)
    inputs = build_inputs(satake, workload, jobs, files)
    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}
    if tracer is not None:
        tracer.install()
    records = []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            if tracer is not None:
                with tracer.job(job["id"]):
                    outcome, output = run_job(satake, job, inputs)
            else:
                outcome, output = run_job(satake, job, inputs)
        except Exception as exc:  # noqa: BLE001 - a job failure is a measured outcome
            outcome, output = f"raised:{type(exc).__name__}", ""
        ms = (clock() - t0) * 1000.0
        records.append({"id": job["id"], "ms": ms, "outcome": outcome, "digest": digest(output),
                        "output": output if keep_outputs else None})
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "jobs": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--jobs", required=True, help="job file written by run.py")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--keep-outputs", action="store_true")
    parser.add_argument("--trace", help="trace the layers; write spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the first job could begin; report only setup_s")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from layer_trace import LayerTracer

        tracer = LayerTracer(satake)
    record = run_pass(args.workload, args.jobs, args.spawned, args.keep_outputs,
                      tracer, args.setup_only)
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(record["wall_s"])
        tracer.write_spans(args.trace)
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
