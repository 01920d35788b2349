"""The satake benchmark: one workload, timed end to end or traced per layer.

    python3 satake_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree that holds `src/satake` next to
this directory.  Workloads: tables, orthogonality, li_crosscheck,
fresh_data (see satake_bench/README.md).

With --trace 0 the workload's fixed job set runs in fresh single-threaded
worker processes, one pass after another, until S seconds have passed
(at least three passes); each metric is a median over passes.  With
--trace 1 one untraced and one traced pass run, and the per-layer
metrics come from the traced one.

Every job output of the first pass is checked for exactness after the
timed region; later passes must reproduce it byte for byte.  The report
goes to standard output; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 with a result,
2 for bad arguments or a tree without the satake sources, 1 when a
worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, fresh_file_text, make_jobs, write_datum_files

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Files written here are kept between runs: datum files are named by their
# content, and removing a freshly written file blocked for ~60 ms per file
# on the reference machine's disk.
WORK_DIR = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 3
SETUP_SAMPLES = 21
SETUP_PER_PASS = 4
MAX_PASSES = 12
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {"wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def write_job_file(jobs: list[dict], files: dict[int, str]) -> str:
    """Pickle the job list and the datum file paths for the workers.

    The file is named by a digest of its bytes and kept, like the datum
    files, so a later run with the same seed reuses it.
    """
    data = pickle.dumps((jobs, files), protocol=pickle.HIGHEST_PROTOCOL)
    path = os.path.join(WORK_DIR, "jobs", hashlib.sha256(data).hexdigest()[:20] + ".pickle")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        partial = f"{path}.{os.getpid()}.part"
        with open(partial, "wb") as fh:
            fh.write(data)
        os.replace(partial, path)
    return path


def run_worker(workload, seed, job_file, index, deadline, keep_outputs=False, trace=False,
               setup_only=False) -> dict:
    """One pass in a fresh process; returns the record it prints last.

    The worker starts with -S: it needs only the standard library and the
    satake sources, and the site hooks of the installed Python (.pth
    files, which import further packages) are no part of the program's
    set-up.
    """
    cmd = [sys.executable, "-S", os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--jobs", job_file]
    if keep_outputs:
        cmd.append("--keep-outputs")
    if trace:
        cmd += ["--trace", os.path.join(WORK_DIR, f"spans-{workload}-{seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(5.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"pass {index} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"pass {index} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.rstrip("\n").rsplit("\n", 1)[-1])


def run_passes(workload, seed, job_file, seconds,
               trace) -> tuple[list[dict], dict | None, list[float]]:
    """Untraced passes, one traced pass when tracing, and set-up samples.

    Set-up takes some 40 ms, so a short stall of the host moves one
    sample a lot.  It is sampled SETUP_SAMPLES times, by processes that
    stop when the first job could begin: SETUP_PER_PASS of them after each
    pass, so that the samples spread over the whole run, and the rest at
    the end.  The passes' own set-up times are not used: the first pass
    in a fresh tree also compiles the sources.
    """
    started = time.monotonic()
    deadline = started + DEADLINE_S
    passes = [run_worker(workload, seed, job_file, 0, deadline, keep_outputs=True)]
    if trace:
        traced = run_worker(workload, seed, job_file, 1, deadline, trace=True)
        return passes, traced, [passes[0]["setup_s"]]
    setups: list[float] = []

    def sample_setup(count):
        for _ in range(min(count, SETUP_SAMPLES - len(setups))):
            setups.append(run_worker(workload, seed, job_file, -1, deadline,
                                     setup_only=True)["setup_s"])

    sample_setup(SETUP_PER_PASS)
    while len(passes) < MAX_PASSES:
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and (elapsed >= seconds
                                          or elapsed * (1 + 1 / len(passes)) > DEADLINE_S - 30):
            break
        passes.append(run_worker(workload, seed, job_file, len(passes), deadline))
        sample_setup(SETUP_PER_PASS)
    sample_setup(SETUP_SAMPLES)
    return passes, None, setups


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def verify(satake, workload, jobs, runs: list[dict]) -> dict:
    """Check every job of the first pass; every other pass must repeat it."""
    from checks import JobChecker

    checker = JobChecker(satake)
    causes: dict[str, int] = {}
    failed = valid_failed = 0
    outputs = []
    for job in jobs:
        rec = runs[0]["jobs"][job["id"]]
        try:
            cause = checker.check(job, rec["outcome"], rec["output"])
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails its check
            cause = f"output check raised {type(exc).__name__}: {exc}"
        for other in runs[1:]:
            again = other["jobs"][job["id"]]
            if cause is None and (again["outcome"], again["digest"]) != (rec["outcome"], rec["digest"]):
                cause = "output differs between passes"
        outputs.append(f"{job['id']}\t{rec['outcome']}\t{rec['digest']}")
        if cause is not None:
            failed += len(runs)
            valid_failed += "invalid" not in job
            label = f"{job.get('invalid', job['kind'])}: {cause}"
            causes[label] = causes.get(label, 0) + len(runs)
    text = json.dumps(jobs, sort_keys=True)
    if workload == "fresh_data":
        text += "".join(fresh_file_text(job) for job in jobs)
    return {
        "attempted": len(jobs) * len(runs),
        "failed": failed,
        "valid_failed": valid_failed,
        "causes": causes,
        "input_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "output_digest": hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16],
    }


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    # each job's latency is its median over passes, which drops one-off stalls
    latencies = [statistics.median(p["jobs"][i]["ms"] for p in passes)
                 for i in range(len(passes[0]["jobs"]))]
    tail, pct = tail_latency(latencies)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    note = f"job_tail_ms is p{pct:.1f} of {len(latencies)} jobs"
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, note


def layer_report(passes: list[dict], traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    print(f"traced wall_s={traced['wall_s']:.4f} s, untraced wall_s={passes[0]['wall_s']:.4f} s")
    shares = {k: v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s")}
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        share = 100 * value / traced["wall_s"]
        print(f"  {name:26s} {value:9.4f} s  {share:6.2f}% of traced wall_s")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="satake benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "satake", "__init__.py")):
        print(f"error: no satake sources under {ROOT}/src; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import satake

    jobs = make_jobs(args.workload, args.seed)
    files = {}
    if args.workload == "fresh_data":
        files = write_datum_files(jobs, os.path.join(WORK_DIR, "datum-files"))
    job_file = write_job_file(jobs, files)
    try:
        passes, traced, setups = run_passes(args.workload, args.seed, job_file, args.seconds,
                                            args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = verify(satake, args.workload, jobs, passes + ([traced] if traced else []))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
          f" jobs={len(jobs)} (closed loop, one client, one thread)")
    print(f"environment: python={platform.python_version()} nproc={os.cpu_count()}"
          f" machine={platform.machine()}")
    print(f"input_digest={result['input_digest']} output_digest={result['output_digest']}")
    e2e, note = end_to_end(passes, setups)
    for name, m in e2e.items():
        print(f"{name}={m['value']:.6g} {m['unit']}")
    print(note)
    print(f"failed_frac={result['failed'] / result['attempted']:.4f}"
          f" ({result['failed']} of {result['attempted']} job runs)")
    for cause, count in sorted(result["causes"].items()):
        print(f"  failed x{count}: {cause}")
    metrics = layer_report(passes, traced) if args.trace else e2e
    print(json.dumps({"correct": result["valid_failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
