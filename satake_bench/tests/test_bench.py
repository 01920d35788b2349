"""Tests of the benchmark itself (not of the satake library).

    python3 -m pytest satake_bench/tests -q

Each workload runs a small cheap subset of its jobs in-process and every
valid job must pass its exactness check; the known-defect inputs of
fresh_data must fail, and only they.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import satake  # noqa: E402
from checks import JobChecker  # noqa: E402
from layer_trace import HOT_HELPERS, LAYERS, LayerTracer, public_functions  # noqa: E402
from run import tail_latency  # noqa: E402
from workloads import (  # noqa: E402
    build_inputs,
    fresh_file_text,
    make_jobs,
    run_job,
    write_datum_files,
)

KNOWN_DEFECTS = {"simple_only"}


def _cheap(job: dict) -> bool:
    """Jobs on rank <= 3 data with small bounds."""
    rank = satake.preset(*_split(job["datum"])).rank
    if job["kind"] == "table":
        return rank <= 3 and job["bound"] <= 8
    if job["kind"] == "li":
        return rank <= 3 and job["bound"] <= 6
    if job["kind"] == "cli":
        return rank <= 3 or "invalid" in job
    return rank <= 3


def _split(name: str):
    kind, _, param = name.partition(":")
    return kind, int(param) if param.isdigit() else param


def _tiny_jobs(workload: str, seed: int) -> list[dict]:
    jobs = make_jobs(workload, seed)
    if workload == "orthogonality":
        # a prefix per datum keeps every pairing against earlier P_mu valid
        return [j for j in jobs if _cheap(j)][:25]
    valid = [j for j in jobs if _cheap(j) and "invalid" not in j]
    return valid[:20] + [j for j in jobs if "invalid" in j]


def _run(workload: str, jobs: list[dict], tmp_path) -> list[tuple[dict, str, str]]:
    files = {}
    if workload == "fresh_data":
        files = write_datum_files(jobs, str(tmp_path / "datum-files"))
    inputs = build_inputs(satake, workload, jobs, files)
    return [(job, *run_job(satake, job, inputs)) for job in jobs]


@pytest.mark.parametrize("workload", ["tables", "orthogonality", "li_crosscheck", "fresh_data"])
def test_workload_runs_tiny_with_no_failed_valid_job(workload, tmp_path):
    results = _run(workload, _tiny_jobs(workload, 3), tmp_path)
    checker = JobChecker(satake)
    failures = {}
    for job, outcome, output in results:
        cause = checker.check(job, outcome, output)
        if cause is not None:
            failures[job["id"]] = (job.get("invalid"), cause)
    assert all(case in KNOWN_DEFECTS for case, _ in failures.values()), failures
    if workload == "fresh_data":
        assert {case for case, _ in failures.values()} == KNOWN_DEFECTS


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in ("tables", "orthogonality", "li_crosscheck", "fresh_data"):
        assert make_jobs(workload, 5) == make_jobs(workload, 5)
        assert make_jobs(workload, 5) != make_jobs(workload, 6)


def _first(jobs, **match):
    return next(j for j in jobs if all(j.get(k) == v for k, v in match.items()))


def _bump_first_coefficient(output: str) -> str:
    """Add 1 to the constant term of the first row's first coefficient."""
    first, _, rest = output.partition("\n")
    fields = first.split("\t")
    fields[1] = (satake.parse_qlaurent(fields[1]) + 1).render()
    return "\t".join(fields) + "\n" + rest


@pytest.mark.parametrize("workload,match", [
    ("tables", {"kind": "table", "datum": "group:gl3"}),
    ("tables", {"kind": "basic", "datum": "group:gl2"}),
    ("orthogonality", {"kind": "ortho", "datum": "whittaker:gl4"}),
    ("fresh_data", {"command": "macdonald", "datum": "group:gl3"}),
    ("fresh_data", {"command": "inverse-satake", "datum": "group:gl2"}),
])
def test_corrupted_coefficient_is_a_failed_job(workload, match, tmp_path):
    job = _first(make_jobs(workload, 3), **match)
    if workload == "orthogonality":
        job = dict(job, weight=(0, 0, 0, 0))  # no earlier P_mu to pair with
    ((_, outcome, output),) = _run(workload, [job], tmp_path)
    checker = JobChecker(satake)
    assert checker.check(job, outcome, output) is None
    assert JobChecker(satake).check(job, outcome, _bump_first_coefficient(output)) is not None


def test_fresh_data_root_data_are_pairwise_distinct():
    jobs = make_jobs("fresh_data", 11)
    seen = set()
    for job in jobs:
        text = fresh_file_text(job)
        reflections = frozenset(line for line in text.splitlines() if line.startswith("reflection"))
        assert reflections not in seen, job
        seen.add(reflections)
    assert len(seen) == len(jobs)


def test_fresh_data_lowest_weights_are_antidominant_and_use_equals_form():
    for job in make_jobs("fresh_data", 4):
        if "weight" in job and "invalid" not in job:
            datum = satake.preset(*_split(job["datum"]))
            assert satake.is_antidominant(job["weight"], datum.positive_roots())
    from workloads import cli_argv

    argvs = [cli_argv(j) for j in make_jobs("fresh_data", 4)]
    assert all(a.startswith("--lowest-weight=") for argv in argvs for a in argv if "lowest" in a)


def test_tracer_wraps_every_namespace_and_self_times_fit_in_wall(tmp_path):
    cli_jobs = [j for j in make_jobs("fresh_data", 2) if "invalid" not in j and _cheap(j)][:15]
    api_jobs = [j for j in make_jobs("tables", 2) if _cheap(j)][:10]
    files = write_datum_files(cli_jobs, str(tmp_path))
    fresh = build_inputs(satake, "fresh_data", cli_jobs, files)
    tables = build_inputs(satake, "tables", api_jobs, {})
    jobs = cli_jobs + api_jobs
    tracer = LayerTracer(satake)
    originals = (satake.spherical.expand_product, satake.spherical.find_witness,
                 satake.QLaurent.__mul__, satake.spherical.PRESETS["group"],
                 satake.HeckeValueTable.to_tsv)
    tracer.install()
    try:
        assert satake.spherical.expand_product is not originals[0]
        assert satake.cone_series.expand_product is satake.spherical.expand_product
        assert satake.spherical.find_witness is satake.linalg.find_witness
        assert satake.spherical.find_witness is not originals[1]
        assert satake.QLaurent.__mul__ is not originals[2]
        assert satake.spherical.PRESETS["group"] is not originals[3]
        assert satake.HeckeValueTable.to_tsv is not originals[4]
        start = time.perf_counter()
        for job in jobs:
            with tracer.job(job["id"]):
                run_job(satake, job, fresh if job["kind"] == "cli" else tables)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert satake.spherical.expand_product is originals[0]
    assert satake.QLaurent.__mul__ is originals[2]
    assert satake.HeckeValueTable.to_tsv is originals[4]
    assert tracer.stats["spherical.HeckeValueTable.to_tsv"][0] > 0
    metrics = tracer.layer_metrics(wall)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["bench.self_s"]
    assert 0 < total <= wall
    assert metrics["qlaurent.ops"] > 0
    assert metrics["datumfile.parse_datum.calls"] == 15
    assert metrics["cone_series.series_mul.calls"] > 0
    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, job_id, name, start, end in tracer.spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][2] == job_id  # a span shares its job with its parent


def test_modules_without_all_expose_every_public_function_but_the_hot_helpers(monkeypatch):
    def demazure(lam):
        return lam

    demazure.__module__ = satake.root_weyl.__name__
    monkeypatch.setattr(satake.root_weyl, "demazure", demazure, raising=False)
    names = public_functions(satake)
    assert names["root_weyl.demazure"] is demazure
    assert "root_weyl.enumerate_weyl" in names and "linalg.find_witness" in names
    assert not any(f"root_weyl.{helper}" in names for helper in HOT_HELPERS)


def test_tail_latency_leaves_ten_jobs_beyond():
    value, pct = tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert tail_latency([1.0, 2.0]) == (2.0, 100.0)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "satake_bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "satake_bench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
