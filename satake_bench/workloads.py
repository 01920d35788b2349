"""The four benchmark workloads: job sets drawn from a seed, and job runners.

A job set is a list of plain dicts, drawn once per run by the parent
process and handed to every worker in a job file.  Each workload is a
fixed set of strata; the seed draws the inputs inside each stratum
(bounds without replacement from a fixed pool, one of two inputs of
near-equal cost, a central twist, a change of lattice basis) and the
order of the jobs.  The cost of a job set therefore barely moves with
the seed while the inputs do.

`write_datum_files` puts the fresh_data datum files on disk (in the
parent); `build_inputs` turns a job list into the objects a run needs
(datum objects, datum file paths); `run_job` runs one job and returns
its rendered output.  The worker calls the last two; only `run_job` is
timed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import random
from fractions import Fraction

WORKLOADS = ("tables", "orthogonality", "li_crosscheck", "fresh_data")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _tail_weight(rank: int, tail: int) -> tuple[int, ...]:
    return (0,) * (rank - 1) + (tail,)


# -- tables -----------------------------------------------------------

# (rank, presets, bound pools per job kind).  The rank 2 and 3 slots pick,
# per job, between the group preset and the symplectic period of the same
# base rank, whose tables cost the same (their series differ only by
# q -> q^2 in the colored factors).
_TABLE_SLOTS = (
    (2, ("group:gl2", "sp2n_gl2n:2"), {"std": range(8, 15), "sym2": range(8, 15), "basic": range(8, 17)}),
    (3, ("group:gl3", "sp2n_gl2n:3"), {"std": range(6, 11), "sym2": range(6, 12), "basic": range(7, 13)}),
    (4, ("group:gl4",), {"std": range(4, 7), "sym2": range(5, 10), "basic": range(6, 11)}),
    (5, ("group:gl5",), {"std": range(3, 6), "sym2": range(4, 8), "basic": range(5, 11)}),
)
_TABLE_ROUNDS = 4


def _tables_jobs(seed: int) -> list[dict]:
    rng = _rng("tables", seed)
    jobs = []
    for rank, twins, pools in _TABLE_SLOTS:
        for kind, pool in pools.items():
            bounds = list(pool) * _TABLE_ROUNDS
            rng.shuffle(bounds)
            for bound in bounds:
                job = {"kind": "basic" if kind == "basic" else "table",
                       "datum": rng.choice(twins), "bound": bound}
                if kind != "basic":
                    job["weight"] = _tail_weight(rank, 1 if kind == "std" else 2)
                jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# -- orthogonality ----------------------------------------------------

# (preset, degree of the weight sweep, degree of the basic-pairing sweep)
_ORTHO_DATA = (
    ("group:gl3", 3, 2),
    ("group:gl4", 2, 1),
    ("group:b2", 3, 2),
    ("whittaker:gl4", 2, 1),
    ("sp2n_gl2n:2", 4, 3),
)


def _orthogonality_jobs(seed: int) -> list[dict]:
    """One job per weight, the weights of each datum in sorted order.

    The seed interleaves the data and, on type A data, shifts every
    weight by the same central twist, which moves each P_lam by a central
    monomial and leaves the cost unchanged.  The order within a datum is
    fixed: the pairing kernel cache grows with the depths asked of it, so
    another order would change the memory and time of the run.
    """
    import satake

    rng = _rng("orthogonality", seed)
    streams = []
    for name, degree, bp_degree in _ORTHO_DATA:
        datum = stock(name)
        weights = satake.antidominant_weights(datum.dual_datum(), degree)
        if "gl" in name:  # type A: (1, ..., 1) spans the center
            twist = rng.randint(-2, 2)
            weights = [tuple(x + twist for x in w) for w in weights]
        stream = [{"kind": "ortho", "datum": name, "weight": w} for w in weights]
        stream.append({"kind": "basic_pairing", "datum": name, "bound": bp_degree})
        streams.append(stream)
    # interleave the streams in a seed order, each keeping its own order
    order = [i for i, stream in enumerate(streams) for _ in stream]
    rng.shuffle(order)
    cursors = [iter(stream) for stream in streams]
    jobs = [next(cursors[i]) for i in order]
    return jobs


# -- li_crosscheck ----------------------------------------------------

# Each stratum lists two (group, lowest weight, bound) inputs whose checks
# took within about 15% of each other on the reference machine.
_LI_STRATA = (
    (("gl2", (0, 1), 12), ("gl2", (-1, 0), 12)),
    (("gl2", (1, 1), 12), ("gl2", (0, 1), 10)),
    (("gl3", (0, 0, 1), 5), ("gl3", (0, 0, 2), 8)),
    (("gl3", (1, 1, 2), 8), ("gl4", (0, 0, 0, 2), 5)),
    (("gl4", (-1, -1, -1, 0), 4), ("gl3", (0, 1, 1), 5)),
    (("gl4", (1, 1, 1, 2), 3), ("gl4", (0, 0, 1, 1), 3)),
    (("gl3", (0, 0, 1), 6), ("gl4", (1, 1, 1, 2), 3)),
    (("gl2", (1, 2), 10), ("gl3", (1, 1, 2), 8)),
    (("gl3", (-1, -1, 0), 5), ("gl4", (0, 0, 0, 1), 3)),
    (("gl2", (1, 2), 8), ("gl3", (0, 0, 1), 4)),
    (("gl3", (-1, -1, 0), 4), ("gl2", (-1, 0), 12)),
)
_LI_ROUNDS = 4


def _li_jobs(seed: int) -> list[dict]:
    """Every input of every stratum, each in half of the rounds, in a seed order.

    Drawing one input per stratum and round moved the tail latency by
    10% between seeds (the tail sits inside one stratum), so the job set
    is fixed and the seed decides only the order.
    """
    rng = _rng("li_crosscheck", seed)
    jobs = [{"kind": "li", "datum": f"group:{group}", "weight": weight, "bound": bound}
            for stratum in _LI_STRATA
            for group, weight, bound in stratum * (_LI_ROUNDS // len(stratum))]
    rng.shuffle(jobs)
    return jobs


# -- fresh_data -------------------------------------------------------

# (preset, subcommand, extra): each entry is one stratum, drawn once per
# round with a fresh change of basis.  "weight" is the degree of the
# antidominant weights the lowest weight is drawn from; "truncate" caps
# the series bound or the suite size, so that no basis makes one job
# dominate a pass.  The cost of a series job depends on the basis (the
# witness sets the truncation region), so the bounds are small; gl4
# macdonald runs twice a round so that the tail latency (ten jobs
# beyond it) falls inside its cluster rather than on a basis outlier.
_FRESH_STRATA = (
    ("group:gl2", "inverse-satake", {"weight": 1, "truncate": 5, "outside_span": True}),
    ("group:gl3", "inverse-satake", {"weight": 1, "truncate": 3, "outside_span": True}),
    ("group:gl4", "inverse-satake", {"weight": 1, "truncate": 2, "outside_span": True}),
    ("sp2n_gl2n:2", "inverse-satake", {"weight": 1, "truncate": 5, "outside_span": True}),
    ("sp2n_gl2n:3", "inverse-satake", {"weight": 1, "truncate": 3, "outside_span": True}),
    ("whittaker:gl3", "inverse-satake", {"weight": 1, "truncate": 4, "outside_span": True}),
    ("group:gl3", "basic", {"truncate": 4}),
    ("group:gl4", "basic", {"truncate": 4}),
    ("group:b2", "basic", {"truncate": 6}),
    ("sp2n_gl2n:3", "basic", {"truncate": 4}),
    ("group:gl3", "macdonald", {"weight": 2}),
    ("group:b2", "macdonald", {"weight": 2}),
    ("group:gl4", "macdonald", {"weight": 1}),
    ("group:gl4", "macdonald", {"weight": 1}),  # twice: the tail job set
    ("whittaker:gl3", "macdonald", {"weight": 2}),
    ("whittaker:gl4", "macdonald", {"weight": 1}),
    ("group:gl2", "char", {"weight": 3}),
    ("group:gl4", "char", {"weight": 2}),
    ("whittaker:b2", "char", {"weight": 3}),
    ("group:gl4", "verify", {"suite": "denominator"}),
    ("group:gl3", "verify", {"suite": "orthogonality", "truncate": 1}),
    ("group:b2", "verify", {"suite": "orthogonality", "truncate": 1}),
    ("group:gl2", "verify", {"suite": "basic-pairing", "truncate": 2}),
    ("group:gl3", "verify", {"suite": "basic-pairing", "truncate": 1}),
    ("whittaker:b2", "verify", {"suite": "whittaker-schur"}),
    ("group:gl2", "verify", {"suite": "li", "weight": 1, "truncate": 6, "outside_span": True}),
    ("group:gl3", "verify", {"suite": "li", "weight": 1, "truncate": 2, "outside_span": True}),
)
_FRESH_ROUNDS = 16
# A rank-one lattice has two bases, so sl2 data appear once per pass.
_FRESH_ONCE = (
    ("group:sl2", "basic", {"truncate": 8}),
    ("whittaker:sl2", "char", {"weight": 3}),
)

# Invalid inputs, each with the typed outcome a correct program gives.
# "simple_only" is a gl3 datum listing only its simple reflections: not a
# full positive system, so a correct program rejects it with exit 2.
_FRESH_INVALID = (
    ("simple_only", "inverse-satake", 2),
    ("simple_only", "verify-denominator", 2),
    ("line_cone", "basic", 2),
    ("theta_outside", "basic", 2),
    ("bad_pairing", "char", 2),
    ("bad_number", "basic", 2),
    ("not_antidominant", "char", 2),
    ("rho_in_span", "inverse-satake", 3),
    ("schur_on_group", "verify-whittaker-schur", 2),
)


def _unimodular(rng: random.Random, rank: int) -> tuple[tuple[int, ...], ...]:
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if rank > 1:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(rank), 2)
            s = rng.choice((-1, 1))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
        rng.shuffle(m)
    for row in m:
        if rng.random() < 0.5:
            row[:] = [-x for x in row]
    return tuple(tuple(row) for row in m)


def moved_root_datum(positive, g) -> frozenset:
    """The (root, coroot) pairs of a positive system after the basis change g."""
    ginv = mat_inverse(g)
    return frozenset((vec_mat(d.root, ginv), mat_vec(g, d.coroot)) for d in positive)


def _invalid_positive(case: str, datum):
    return datum.dual_datum().simples() if case == "simple_only" else datum.positive


def _fresh_jobs(seed: int) -> list[dict]:
    """Jobs for fresh_data; no two datum files share a root datum."""
    import satake

    rng = _rng("fresh_data", seed)
    seen: set[frozenset] = set()

    def fresh_basis(positive, rank: int):
        for _ in range(1000):
            g = _unimodular(rng, rank)
            key = moved_root_datum(positive, g)
            if key not in seen:
                seen.add(key)
                return g
        raise RuntimeError("no fresh change of basis left")

    def valid_job(name, command, extra):
        datum = stock(name)
        job = {"kind": "cli", "datum": name, "command": command,
               "basis": fresh_basis(datum.positive, datum.rank), "expect": 0}
        job.update({k: v for k, v in extra.items() if k != "outside_span"})
        if "weight" in extra:
            weights = satake.antidominant_weights(datum.dual_datum(), extra["weight"])
            if extra.get("outside_span"):
                weights = [w for w in weights if not _in_span(datum.cone_cx, w)]
            job["weight"] = rng.choice(weights)
        return job

    jobs = [valid_job(*stratum) for _ in range(_FRESH_ROUNDS) for stratum in _FRESH_STRATA]
    jobs += [valid_job(*stratum) for stratum in _FRESH_ONCE]
    for case, command, expect in _FRESH_INVALID:
        name = "group:b2" if case == "bad_pairing" else "group:gl3"
        datum = stock(name)
        jobs.append({"kind": "cli", "datum": name, "invalid": case, "command": command,
                     "basis": fresh_basis(_invalid_positive(case, datum), datum.rank),
                     "expect": expect})
    rng.shuffle(jobs)
    return jobs


def _in_span(vectors, v) -> bool:
    from satake.linalg import in_rational_span

    return in_rational_span(vectors, v)


# -- job sets ---------------------------------------------------------

_GENERATORS = {
    "tables": _tables_jobs,
    "orthogonality": _orthogonality_jobs,
    "li_crosscheck": _li_jobs,
    "fresh_data": _fresh_jobs,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload, a pure function of the seed."""
    jobs = _GENERATORS[workload](seed)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


@functools.lru_cache(maxsize=None)
def stock(name: str):
    """The stock datum named like a CLI preset, e.g. "group:gl3"."""
    import satake

    kind, _, param = name.partition(":")
    return satake.preset(kind, int(param) if param.isdigit() else param)


# -- lattice changes of basis -----------------------------------------


def mat_vec(g, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def vec_mat(f, g) -> tuple:
    n = len(g)
    return tuple(sum(f[i] * g[i][j] for i in range(n)) for j in range(n))


def mat_inverse(g) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unimodular integer matrix."""
    n = len(g)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(g)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if any(x.denominator != 1 for row in a for x in row[n:]):
        raise ValueError(f"{g} is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


def vec_text(v) -> str:
    return ",".join(str(x) for x in v)


def parse_vec(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def datum_text(datum, g, *, positive=None, theta=None, cone=None) -> str:
    """The datum file of `datum` moved by the basis change g.

    Lattice vectors (coroots, theta directions, cone generators) map to
    g v; functionals (roots, rho_px) map to f g^-1, so every pairing is
    unchanged.  Keyword overrides substitute fields before the move.
    """
    ginv = mat_inverse(g)
    positive = datum.positive if positive is None else positive
    theta = datum.theta_plus if theta is None else theta
    cone = datum.cone_cx if cone is None else cone
    lines = [f"rank {datum.rank}"]
    for d in positive:
        lines.append(f"reflection {vec_text(vec_mat(d.root, ginv))} | {vec_text(mat_vec(g, d.coroot))}")
    for t, s, r in theta:
        lines.append(f"theta {vec_text(mat_vec(g, t))} | {'+1' if s == 1 else '-1'} | {r}")
    lines.append(f"rho_px {vec_text(vec_mat(datum.rho_px, ginv))}")
    for c in cone:
        lines.append(f"cone {vec_text(mat_vec(g, c))}")
    return "\n".join(lines) + "\n"


def _invalid_text(job) -> str:
    datum = stock(job["datum"])
    g = job["basis"]
    case = job["invalid"]
    if case == "simple_only":
        simples = _invalid_positive(case, datum)
        return datum_text(datum, g, positive=simples,
                          theta=[(d.coroot, 1, 1) for d in simples])
    if case == "line_cone":
        c = datum.cone_cx[0]
        return datum_text(datum, g, cone=list(datum.cone_cx) + [tuple(-x for x in c)])
    if case == "theta_outside":
        t = datum.theta_plus[0]
        return datum_text(datum, g, theta=list(datum.theta_plus) + [(tuple(-x for x in t[0]), 1, 1)])
    if case == "bad_pairing":
        text = datum_text(datum, g)
        head, _, rest = text.partition("| ")
        coroot, _, tail = rest.partition("\n")
        doubled = ",".join(str(2 * int(x)) for x in coroot.split(","))
        return f"{head}| {doubled}\n{tail}"
    if case == "bad_number":
        return datum_text(datum, g).replace("rho_px ", "rho_px x", 1)
    return datum_text(datum, g)


def _invalid_argv(job) -> list[str]:
    datum = stock(job["datum"])
    g = job["basis"]
    case, command = job["invalid"], job["command"]
    rank = datum.rank
    if case == "not_antidominant":
        return [command, f"--lowest-weight={vec_text(mat_vec(g, (1,) + (0,) * (rank - 1)))}"]
    if case == "rho_in_span":  # minus the sum of the positive coroots
        span = tuple(-sum(c) for c in zip(*datum.positive_coroots()))
        return [command, f"--lowest-weight={vec_text(mat_vec(g, span))}", "--truncate", "3"]
    if command == "inverse-satake":
        return [command, f"--lowest-weight={vec_text(mat_vec(g, _tail_weight(rank, 1)))}", "--truncate", "4"]
    if command.startswith("verify-"):
        return ["verify", "--suite", command[len("verify-"):]]
    if command == "char":
        return [command, f"--lowest-weight={vec_text(mat_vec(g, (0,) * rank))}"]
    return [command, "--truncate", "3"]


def cli_argv(job) -> list[str]:
    """Arguments of a fresh_data job, without the --datum-file option.

    Lowest weights go in the `--lowest-weight=...` form: the
    space-separated form rejects a leading minus sign.
    """
    if "invalid" in job:
        return _invalid_argv(job)
    g = job["basis"]
    argv = [job["command"]]
    if job["command"] == "verify":
        argv += ["--suite", job["suite"]]
    if "weight" in job:
        argv.append(f"--lowest-weight={vec_text(mat_vec(g, job['weight']))}")
    if "truncate" in job:
        argv += ["--truncate", str(job["truncate"])]
    return argv


def fresh_file_text(job) -> str:
    if "invalid" in job:
        return _invalid_text(job)
    return datum_text(stock(job["datum"]), job["basis"])


# -- inputs and runners -----------------------------------------------


def datum_files(jobs: list[dict], datum_dir: str) -> dict[int, tuple[str, str]]:
    """Job id -> (path, text) of each fresh_data datum file.

    Files are named by a digest of their text, so a file once written
    never changes and a later run with the same seed reuses it.
    """
    out = {}
    for job in jobs:
        text = fresh_file_text(job)
        name = hashlib.sha256(text.encode("utf-8")).hexdigest()[:20] + ".datum"
        out[job["id"]] = (os.path.join(datum_dir, name), text)
    return out


def write_datum_files(jobs: list[dict], datum_dir: str) -> dict[int, str]:
    """Write each fresh_data datum file that is missing; job id -> path."""
    os.makedirs(datum_dir, exist_ok=True)
    paths = {}
    for job_id, (path, text) in datum_files(jobs, datum_dir).items():
        if not os.path.exists(path):
            partial = f"{path}.{os.getpid()}.part"
            with open(partial, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(partial, path)
        paths[job_id] = path
    return paths


def build_inputs(satake, workload: str, jobs: list[dict], files: dict[int, str]) -> dict:
    """Everything the timed jobs need: datum objects or datum file paths.

    files maps each fresh_data job id to its datum file.
    """
    inputs: dict = {"data": {}, "files": {}}
    if workload == "fresh_data":
        inputs["files"] = files
    else:
        for job in jobs:
            if job["datum"] not in inputs["data"]:
                inputs["data"][job["datum"]] = stock(job["datum"])
    inputs["polys"] = {name: [] for name in inputs["data"]}
    return inputs


def run_job(satake, job: dict, inputs: dict) -> tuple[str, str]:
    """Run one job; return (outcome, rendered output).

    The outcome is "ok", "exit=<code>" for a CLI job or "raised:<type>".
    Rendering is part of the job: it is what a user reads.
    """
    kind = job["kind"]
    if kind == "cli":
        return _run_cli(satake, job, inputs)
    datum = inputs["data"].get(job["datum"])
    if kind == "table":
        table = satake.inverse_satake_lfun(datum, job["weight"], job["bound"])
        return "ok", table.to_tsv()
    if kind == "basic":
        return "ok", satake.basic_asymptotics(datum, job["bound"]).serialize()
    if kind == "ortho":
        return "ok", _run_ortho(satake, job, datum, inputs["polys"][job["datum"]])
    if kind == "basic_pairing":
        return "ok", _run_basic_pairing(satake, datum, job["bound"])
    if kind == "li":
        datum = inputs["data"][job["datum"]]
        d = satake.li_datum(datum, job["weight"])
        return "ok", str(satake.li_equivalence_check(d, datum, job["weight"], job["bound"]))
    raise ValueError(f"unknown job kind {kind!r}")


def _run_ortho(satake, job, datum, earlier: list) -> str:
    """P_lam, then its pairing against every P_mu computed before it."""
    poly = satake.macdonald_p(datum, job["weight"])
    lines = [poly.serialize(), "#pairings"]
    for mu, other in earlier:
        lines.append(f"{vec_text(mu)}\t{satake.pairing(poly, other, datum).render()}")
    earlier.append((tuple(job["weight"]), poly))
    return "\n".join(lines)


def _run_basic_pairing(satake, datum, degree: int) -> str:
    """[P_lam, P_0] against the basic series coefficient times [P_0, P_0]."""
    spec = datum.cone_spec()
    sweep = list(satake.lattice_points(spec, degree))
    for w in satake.antidominant_weights(datum.dual_datum(), degree):
        if w not in sweep:
            sweep.append(w)
    bound = max([degree] + [int(sum(a * b for a, b in zip(spec.witness, lam))) for lam in sweep])
    series = satake.basic_asymptotics(datum, bound)
    p0 = satake.macdonald_p(datum, (0,) * datum.rank)
    lines = [f"pp0\t{satake.pairing(p0, p0, datum).render()}"]
    for lam in sweep:
        coeff = series.coefficient(lam) if spec.contains(lam) else satake.QLaurent()
        value = satake.pairing(satake.macdonald_p(datum, lam), p0, datum)
        lines.append(f"{vec_text(lam)}\t{value.render()}\t{coeff.render()}")
    return "\n".join(lines)


def _run_cli(satake, job, inputs) -> tuple[str, str]:
    from satake import cli

    argv = cli_argv(job) + ["--datum-file", inputs["files"][job["id"]]]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a traceback is an outcome here
        return f"raised:{type(exc).__name__}", out.getvalue()
    return f"exit={code}", out.getvalue()
