"""Exactness checks of job outputs, run after the timed region.

Each check compares a job's rendered output with an independent oracle
where the repository has one:

* group tables: the partition-counting formula of `satake.li_oracle`
  (the symplectic-period twin of gl_n is the gl_n table with every
  q-exponent doubled),
* basic series: multiplying back by the colored factors must give the
  product over the positive coroots through the bound,
* Whittaker P_lam: the character of `lowest_weight_rep`; other P_lam:
  invariance under every simple reflection, and every pairing against an
  earlier P_mu of the same datum must vanish,
* fresh_data: the output on a moved datum must be the image, under the
  change of basis, of the same computation on the stock datum.

`JobChecker.check` returns None for a passing job and a one-line cause
otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import fresh_file_text, mat_inverse, mat_vec, parse_vec, stock, vec_text


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


def _degree(witness, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(witness, v)), Fraction(0))


class JobChecker:
    """Checks the jobs of one workload; caches oracle values across jobs."""

    def __init__(self, satake):
        self.s = satake
        self._li: dict = {}
        self._stock: dict = {}
        self._earlier: dict = {}
        self._verdicts: dict = {}

    def check(self, job: dict, outcome: str, output: str) -> str | None:
        if job["kind"] == "cli":
            return self._check_cli(job, outcome, output)
        if outcome != "ok":
            return outcome
        method = getattr(self, f"_check_{job['kind']}")
        if job["kind"] == "ortho":  # depends on the jobs before it
            return method(job, output)
        key = (repr(sorted((k, v) for k, v in job.items() if k != "id")), output)
        if key not in self._verdicts:
            self._verdicts[key] = method(job, output)
        return self._verdicts[key]

    # -- tables ---------------------------------------------------------

    def _li_value(self, base: str, weight, lam):
        key = (base, tuple(weight))
        if key not in self._li:
            self._li[key] = (self.s.li_datum(stock(f"group:{base}"), weight), {})
        d, values = self._li[key]
        if lam not in values:
            values[lam] = self.s.li_coefficient(d, lam)
        return values[lam]

    def _check_table(self, job, output):
        s = self.s
        name = job["datum"]
        datum = stock(name)
        weight = tuple(job["weight"])
        base = f"gl{datum.rank}"
        twin = name.startswith("sp2n_gl2n")
        spec = s.extended_cone_spec(datum, weight)
        roots = datum.positive_roots()
        got = {}
        for coords, c, h in _rows(output):
            got[parse_vec(coords)] = (s.parse_qlaurent(c), s.parse_qlaurent(h))
        for lam in s.lattice_points(spec, job["bound"]):
            if not s.is_antidominant(lam, roots):
                continue
            want = self._li_value(base, weight, lam)
            if twin:
                want = s.QLaurent({2 * e: v for e, v in want.terms.items()})
            row = got.pop(lam, None)
            if want.is_zero():
                if row is not None:
                    return f"table row {vec_text(lam)} should be absent"
                continue
            if row is None:
                return f"table row {vec_text(lam)} missing"
            c, h = row
            if c != want:
                return f"table coefficient at {vec_text(lam)} is {c.render()}, oracle {want.render()}"
            if h != s.qmonomial(s.root_weyl.pair(datum.rho_px, lam)) * c:
                return f"hecke value at {vec_text(lam)} is not q^<rho_px, lam> times the coefficient"
        if got:
            return f"table has {len(got)} rows outside the antidominant cone slice"
        return None

    def _check_basic(self, job, output):
        datum = stock(job["datum"])
        return self._multiply_back(datum, job["bound"], output)

    def _multiply_back(self, datum, bound, output):
        s = self.s
        witness = datum.cone_spec().witness
        series = {}
        for coords, coeff in _rows(output):
            key = parse_vec(coords)
            d = _degree(witness, key)
            if d < 0 or d > bound:
                return f"series key {coords} has degree {d} outside [0, {bound}]"
            series[key] = s.parse_qlaurent(coeff)

        def times_binomial(terms, coeff, direction):
            out = dict(terms)
            for k, c in terms.items():
                key = tuple(a + b for a, b in zip(k, direction))
                if _degree(witness, key) > bound:
                    continue
                val = out.get(key, s.QLaurent()) - c * coeff
                if val.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = val
            return out

        lhs = series
        for t, sigma, r in datum.theta_plus:
            lhs = times_binomial(lhs, sigma * s.qmonomial(-r), t)
        rhs = {(0,) * datum.rank: s.QLaurent({0: 1})}
        for g in datum.positive_coroots():
            rhs = times_binomial(rhs, s.QLaurent({0: 1}), g)
        if lhs != rhs:
            bad = sorted(set(lhs) ^ set(rhs) or [k for k in lhs if lhs[k] != rhs[k]])
            return f"series times the colored factors differs from the numerator at {vec_text(bad[0])}"
        return None

    # -- orthogonality --------------------------------------------------

    def _check_ortho(self, job, output):
        s = self.s
        name = job["datum"]
        datum = stock(name)
        poly_text, _, pair_text = output.partition("#pairings")
        earlier = self._earlier.setdefault(name, [])
        pairs = _rows(pair_text)
        if [parse_vec(mu) for mu, _ in pairs] != earlier:
            return "pairings do not cover every earlier P_mu of the datum"
        earlier.append(tuple(job["weight"]))
        for mu, value in pairs:
            if value != "0":
                return f"pairing with P_{mu} is {value}, expected 0"
        terms = {parse_vec(k): s.parse_qlaurent(c) for k, c in _rows(poly_text)}
        if name.startswith("whittaker"):
            chars = s.lowest_weight_rep(datum.dual_datum(), job["weight"])
            want = {k: s.QLaurent({0: m}) for k, m in chars.items()}
            return None if terms == want else "Whittaker P_lam differs from the character"
        if tuple(job["weight"]) not in terms:
            return "P_lam has no term at lam"
        for d in datum.dual_datum().simples():
            for k, c in terms.items():
                t = s.root_weyl.pair(d.root, k)
                image = tuple(int(x - t * y) for x, y in zip(k, d.coroot))
                if terms.get(image) != c:
                    return f"P_lam is not invariant under the reflection in {vec_text(d.coroot)}"
        return None

    def _check_basic_pairing(self, job, output):
        s = self.s
        rows = _rows(output)
        pp0 = s.parse_qlaurent(rows[0][1])
        if pp0.is_zero():
            return "[P_0, P_0] vanishes"
        for lam, value, coeff in rows[1:]:
            if s.parse_qlaurent(value) != s.parse_qlaurent(coeff) * pp0:
                return f"[P_{lam}, P_0] is not the series coefficient times [P_0, P_0]"
        return None

    # -- li_crosscheck --------------------------------------------------

    def _check_li(self, job, output):
        s = self.s
        datum = stock(job["datum"])
        spec = s.extended_cone_spec(datum, job["weight"])
        points = len(s.lattice_points(spec, job["bound"]))
        want = f"ok: {points} coefficients agree through degree {job['bound']}"
        return None if output == want else f"report {output!r}, expected {want!r}"

    # -- fresh_data -----------------------------------------------------

    def _check_cli(self, job, outcome, output):
        expect = f"exit={job['expect']}"
        if "invalid" in job:
            if outcome != expect or output:
                printed = " after printing output" if output else ""
                return f"{job['invalid']} {job['command']}: {outcome}{printed}, expected {expect}"
            return None
        if outcome != expect:
            return f"{job['command']}: {outcome}, expected {expect}"
        if job["command"] == "verify":  # exit 0 already means the suite passed
            ok = output.startswith(f"{job['suite']}: ")
            return None if ok else f"verify output {output.strip()!r}"
        want = self._moved_stock_output(job)
        if output != want:
            return f"{job['command']} output differs from the moved stock output"
        return None

    def _moved_stock_output(self, job) -> str:
        """The stock computation of the job, moved by its change of basis."""
        s = self.s
        g = job["basis"]
        base = stock(job["datum"])
        command = job["command"]
        if command == "macdonald":
            poly = s.macdonald_p(base, job["weight"])
            rows = {mat_vec(g, k): c.render() for k, c in poly.terms.items()}
        elif command == "char":
            chars = s.lowest_weight_rep(base.dual_datum(), job["weight"])
            rows = {mat_vec(g, k): str(m) for k, m in chars.items()}
        else:
            rows = self._moved_series_rows(job, base, g)
        lines = [f"{vec_text(k)}\t{v}" for k, v in sorted(rows.items())]
        return "\n".join(lines) + "\n" if lines else ""

    def _moved_series_rows(self, job, base, g) -> dict:
        s = self.s
        moved = s.parse_datum(fresh_file_text(job))
        bound = job["truncate"]
        if job["command"] == "inverse-satake":
            weight = tuple(job["weight"])
            spec = s.extended_cone_spec(base, weight)
            moved_spec = s.extended_cone_spec(moved, mat_vec(g, weight))
        else:
            spec = base.cone_spec()
            moved_spec = moved.cone_spec()
        # the stock bound that covers every point of moved degree <= bound
        ginv = mat_inverse(g)
        stock_bound = 0
        for v in moved_spec.generators:
            ratio = _degree(spec.witness, mat_vec(ginv, v)) / _degree(moved_spec.witness, v)
            stock_bound = max(stock_bound, math.ceil(bound * ratio))
        key = (job["datum"], job["command"], tuple(job.get("weight", ())), stock_bound)
        if key not in self._stock:
            if job["command"] == "inverse-satake":
                table = s.inverse_satake_lfun(base, weight, stock_bound)
                self._stock[key] = [(k, f"{c.render()}\t{h.render()}") for k, c, h in table.rows]
            else:
                series = s.basic_asymptotics(base, stock_bound)
                self._stock[key] = [(k, series.coefficient(k).render()) for k in series.support()]
        rows = {}
        for k, text in self._stock[key]:
            moved_key = mat_vec(g, k)
            if _degree(moved_spec.witness, moved_key) <= bound:
                rows[moved_key] = text
        return rows
