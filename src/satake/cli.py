"""Command line front end.

Subcommands:

    inverse-satake   table of normalized Hecke values for L(rho)
    basic            coefficients of the basic asymptotics series
    macdonald        one symmetrized polynomial P_lambda
    char             weight multiplicities of a lowest-weight module
    verify           built-in exact property suites

A spherical datum comes from --preset name:parameter (group:gl2,
whittaker:gl3, sp2n_gl2n:2, ...) or from --datum-file.  The
representation comes from --rep std|sym2 or --lowest-weight c1,...,cn.
Output is byte deterministic: fixed sort orders and the canonical
coefficient rendering, as TSV (default) or structured records.

Exit status: 0 on success and for passing verification, 1 for a failed
verification, 2 for configuration errors (malformed input, unknown
preset, a lowest weight that is not antidominant), 3 for mathematical
failures (NotPolynomial, RhoInConeSpan, ...).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

from .cone_series import lattice_points
from .datumfile import parse_datum
from .errors import BadParameters, FormatError, MathError, NotAntidominant
from .li_oracle import li_datum, li_equivalence_check
from .qlaurent import ONE, QLaurent
from .rep_chars import _alternant, lowest_weight_rep, weyl_denominator
from .root_weyl import antidominant_weights, is_antidominant, pair
from .spherical import (
    SphericalDatum,
    basic_asymptotics,
    gr_mul_binomial,
    inverse_satake_lfun,
    macdonald_p,
    pairing,
    preset,
)

__all__ = ["JobConfig", "main"]


@dataclass
class JobConfig:
    """Resolved invocation: datum, representation request, output plan."""

    datum: SphericalDatum
    rep_name: str | None
    weight_text: str | None
    truncate: int | None
    fmt: str
    out: str | None

    def bound(self, default: int) -> int:
        return default if self.truncate is None else self.truncate

    def weight(self, require_antidominant: bool = True) -> tuple[int, ...]:
        """The requested lowest weight, validated against the datum."""
        if self.weight_text is not None:
            parts = self.weight_text.split(",")
            try:
                w = tuple(int(p.strip()) for p in parts)
            except ValueError:
                raise FormatError(
                    f"bad --lowest-weight {self.weight_text!r}: expected integers"
                ) from None
            if len(w) != self.datum.rank:
                raise FormatError(
                    f"--lowest-weight has {len(w)} coordinates, datum has rank {self.datum.rank}"
                )
        elif self.rep_name is not None:
            tail = 1 if self.rep_name == "std" else 2
            w = (0,) * (self.datum.rank - 1) + (tail,)
        else:
            raise FormatError("a representation is required: --rep or --lowest-weight")
        if require_antidominant and not is_antidominant(w, self.datum.positive_roots()):
            raise NotAntidominant(
                f"lowest weight {w} is not antidominant for the datum"
            )
        return w


def _load_datum(args) -> SphericalDatum:
    if args.preset and args.datum_file:
        raise FormatError("give either --preset or --datum-file, not both")
    if args.preset:
        name, sep, parameter = args.preset.partition(":")
        if not sep or not parameter:
            raise FormatError("--preset takes the form name:parameter, e.g. group:gl2")
        value: object = int(parameter) if parameter.isdigit() else parameter
        return preset(name, value)
    if args.datum_file:
        try:
            with open(args.datum_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read datum file: {exc}") from None
        return parse_datum(text)
    raise FormatError("a datum is required: --preset or --datum-file")


def _config(args) -> JobConfig:
    if args.truncate is not None and args.truncate < 0:
        raise FormatError("--truncate must be >= 0")
    return JobConfig(
        datum=_load_datum(args),
        rep_name=args.rep,
        weight_text=args.lowest_weight,
        truncate=args.truncate,
        fmt=args.format,
        out=args.out,
    )


def _emit(text: str, cfg: JobConfig) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coords(v) -> str:
    return ",".join(str(x) for x in v)


def cmd_inverse_satake(cfg: JobConfig) -> int:
    table = inverse_satake_lfun(cfg.datum, cfg.weight(), cfg.bound(6))
    text = table.to_records() if cfg.fmt == "records" else table.to_tsv()
    _emit(text, cfg)
    return 0


def cmd_basic(cfg: JobConfig) -> int:
    series = basic_asymptotics(cfg.datum, cfg.bound(6))
    if cfg.fmt == "records":
        lines = []
        for k in series.support():
            lines.append(f"point={_coords(k)} coeff={series.coefficient(k).render()}")
        text = "\n".join(lines)
    else:
        text = series.serialize()
    _emit(text, cfg)
    return 0


def cmd_macdonald(cfg: JobConfig) -> int:
    poly = macdonald_p(cfg.datum, cfg.weight(require_antidominant=False))
    if cfg.fmt == "records":
        lines = []
        for k in poly.support():
            lines.append(f"term={_coords(k)} coeff={poly.coefficient(k).render()}")
        text = "\n".join(lines)
    else:
        text = poly.serialize()
    _emit(text, cfg)
    return 0


def cmd_char(cfg: JobConfig) -> int:
    weights = lowest_weight_rep(cfg.datum.dual_datum(), cfg.weight())
    if cfg.fmt == "records":
        lines = [f"weight={_coords(k)} mult={weights[k]}" for k in sorted(weights)]
    else:
        lines = [f"{_coords(k)}\t{weights[k]}" for k in sorted(weights)]
    _emit("\n".join(lines), cfg)
    return 0


# -- verification suites ----------------------------------------------


def _suite_li(cfg: JobConfig) -> tuple[bool, list[str]]:
    rho = cfg.weight()
    d = li_datum(cfg.datum, rho)
    report = li_equivalence_check(d, cfg.datum, rho, cfg.bound(8))
    return report.ok, [f"li: {report}"]


def _times_denominator(terms, rd) -> dict:
    """terms times prod_{gamma > 0} (1 - e^gamma)."""
    for g in rd.positive_coroots():
        terms = gr_mul_binomial(terms, ONE, g)
    return terms


def _suite_denominator(cfg: JobConfig) -> tuple[bool, list[str]]:
    rd = cfg.datum.dual_datum()
    lhs = weyl_denominator(rd)
    ok = lhs == _times_denominator({(0,) * rd.rank: ONE}, rd)
    lines = [
        "denominator: alternating sum "
        + ("matches" if ok else "does NOT match")
        + f" the product over {len(rd.positive)} positive coroots ({len(lhs)} monomials)"
    ]
    return ok, lines


def _suite_orthogonality(cfg: JobConfig) -> tuple[bool, list[str]]:
    degree = cfg.bound(3)
    weights = antidominant_weights(cfg.datum.dual_datum(), degree)
    polys = [macdonald_p(cfg.datum, w) for w in weights]
    failures = []
    checked = 0
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            checked += 1
            value = pairing(polys[i], polys[j], cfg.datum)
            if not value.is_zero():
                failures.append((weights[i], weights[j], value))
    if failures:
        a, b, v = failures[0]
        return False, [
            f"orthogonality: FAILED at ({_coords(a)}), ({_coords(b)}): {v.render()}"
            + f" ({checked} pairs checked)"
        ]
    return True, [
        f"orthogonality: {checked} distinct pairs vanish"
        + f" ({len(weights)} weights through degree {degree})"
    ]


def _suite_basic_pairing(cfg: JobConfig) -> tuple[bool, list[str]]:
    degree = cfg.bound(3)
    datum = cfg.datum
    spec = datum.cone_spec()
    sweep = list(lattice_points(spec, degree))
    seen = set(sweep)
    for w in antidominant_weights(datum.dual_datum(), degree):
        if w not in seen:
            sweep.append(w)
            seen.add(w)
    bound = degree
    for lam in sweep:
        bound = max(bound, int(pair(spec.witness, lam)))
    series = basic_asymptotics(datum, bound)
    p0 = macdonald_p(datum, (0,) * datum.rank)
    pp0 = pairing(p0, p0, datum)
    for lam in sweep:
        coeff = series.coefficient(lam) if spec.contains(lam) else QLaurent()
        lhs = pairing(macdonald_p(datum, lam), p0, datum)
        if lhs != coeff * pp0:
            return False, [
                f"basic-pairing: FAILED at {_coords(lam)}:"
                + f" pairing gives {lhs.render()}, series coefficient is {coeff.render()}"
            ]
    return True, [
        f"basic-pairing: {len(sweep)} weights consistent through degree {degree}"
    ]


def _suite_whittaker_schur(cfg: JobConfig) -> tuple[bool, list[str]]:
    datum = cfg.datum
    if datum.theta_plus:
        raise BadParameters(
            "whittaker-schur requires a datum with no denominator colors"
        )
    rd = datum.dual_datum()
    weights = antidominant_weights(rd, 2)[:5]
    for w in weights:
        # Weyl's character formula: the character times the denominator
        # is the alternant, summed over the enumerated Weyl group.
        got = _times_denominator(macdonald_p(datum, w).terms, rd)
        if got != _alternant(rd, w):
            return False, [f"whittaker-schur: FAILED at {_coords(w)}"]
    return True, [
        "whittaker-schur: characters match at "
        + "; ".join(_coords(w) for w in weights)
    ]


_SUITES = {
    "li": _suite_li,
    "orthogonality": _suite_orthogonality,
    "denominator": _suite_denominator,
    "whittaker-schur": _suite_whittaker_schur,
    "basic-pairing": _suite_basic_pairing,
}


def cmd_verify(suite: str, cfg: JobConfig) -> int:
    ok, lines = _SUITES[suite](cfg)
    _emit("\n".join(lines), cfg)
    return 0 if ok else 1


# -- argument plumbing -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="datum preset, name:parameter (e.g. group:gl2)")
    common.add_argument("--datum-file", help="path to a datum file")
    common.add_argument("--rep", choices=["std", "sym2"], help="named representation")
    common.add_argument(
        "--lowest-weight", help="explicit lowest weight, comma separated integers"
    )
    common.add_argument("--truncate", type=int, help="truncation degree N")
    common.add_argument(
        "--format", choices=["tsv", "records"], default="tsv", help="output format"
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="satake", description="Exact spherical transform tables and checks."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inverse-satake", parents=[common])
    sub.add_parser("basic", parents=[common])
    sub.add_parser("macdonald", parents=[common])
    sub.add_parser("char", parents=[common])
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    return parser


def _join_negative_weights(argv: list[str]) -> list[str]:
    """Glue `--lowest-weight -1,0` into `--lowest-weight=-1,0`.

    argparse reads a value that starts with a dash and is not a plain
    number as the next option, so a negative lowest weight would be
    rejected as a missing argument.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--lowest-weight" and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_weights(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config(args)
        if args.command == "inverse-satake":
            return cmd_inverse_satake(cfg)
        if args.command == "basic":
            return cmd_basic(cfg)
        if args.command == "macdonald":
            return cmd_macdonald(cfg)
        if args.command == "char":
            return cmd_char(cfg)
        return cmd_verify(args.suite, cfg)
    except (NotAntidominant, FormatError) as exc:
        # a lowest weight that fails the antidominance invariant is a
        # configuration error, not a math-layer failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
