"""Spherical data and the transforms attached to them.

A SphericalDatum packages the dual root data on the coweight lattice,
the colored denominator directions (theta, sigma, r) contributing
factors (1 - sigma q^-r e^theta), the parabolic half-sum functional
used to normalize Hecke values, and the generators of the cone that
supports all expansions.

On top of the datum this module provides:

* `macdonald_p`: the symmetrized family P_lambda, computed as the
  Demazure operator of the longest Weyl element applied to the colored
  monomial: one exact division by a binomial per letter of a reduced
  word; a nonzero remainder is an error, never silently truncated.
* `basic_asymptotics`: the cone expansion of
  prod(1 - e^gamma) / prod(1 - sigma q^-r e^theta).
* `l_series` and `inverse_satake_lfun`: the L-function generating
  series of a representation with antidominant lowest weight rho, its
  product with the basic asymptotics, and the resulting table of
  normalized Hecke values q^<rho_px, lambda> times the coefficient.
* `pairing`: the constant-term inner product under which the family
  P_lambda is orthogonal, computed against the basic asymptotics read
  at negated keys so that every query is a finite exact sum.

Everything is exact and deterministic; no floats anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cone_series import (
    ConeSeries,
    ConeSpec,
    expand_product,
    restrict_antidominant,
    series_mul,
)
from .errors import (
    BadParameters,
    DatumInvariantError,
    NotStrictlyConvex,
    RhoInConeSpan,
    UnknownPreset,
)
from .linalg import find_witness, in_rational_span
from .qlaurent import ONE, QLaurent, qmonomial
from .rep_chars import GroupRing, WeightMultiset, _demazure, _longest_word, lowest_weight_rep
from .root_weyl import (
    ReflectionDatum,
    RootDatum,
    Vec,
    intify,
    pair,
    stock_datum,
    vadd,
    vsub,
    weyl_of,
)

__all__ = [
    "SphericalDatum",
    "SymmetricPolynomial",
    "HeckeValueTable",
    "preset",
    "group_preset",
    "whittaker_preset",
    "sp2n_gl2n_preset",
    "macdonald_p",
    "basic_asymptotics",
    "l_series",
    "inverse_satake_lfun",
    "pairing",
]

ThetaTriple = tuple[Vec, int, Fraction]


@dataclass(frozen=True)
class SphericalDatum:
    """Dual root data, denominator colors, normalizer, and support cone."""

    rank: int
    positive: tuple[ReflectionDatum, ...]
    theta_plus: tuple[ThetaTriple, ...]
    rho_px: tuple[Fraction, ...]
    cone_cx: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "positive", tuple(self.positive))
        object.__setattr__(
            self,
            "theta_plus",
            tuple((intify(t), int(s), Fraction(r)) for t, s, r in self.theta_plus),
        )
        object.__setattr__(self, "rho_px", tuple(Fraction(x) for x in self.rho_px))
        object.__setattr__(self, "cone_cx", tuple(intify(g) for g in self.cone_cx))
        if len(self.rho_px) != self.rank:
            raise DatumInvariantError("rho_px rank mismatch")
        for d in self.positive:
            if len(d.coroot) != self.rank:
                raise DatumInvariantError("coroot rank mismatch")
        for t, s, r in self.theta_plus:
            if s not in (1, -1):
                raise DatumInvariantError(f"sigma must be +1 or -1, got {s}")
            if r.denominator not in (1, 2):
                raise DatumInvariantError(f"r must be a half-integer, got {r}")
        spec = self.cone_spec()  # also validates strict convexity
        for t, _, _ in self.theta_plus:
            if not spec.contains(t):
                raise DatumInvariantError(f"theta direction {t} outside cone_cx")
        for d in self.positive:
            if not spec.contains(d.coroot):
                raise DatumInvariantError(f"positive coroot {d.coroot} outside cone_cx")

    def dual_datum(self) -> RootDatum:
        return RootDatum(self.rank, self.positive)

    def positive_roots(self):
        return tuple(d.root for d in self.positive)

    def positive_coroots(self):
        return tuple(d.coroot for d in self.positive)

    def cone_spec(self) -> ConeSpec:
        return _cone_spec(self)


@functools.cache
def _cone_spec(datum: SphericalDatum) -> ConeSpec:
    try:
        witness = find_witness(datum.cone_cx, datum.rank)
    except NotStrictlyConvex as exc:
        raise DatumInvariantError(f"cone_cx is not strictly convex: {exc}") from exc
    return ConeSpec(datum.cone_cx, witness, (0,) * datum.rank)


# -- presets ----------------------------------------------------------


def _as_root_datum(parameter) -> RootDatum:
    if isinstance(parameter, RootDatum):
        return parameter
    if isinstance(parameter, str):
        try:
            return stock_datum(parameter)
        except KeyError:
            raise BadParameters(f"unknown root datum {parameter!r}") from None
    raise BadParameters(f"expected a root datum or its name, got {parameter!r}")


def _simple_coroots(datum: RootDatum) -> tuple[Vec, ...]:
    return tuple(d.coroot for d in datum.simples())


def group_preset(parameter) -> SphericalDatum:
    """The group case: every positive coroot colored (+1, 1)."""
    h = _as_root_datum(parameter)
    theta = tuple((d.coroot, 1, Fraction(1)) for d in h.positive)
    return SphericalDatum(h.rank, h.positive, theta, h.rho_roots(), _simple_coroots(h))


def whittaker_preset(parameter) -> SphericalDatum:
    """The Whittaker case: no denominator colors at all."""
    h = _as_root_datum(parameter)
    return SphericalDatum(h.rank, h.positive, (), h.rho_roots(), _simple_coroots(h))


def sp2n_gl2n_preset(n: int) -> SphericalDatum:
    """The symplectic period inside the general linear group of rank 2n.

    The distinguished torus has rank n; summing coordinate pairs maps
    the rank-2n coweight lattice onto it, the coroots attached to the
    distinguished (spherical) directions land on the rank-n type A
    coroots, and every one of them is colored (+1, 2).  The normalizer
    functional is the half-sum of the roots in the unipotent radical of
    the parabolic with two-by-two blocks, which takes the value
    n + 1 - 2b on the b-th coordinate, so it descends to the rank-n
    lattice.
    """
    if not isinstance(n, int) or n < 1:
        raise BadParameters(f"sp2n_gl2n needs a positive integer, got {n!r}")
    base = stock_datum(f"gl{n}")
    theta = tuple((d.coroot, 1, Fraction(2)) for d in base.positive)
    rho_px = tuple(Fraction(n + 1 - 2 * b) for b in range(1, n + 1))
    return SphericalDatum(base.rank, base.positive, theta, rho_px, _simple_coroots(base))


PRESETS = {
    "group": group_preset,
    "whittaker": whittaker_preset,
    "sp2n_gl2n": sp2n_gl2n_preset,
}


def preset(name: str, parameter) -> SphericalDatum:
    """Build a named preset; parameter is a root datum name or an integer."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise UnknownPreset(f"no preset named {name!r}") from None
    return builder(parameter)


# -- group-ring helpers (plain dicts, exact coefficients) --------------


def gr_add_term(acc: GroupRing, key: Vec, coeff: QLaurent) -> None:
    prev = acc.get(key)
    s = coeff if prev is None else prev + coeff
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def gr_mul_binomial(a: GroupRing, coeff: QLaurent, direction: Vec) -> GroupRing:
    """Multiply by (1 - coeff * e^direction)."""
    out: GroupRing = dict(a)
    for k, c in a.items():
        gr_add_term(out, vadd(k, direction), -(c * coeff))
    return out


# -- the symmetrized family -------------------------------------------


@dataclass
class SymmetricPolynomial:
    """A finitely supported Weyl-invariant element of the group ring."""

    terms: GroupRing

    def support(self) -> list[Vec]:
        return sorted(self.terms)

    def coefficient(self, key) -> QLaurent:
        return self.terms.get(intify(key), QLaurent())

    def serialize(self) -> str:
        lines = []
        for k in sorted(self.terms):
            coords = ",".join(str(x) for x in k)
            lines.append(f"{coords}\t{self.terms[k].render()}")
        return "\n".join(lines)

    def __eq__(self, other):
        if isinstance(other, SymmetricPolynomial):
            return self.terms == other.terms
        if isinstance(other, dict):
            return self.terms == other
        return NotImplemented


def macdonald_p(datum: SphericalDatum, lam) -> SymmetricPolynomial:
    """The symmetrized polynomial P_lambda of the datum.

    P_lambda is the sum over the Weyl group of w(F / prod_{gamma > 0}
    (1 - e^gamma)) with F = e^lambda prod(1 - sigma q^-r e^theta), which
    equals the Demazure operator pi_{w0} applied to F (Demazure 1974).
    pi_{w0} is the composite of the simple operators pi_i along a reduced
    word of w0; each is one exact division by the binomial (1 - e^gamma_i),
    and a division that leaves a remainder raises NotPolynomial.
    """
    terms: GroupRing = {intify(lam): ONE}
    for t, s, r in datum.theta_plus:
        terms = gr_mul_binomial(terms, s * qmonomial(-r), t)
    for simple in _longest_word(datum.dual_datum()):
        terms = _demazure(terms, simple)
    return SymmetricPolynomial(terms)


# -- cone expansions ---------------------------------------------------


def basic_asymptotics(datum: SphericalDatum, bound: int) -> ConeSeries:
    """Expansion of prod(1 - e^gamma) / prod(1 - sigma q^-r e^theta)."""
    return _basic_series(datum, datum.cone_spec(), bound)


def _basic_series(datum: SphericalDatum, spec: ConeSpec, bound: int) -> ConeSeries:
    numer = [(ONE, g) for g in datum.positive_coroots()]
    denom = [(s * qmonomial(-r), t) for t, s, r in datum.theta_plus]
    return expand_product(numer, denom, spec, bound)


def extended_cone_spec(datum: SphericalDatum, rho) -> ConeSpec:
    """The cone generated by cone_cx and the ray through rho.

    Requires rho outside the rational span of cone_cx, which keeps the
    extension strictly convex and the witness degree of rho positive.
    """
    rho = intify(rho)
    if in_rational_span(datum.cone_cx, rho):
        raise RhoInConeSpan(f"{rho} lies in the rational span of cone_cx")
    return _extended_cone_spec(datum, rho)


@functools.cache
def _extended_cone_spec(datum: SphericalDatum, rho: Vec) -> ConeSpec:
    gens = datum.cone_cx + (rho,)
    return ConeSpec(gens, find_witness(gens, datum.rank), (0,) * datum.rank)


def l_series(datum: SphericalDatum, rep_weights: WeightMultiset, rho, bound: int) -> ConeSeries:
    """Expansion of prod over weights nu of 1/(1 - e^nu)^mult.

    The weights must be those of the representation with lowest weight
    rho; rho must lie outside the rational span of cone_cx.
    """
    spec = extended_cone_spec(datum, rho)
    denom = []
    for nu in sorted(rep_weights):
        denom.extend([(ONE, nu)] * rep_weights[nu])
    return expand_product([], denom, spec, bound)


@dataclass
class HeckeValueTable:
    """Rows (lambda, series coefficient, normalized Hecke value)."""

    rows: tuple[tuple[Vec, QLaurent, QLaurent], ...]
    bound: int

    def row_map(self) -> dict[Vec, tuple[QLaurent, QLaurent]]:
        return {k: (c, h) for k, c, h in self.rows}

    def to_tsv(self) -> str:
        lines = []
        for k, c, h in self.rows:
            coords = ",".join(str(x) for x in k)
            lines.append(f"{coords}\t{c.render()}\t{h.render()}")
        return "\n".join(lines)

    def to_records(self) -> str:
        lines = []
        for k, c, h in self.rows:
            coords = ",".join(str(x) for x in k)
            lines.append(f"lambda={coords} series={c.render()} hecke={h.render()}")
        return "\n".join(lines)


def inverse_satake_lfun(datum: SphericalDatum, rho, bound: int) -> HeckeValueTable:
    """Hecke values of the inverse transform of an L-factor.

    Multiplies the L-series of the representation with lowest weight
    rho by the basic asymptotics, restricts to antidominant support,
    and normalizes each coefficient by q^<rho_px, lambda>.
    """
    product = _lfun_series(datum, rho, bound)
    restricted = restrict_antidominant(product, datum.positive_roots())
    rows = []
    for k in restricted.support():
        c = restricted.coefficient(k)
        h = qmonomial(pair(datum.rho_px, k)) * c
        rows.append((k, c, h))
    return HeckeValueTable(tuple(rows), bound)


def _lfun_series(datum: SphericalDatum, rho, bound: int) -> ConeSeries:
    """The L-series of L(rho) times the basic asymptotics, on the extended cone.

    The span check of `extended_cone_spec` (RhoInConeSpan) runs before
    the antidominance check of `lowest_weight_rep` (NotAntidominant).
    """
    rho = intify(rho)
    spec = extended_cone_spec(datum, rho)
    weights = lowest_weight_rep(datum.dual_datum(), rho)
    return series_mul(l_series(datum, weights, rho, bound), _basic_series(datum, spec, bound))


# -- the orthogonality pairing -----------------------------------------


_KERNEL_CACHE: dict[SphericalDatum, ConeSeries] = {}


def _pairing_kernel(datum: SphericalDatum, depth: int) -> ConeSeries:
    """The basic asymptotics through at least `depth`, grown only on demand.

    Eight degrees of headroom let nearby queries reuse the cached series.
    """
    kernel = _KERNEL_CACHE.get(datum)
    if kernel is None or kernel.bound < depth:
        kernel = _KERNEL_CACHE[datum] = basic_asymptotics(datum, depth + 8)
    return kernel


def _poly_terms(p, rank: int) -> GroupRing:
    if isinstance(p, SymmetricPolynomial):
        raw = p.terms
    elif isinstance(p, (QLaurent, int, Fraction)):
        coeff = p if isinstance(p, QLaurent) else QLaurent({0: p})
        raw = {(0,) * rank: coeff}
    else:
        raw = dict(p)
    out: GroupRing = {}
    for k, c in raw.items():
        k = intify(k)
        if len(k) != rank:
            raise BadParameters(f"support key {k} has wrong rank")
        if not isinstance(c, QLaurent):
            c = QLaurent({0: c})
        if not c.is_zero():
            out[k] = c
    return out


def pairing(p, q, datum: SphericalDatum) -> QLaurent:
    """Constant-term pairing [p, q] of two finitely supported elements.

    Computes the constant term of p * conj(q) * weight, where conj
    negates exponents and the weight carries both signs of every root
    and color factor.  That weight is Weyl invariant and both arguments
    are taken Weyl invariant, so after symmetrizing, the constant term
    equals |W| times the constant term against the one-sided kernel

        prod_{gamma > 0} (1 - e^{-gamma})
            / prod_{theta} (1 - sigma q^{-r} e^{-theta}),

    up to the overall scalar P_0, which cancels in every ratio and
    every vanishing statement.  The kernel is the basic asymptotics
    with every exponent negated: on that side each geometric ratio is a
    genuine series expansion, and strict convexity leaves finitely many
    contributions at each lattice point, so coefficients are exact.
    The expansion depth follows from the supports and the witness, so
    the value does not change under any further depth increase.
    Normalization: the factor |W| stays in place and P_0 is dropped;
    the orthogonality statements and coefficient ratios that the
    pairing exists to certify are insensitive to both choices.
    """
    rank = datum.rank
    tp = _poly_terms(p, rank)
    tq = _poly_terms(q, rank)
    if not tp or not tq:
        return QLaurent()

    witness = datum.cone_spec().witness
    reach = max(pair(witness, k) for k in tp) - min(pair(witness, k) for k in tq)
    kernel = _pairing_kernel(datum, max(0, int(reach)))
    total = QLaurent()
    for k1, c1 in tp.items():
        for k2, c2 in tq.items():
            kv = kernel.get(vsub(k1, k2))
            if kv is not None:
                total = total + c1 * c2 * kv
    return len(weyl_of(datum.dual_datum())) * total

