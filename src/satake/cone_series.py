"""Truncated formal series supported on translates of strictly convex cones.

A ConeSpec fixes the ambient combinatorics: generators of a strictly
convex rational cone, an integer witness functional taking value at
least 1 on every generator, and a base point for the support translate.
A ConeSeries stores finitely many exact coefficients for keys lying in
base + cone with witness degree between 0 and the truncation bound N;
the series is correct through degree N and silent beyond it.

Multiplication, geometric inversion of (1 - c e^v) factors, and finite
product expansion all preserve that contract: the result of any
operation at bound N agrees with the untruncated product through
degree N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    BadParameters,
    DirectionNotInCone,
    IncompatibleSpec,
    NotStrictlyConvex,
    OutOfBound,
)
from .linalg import cone_facets, find_witness, in_cone
from .qlaurent import ONE, QLaurent
from .root_weyl import Vec, intify, pair, vadd, vsub

__all__ = [
    "ConeSpec",
    "ConeSeries",
    "make_spec",
    "series_mul",
    "geometric_inverse",
    "expand_product",
    "restrict_antidominant",
    "series_equal",
    "lattice_points",
]


@dataclass(frozen=True)
class ConeSpec:
    """Cone generators, witness functional, and support base point."""

    generators: tuple[Vec, ...]
    witness: tuple[int, ...]
    base_point: Vec

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(intify(g) for g in self.generators))
        object.__setattr__(self, "witness", intify(self.witness))
        object.__setattr__(self, "base_point", intify(self.base_point))
        for g in self.generators:
            if pair(self.witness, g) < 1:
                raise NotStrictlyConvex(
                    f"witness {self.witness} takes value < 1 on generator {g}"
                )

    @property
    def rank(self) -> int:
        return len(self.base_point)

    def facets(self) -> tuple[tuple[int, ...], ...]:
        return _facets(self.generators, self.rank)

    def contains(self, v) -> bool:
        """Membership of v in the cone itself (not the translate)."""
        return in_cone(self.facets(), intify(v))

    def degree(self, key) -> int:
        return pair(self.witness, vsub(key, self.base_point))


@functools.cache
def _facets(generators: tuple[Vec, ...], rank: int) -> tuple[tuple[int, ...], ...]:
    return cone_facets(generators, rank)


def make_spec(generators, rank: int | None = None, base_point=None) -> ConeSpec:
    """Build a ConeSpec, deriving the witness from the generators.

    The witness is an integer functional with value >= 1 on every
    generator, found by exact Fourier-Motzkin elimination and
    deterministic in the generator order.  Raises NotStrictlyConvex
    when the cone contains a line.
    """
    gens = tuple(intify(g) for g in generators)
    if rank is None:
        if not gens:
            raise BadParameters("rank required for an empty generator list")
        rank = len(gens[0])
    if base_point is None:
        base_point = (0,) * rank
    return ConeSpec(gens, find_witness(gens, rank), intify(base_point))


class ConeSeries:
    """Finitely many exact coefficients on a cone translate, bound N.

    Keys beyond the bound are silently dropped (the series stays correct
    through degree N); keys outside the cone translate or of negative
    degree are rejected, since those would corrupt low-order terms.
    """

    __slots__ = ("spec", "bound", "_terms")

    def __init__(self, spec: ConeSpec, bound: int, terms, *, _checked: bool = False):
        if bound < 0:
            raise BadParameters("truncation bound must be >= 0")
        self.spec = spec
        self.bound = bound
        clean: dict[Vec, QLaurent] = {}
        for k, c in terms.items():
            if not isinstance(c, QLaurent):
                c = QLaurent({0: c})
            if c.is_zero():
                continue
            k = intify(k)
            if not _checked:
                d = spec.degree(k)
                if d > bound:
                    continue
                if d < 0 or not spec.contains(vsub(k, spec.base_point)):
                    raise DirectionNotInCone(
                        f"key {k} outside the cone translate at {spec.base_point}"
                    )
            clean[k] = c
        self._terms = clean

    def get(self, key, default=None):
        """Stored coefficient at a key without bound bookkeeping."""
        return self._terms.get(key, default)

    @property
    def terms(self) -> dict[Vec, QLaurent]:
        return dict(self._terms)

    def support(self) -> list[Vec]:
        return sorted(self._terms)

    def coefficient(self, key) -> QLaurent:
        """Exact coefficient at key; OutOfBound past the truncation."""
        key = intify(key)
        if self.spec.degree(key) > self.bound:
            raise OutOfBound(
                f"coefficient at {key} lies beyond truncation bound {self.bound}"
            )
        return self._terms.get(key, QLaurent())

    def serialize(self) -> str:
        """One row per key, lexicographic order: coords TAB coefficient."""
        lines = []
        for k in sorted(self._terms):
            coords = ",".join(str(x) for x in k)
            lines.append(f"{coords}\t{self._terms[k].render()}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<ConeSeries bound={self.bound} terms={len(self._terms)}>"


def series_mul(a: ConeSeries, b: ConeSeries) -> ConeSeries:
    """Product of two series; correct through the smaller bound.

    The specs must share a witness; base points add and generator sets
    union.  Keys of the product are sums of valid keys, so membership
    holds by construction.
    """
    if a.spec.witness != b.spec.witness or a.spec.rank != b.spec.rank:
        raise IncompatibleSpec(
            f"witness mismatch: {a.spec.witness} vs {b.spec.witness}"
        )
    gens = tuple(sorted(set(a.spec.generators) | set(b.spec.generators)))
    spec = ConeSpec(gens, a.spec.witness, vadd(a.spec.base_point, b.spec.base_point))
    bound = min(a.bound, b.bound)
    deg_a = {k: a.spec.degree(k) for k in a._terms}
    deg_b = {k: b.spec.degree(k) for k in b._terms}
    out: dict[Vec, QLaurent] = {}
    for ka, ca in a._terms.items():
        da = deg_a[ka]
        for kb, cb in b._terms.items():
            if da + deg_b[kb] > bound:
                continue
            k = vadd(ka, kb)
            acc = out.get(k)
            out[k] = ca * cb if acc is None else acc + ca * cb
    return ConeSeries(spec, bound, out, _checked=True)


def geometric_inverse(coefficient: QLaurent, direction, spec: ConeSpec, bound: int) -> ConeSeries:
    """The expansion of 1/(1 - c e^direction) through degree `bound`.

    The direction must point into the cone with witness value >= 1; the
    result is based at the origin regardless of spec.base_point.
    """
    direction = intify(direction)
    spec0 = replace(spec, base_point=(0,) * spec.rank)
    step = pair(spec.witness, direction)
    if step < 1 or not spec.contains(direction):
        raise DirectionNotInCone(
            f"direction {direction} does not point into the cone (witness value {step})"
        )
    terms: dict[Vec, QLaurent] = {}
    power = ONE
    key = (0,) * spec.rank
    d = 0
    while d <= bound:
        terms[key] = power
        power = power * coefficient
        key = vadd(key, direction)
        d += step
    return ConeSeries(spec0, bound, terms, _checked=True)


def expand_product(numerator_factors, denominator_factors, spec: ConeSpec, bound: int) -> ConeSeries:
    """Expand prod(1 - c e^v) / prod(1 - c' e^w) through degree `bound`.

    Factors are (coefficient, direction) pairs; every direction must
    point into the cone.  The spec must be based at the origin.
    """
    if any(x != 0 for x in spec.base_point):
        raise BadParameters("expand_product expects an origin-based spec")
    zero = (0,) * spec.rank
    acc = ConeSeries(spec, bound, {zero: ONE}, _checked=True)
    for coeff, direction in numerator_factors:
        direction = intify(direction)
        if direction == zero:
            factor = ConeSeries(spec, bound, {zero: ONE - coeff}, _checked=True)
        else:
            if not spec.contains(direction):
                raise DirectionNotInCone(
                    f"numerator direction {direction} outside the cone"
                )
            factor = ConeSeries(spec, bound, {zero: ONE, direction: -coeff})
        acc = series_mul(acc, factor)
    for coeff, direction in denominator_factors:
        acc = series_mul(acc, geometric_inverse(coeff, direction, spec, bound))
    return acc


def restrict_antidominant(series: ConeSeries, positive_roots) -> ConeSeries:
    """Drop every key that is not antidominant for the given roots."""
    kept = {
        k: c
        for k, c in series.terms.items()
        if all(pair(alpha, k) <= 0 for alpha in positive_roots)
    }
    return ConeSeries(series.spec, series.bound, kept, _checked=True)


def series_equal(a: ConeSeries, b: ConeSeries) -> bool:
    """Coefficientwise equality through the smaller of the two bounds."""
    bound = min(a.bound, b.bound)
    keys = set(a._terms) | set(b._terms)
    for k in keys:
        da = a.spec.degree(k)
        if da > bound:
            continue
        if a._terms.get(k, QLaurent()) != b._terms.get(k, QLaurent()):
            return False
    return True


def lattice_points(spec: ConeSpec, bound: int) -> list[Vec]:
    """All lattice points of the cone translate with degree <= bound.

    The slice is the convex hull of the base point and the scaled
    generators, so a coordinate box around those vertices contains it.
    """
    base = spec.base_point
    if not spec.generators:
        return [base]
    vertices = [tuple(Fraction(0) for _ in range(spec.rank))]
    for g in spec.generators:
        s = Fraction(bound, int(pair(spec.witness, g)))
        vertices.append(tuple(s * x for x in g))
    lo = [min(v[i] for v in vertices) for i in range(spec.rank)]
    hi = [max(v[i] for v in vertices) for i in range(spec.rank)]
    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    facets = spec.facets()
    out = []
    for c in itertools.product(*ranges):
        if not in_cone(facets, c):
            continue
        if pair(spec.witness, c) > bound:
            continue
        out.append(vadd(base, c))
    return sorted(out)
