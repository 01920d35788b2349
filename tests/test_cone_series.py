"""Truncated cone series: witnesses, convolution, truncation soundness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from satake import (
    ConeSeries,
    QLaurent,
    ONE,
    expand_product,
    geometric_inverse,
    lattice_points,
    make_spec,
    qmonomial,
    restrict_antidominant,
    series_equal,
    series_mul,
)
from satake.errors import (
    BadParameters,
    DirectionNotInCone,
    IncompatibleSpec,
    NotStrictlyConvex,
    OutOfBound,
)
from satake.root_weyl import pair, vadd


QUADRANT = make_spec([(1, 0), (0, 1)])
HALF_SUM = make_spec([(1, 0), (1, 1)])
RAY = make_spec([(1,)])


def brute_expand(numer, denom, spec, bound):
    """Reference expansion by plain dict convolution inside the slice."""
    zero = (0,) * spec.rank
    inside = set(lattice_points(spec, bound))
    acc = {zero: ONE}

    def mul(acc, poly):
        out = {}
        for k, c in acc.items():
            for k2, c2 in poly.items():
                k3 = vadd(k, k2)
                if k3 in inside:
                    prev = out.get(k3)
                    out[k3] = c * c2 if prev is None else prev + c * c2
        return {k: v for k, v in out.items() if not v.is_zero()}

    for c, d in numer:
        d = tuple(d)
        acc = mul(acc, {zero: ONE - c} if d == zero else {zero: ONE, d: -c})
    for c, d in denom:
        geo = {}
        pt, power = zero, ONE
        while pt in inside:
            geo[pt] = power
            pt, power = vadd(pt, tuple(d)), power * c
        acc = mul(acc, geo)
    return acc


# -- witnesses and specs -------------------------------------------------


def test_make_spec_witness_positive_on_generators():
    for gens in [[(1, 0), (0, 1)], [(1, -1), (0, 1)], [(2, 1), (1, 2)], [(1,)]]:
        xi = make_spec(gens).witness
        for g in gens:
            assert pair(xi, g) >= 1


def test_make_spec_rejects_lines():
    with pytest.raises(NotStrictlyConvex):
        make_spec([(1,), (-1,)])
    with pytest.raises(NotStrictlyConvex):
        make_spec([(1, 0), (-1, 0)])
    with pytest.raises(NotStrictlyConvex):
        make_spec([(1, 0), (0, 1), (-1, -1)])


def test_make_spec_empty_needs_rank():
    with pytest.raises(BadParameters):
        make_spec([])
    spec = make_spec([], rank=2)
    assert len(spec.witness) == 2 and spec.base_point == (0, 0)


def test_spec_contains_and_degree():
    assert QUADRANT.contains((3, 2))
    assert QUADRANT.contains((0, 0))
    assert not QUADRANT.contains((-1, 0))
    assert not HALF_SUM.contains((0, 1))
    assert HALF_SUM.contains((2, 1))
    assert QUADRANT.degree((2, 3)) == pair(QUADRANT.witness, (2, 3))


def test_make_spec_base_point():
    spec = make_spec([(1, 0), (0, 1)], base_point=(0, -1))
    assert spec.base_point == (0, -1)
    assert spec.degree((0, -1)) == 0


# -- series container ----------------------------------------------------


def test_series_coefficient_zero_inside_bound():
    s = ConeSeries(QUADRANT, 4, {(0, 0): ONE, (1, 1): qmonomial(-1)})
    assert s.coefficient((1, 1)) == qmonomial(-1)
    assert s.coefficient((2, 0)) == QLaurent()
    assert s.coefficient((0, 0)) == ONE


def test_series_coefficient_out_of_bound():
    s = ConeSeries(QUADRANT, 4, {(0, 0): ONE})
    with pytest.raises(OutOfBound):
        s.coefficient((5, 0))


def test_series_rejects_keys_outside_translate():
    with pytest.raises(DirectionNotInCone):
        ConeSeries(QUADRANT, 4, {(-1, 0): ONE})


def test_series_drops_keys_past_bound():
    s = ConeSeries(QUADRANT, 2, {(0, 0): ONE, (3, 3): ONE})
    assert s.support() == [(0, 0)]


def test_series_negative_bound():
    with pytest.raises(BadParameters):
        ConeSeries(QUADRANT, -1, {})


def test_series_serialize_is_sorted():
    s = ConeSeries(QUADRANT, 3, {(2, 0): ONE, (0, 1): qmonomial(1)})
    assert s.serialize() == "0,1\tq\n2,0\t1"


# -- multiplication ------------------------------------------------------


def test_series_mul_requires_same_witness():
    other = make_spec([(1, 1), (1, 2)])
    a = ConeSeries(QUADRANT, 3, {(0, 0): ONE})
    b = ConeSeries(other, 3, {(0, 0): ONE})
    if QUADRANT.witness != other.witness:
        with pytest.raises(IncompatibleSpec):
            series_mul(a, b)


def test_series_mul_truncates_to_smaller_bound():
    a = geometric_inverse(ONE, (1,), RAY, 5)
    b = geometric_inverse(ONE, (1,), RAY, 3)
    assert series_mul(a, b).bound == 3


def test_series_mul_matches_brute_convolution():
    rng = random.Random(31)
    for _ in range(25):
        bound = rng.randint(2, 5)
        terms_a = {}
        terms_b = {}
        for _ in range(rng.randint(1, 4)):
            k = (rng.randint(0, bound), rng.randint(0, bound))
            if QUADRANT.degree(k) <= bound:
                terms_a[k] = qmonomial(rng.randint(-2, 2)) * rng.randint(1, 3)
        for _ in range(rng.randint(1, 4)):
            k = (rng.randint(0, bound), rng.randint(0, bound))
            if QUADRANT.degree(k) <= bound:
                terms_b[k] = qmonomial(rng.randint(-2, 2)) * rng.randint(-3, 3)
        a = ConeSeries(QUADRANT, bound, terms_a)
        b = ConeSeries(QUADRANT, bound, terms_b)
        got = series_mul(a, b)
        want = {}
        for ka, ca in terms_a.items():
            for kb, cb in terms_b.items():
                k = vadd(ka, kb)
                if QUADRANT.degree(k) <= bound:
                    prev = want.get(k, QLaurent())
                    want[k] = prev + ca * cb
        want = {k: c for k, c in want.items() if not c.is_zero()}
        assert got.terms == want


# -- geometric expansion -------------------------------------------------


def test_geometric_inverse_ray():
    c = qmonomial(-1)
    s = geometric_inverse(c, (1,), RAY, 4)
    for i in range(5):
        assert s.coefficient((i,)) == c ** i


def test_geometric_inverse_needs_cone_direction():
    with pytest.raises(DirectionNotInCone):
        geometric_inverse(ONE, (-1,), RAY, 3)
    with pytest.raises(DirectionNotInCone):
        geometric_inverse(ONE, (0, 1), HALF_SUM, 3)


def test_expand_product_requires_origin_base():
    shifted = make_spec([(1, 0), (0, 1)], base_point=(1, 0))
    with pytest.raises(BadParameters):
        expand_product([], [(ONE, (1, 0))], shifted, 3)


def test_expand_product_constant_numerator_factor():
    s = expand_product([(qmonomial(-1), (0,))], [(ONE, (1,))], RAY, 3)
    want = ONE - qmonomial(-1)
    for i in range(4):
        assert s.coefficient((i,)) == want


def test_expand_product_matches_brute_force_seeded():
    rng = random.Random(32)
    spec_pool = [QUADRANT, HALF_SUM, RAY, make_spec([(2, 1), (1, 2)])]
    for _ in range(40):
        spec = spec_pool[rng.randrange(len(spec_pool))]
        gens = spec.generators
        bound = rng.randint(2, 5)

        def coeff():
            return qmonomial(rng.randint(-2, 2)) * Fraction(rng.randint(1, 3))

        def direction():
            g = gens[rng.randrange(len(gens))]
            scale = rng.randint(1, 2)
            return tuple(scale * x for x in g)

        numer = [(coeff(), direction()) for _ in range(rng.randint(0, 2))]
        denom = [(coeff(), direction()) for _ in range(rng.randint(1, 2))]
        got = expand_product(numer, denom, spec, bound)
        want = brute_expand(numer, denom, spec, bound + 5)
        for p in lattice_points(spec, bound):
            assert got.coefficient(p) == want.get(p, QLaurent())


# -- restriction and equality --------------------------------------------


def test_restrict_antidominant_drops_and_is_idempotent():
    roots = [(1, -1)]
    s = ConeSeries(QUADRANT, 3, {(0, 0): ONE, (1, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    r = restrict_antidominant(s, roots)
    assert r.support() == [(0, 0), (0, 1), (1, 1)]
    assert series_equal(restrict_antidominant(r, roots), r)


def test_series_equal_through_smaller_bound():
    a = geometric_inverse(ONE, (1,), RAY, 6)
    b = geometric_inverse(ONE, (1,), RAY, 3)
    assert series_equal(a, b)
    c = ConeSeries(RAY, 3, {(0,): ONE, (1,): ONE, (2,): ONE, (3,): qmonomial(1)})
    assert not series_equal(b, c)


# -- lattice slices ------------------------------------------------------


def test_lattice_points_quadrant():
    pts = lattice_points(QUADRANT, 2)
    degrees = {p: QUADRANT.degree(p) for p in pts}
    assert all(0 <= d <= 2 for d in degrees.values())
    assert (0, 0) in pts and pts == sorted(pts)


def test_lattice_points_respects_base_point():
    spec = make_spec([(1,)], base_point=(5,))
    assert lattice_points(spec, 2) == [(5,), (6,), (7,)]


def test_lattice_points_no_generators():
    spec = make_spec([], rank=2)
    assert lattice_points(spec, 4) == [(0, 0)]
