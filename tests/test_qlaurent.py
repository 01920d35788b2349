"""Coefficient ring tests: rendering, arithmetic, parsing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake import (
    ONE,
    ZERO,
    QLaurent,
    basic_asymptotics,
    inverse_satake_lfun,
    macdonald_p,
    parse_qlaurent,
    preset,
    qmonomial,
)
from satake.errors import FormatError


def random_qlaurent(rng: random.Random) -> QLaurent:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return QLaurent(terms)


# -- rendering ----------------------------------------------------------


def test_render_frozen_forms():
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert qmonomial(1).render() == "q"
    assert qmonomial(-1).render() == "q^-1"
    assert qmonomial(Fraction(-1, 2)).render() == "q^-1/2"
    assert qmonomial(Fraction(3, 2)).render() == "q^3/2"
    assert QLaurent({-2: 1, 0: 1}).render() == "q^-1 + 1"
    assert QLaurent({-3: 1, 0: 2, 2: -1}).render() == "q^-3/2 + 2 - q"
    assert QLaurent({-2: 2}).render() == "2*q^-1"
    assert QLaurent({0: Fraction(1, 2)}).render() == "1/2"
    assert QLaurent({0: 1, 2: -1}).render() == "1 - q"
    assert QLaurent({2: -1}).render() == "-q"
    assert QLaurent({4: Fraction(-3, 2)}).render() == "-3/2*q^2"


def test_render_ascending_exponent_order():
    p = QLaurent({4: 1, -4: 1, 0: 5})
    assert p.render() == "q^-2 + 5 + q^2"


def test_repr_matches_render():
    p = QLaurent({-2: 1, 0: 1})
    assert repr(p) == p.render()


# -- construction and equality ------------------------------------------


def test_zero_coefficients_dropped():
    assert QLaurent({3: 0, 1: Fraction(0)}) == ZERO
    assert QLaurent({1: 1, 2: 0}).terms == {1: Fraction(1)}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(TypeError):
        QLaurent({Fraction(1, 2): 1})
    with pytest.raises(TypeError):
        QLaurent({"q": 1})


def test_constructor_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        QLaurent({0: 0.5})


def test_immutable():
    p = qmonomial(1)
    with pytest.raises(AttributeError):
        p.terms_field = {}
    before = p.terms
    before[99] = Fraction(1)
    assert p.terms == {2: Fraction(1)}


def test_equality_and_coercion():
    assert QLaurent({0: 3}) == 3
    assert QLaurent({0: Fraction(1, 2)}) == Fraction(1, 2)
    assert ONE != qmonomial(1)
    assert hash(QLaurent({2: 1})) == hash(qmonomial(1))


def test_constant_value():
    assert ZERO.constant_value() == 0
    assert QLaurent({0: Fraction(7, 3)}).constant_value() == Fraction(7, 3)
    with pytest.raises(ValueError):
        qmonomial(1).constant_value()


def test_qmonomial_rejects_thirds():
    with pytest.raises(ValueError):
        qmonomial(Fraction(1, 3))


# -- ring structure -----------------------------------------------------


def test_ring_axioms_seeded_random():
    rng = random.Random(11)
    for _ in range(200):
        a = random_qlaurent(rng)
        b = random_qlaurent(rng)
        c = random_qlaurent(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a + (-a) == ZERO


# Coefficients mix plain ints with Fractions, whole ones among them.
COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
TERMS = st.dictionaries(st.integers(-6, 6), COEFFS, max_size=5)


def _ref(terms) -> dict[int, Fraction]:
    return {k: Fraction(c) for k, c in terms.items() if c != 0}


def _ref_add(a, b) -> dict[int, Fraction]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def _ref_mul(a, b) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


@settings(max_examples=200, deadline=None)
@given(TERMS, TERMS, TERMS)
def test_ring_axioms_mixed_int_and_fraction(ta, tb, tc):
    a, b, c = QLaurent(ta), QLaurent(tb), QLaurent(tc)
    ra, rb = _ref(ta), _ref(tb)
    assert (a + b).terms == _ref_add(ra, rb)
    assert (a * b).terms == _ref_mul(ra, rb)
    assert (a - b).terms == _ref_add(ra, {k: -x for k, x in rb.items()})
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a.invert_q().invert_q() == a
    assert a.invert_q().terms == {-k: x for k, x in ra.items()}


def test_whole_fraction_is_stored_as_int():
    p = QLaurent({0: Fraction(4, 2), 2: Fraction(-6, 3), 1: "3/1"})
    q = QLaurent({0: 2, 2: -2, 1: 3})
    assert p == q and hash(p) == hash(q) and p.render() == q.render()
    assert all(type(c) is int for c in p.terms.values())
    assert type(QLaurent({0: Fraction(1, 2)}).terms[0]) is Fraction
    assert type(QLaurent({0: Fraction(4, 2)}).constant_value()) is int
    assert type(ZERO.constant_value()) is int
    with pytest.raises(TypeError):
        QLaurent({0: 0.5})
    with pytest.raises(TypeError):
        QLaurent({0: 2.0})


def _coefficient_types(values) -> set[type]:
    return {type(c) for q in values for c in q.terms.values()}


def test_whole_results_keep_int_coefficients():
    # Every coefficient on these presets is whole, so none may be a Fraction.
    table = inverse_satake_lfun(preset("group", "gl3"), (0, 0, 1), 6)
    assert table.rows
    assert _coefficient_types(q for row in table.rows for q in row[1:]) == {int}
    series = basic_asymptotics(preset("sp2n_gl2n", 2), 6)
    assert _coefficient_types(series.terms.values()) == {int}
    poly = macdonald_p(preset("group", "b2"), (-1, -1))
    assert _coefficient_types(poly.terms.values()) == {int}


def test_integer_and_fraction_operands():
    p = qmonomial(-1)
    assert p + 1 == QLaurent({-2: 1, 0: 1})
    assert 1 + p == p + 1
    assert 2 * p == QLaurent({-2: 2})
    assert p - Fraction(1, 2) == QLaurent({-2: 1, 0: Fraction(-1, 2)})
    assert 1 - p == QLaurent({0: 1, -2: -1})


def test_pow():
    p = ONE + qmonomial(1)
    assert p ** 0 == ONE
    assert p ** 2 == QLaurent({0: 1, 2: 2, 4: 1})
    with pytest.raises(ValueError):
        p ** -1


def test_invert_q_involution_and_homomorphism():
    rng = random.Random(12)
    for _ in range(100):
        a = random_qlaurent(rng)
        b = random_qlaurent(rng)
        assert a.invert_q().invert_q() == a
        assert (a + b).invert_q() == a.invert_q() + b.invert_q()
        assert (a * b).invert_q() == a.invert_q() * b.invert_q()
    assert qmonomial(1).invert_q() == qmonomial(-1)
    assert qmonomial(Fraction(1, 2)).invert_q() == qmonomial(Fraction(-1, 2))


# -- parsing ------------------------------------------------------------


def test_parse_frozen_forms():
    assert parse_qlaurent("0") == ZERO
    assert parse_qlaurent("1") == ONE
    assert parse_qlaurent("q^-1 + 1") == QLaurent({-2: 1, 0: 1})
    assert parse_qlaurent("q^-3/2 + 2 - q") == QLaurent({-3: 1, 0: 2, 2: -1})
    assert parse_qlaurent("-q") == QLaurent({2: -1})
    assert parse_qlaurent("2*q^-1") == QLaurent({-2: 2})
    assert parse_qlaurent("-3/2*q^2") == QLaurent({4: Fraction(-3, 2)})
    assert parse_qlaurent("  1/2 ") == QLaurent({0: Fraction(1, 2)})


def test_parse_render_round_trip_seeded_random():
    rng = random.Random(13)
    for _ in range(300):
        p = random_qlaurent(rng)
        assert parse_qlaurent(p.render()) == p


def test_parse_rejects_garbage():
    for bad in ["", "   ", "q^1/3", "q**2", "2,3", "q^", "1 +", "x + 1"]:
        with pytest.raises(FormatError):
            parse_qlaurent(bad)
