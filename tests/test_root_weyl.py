"""Root data, reflections, Weyl groups, antidominant enumeration."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from satake import (
    RootDatum,
    ReflectionDatum,
    adjoint_a1_datum,
    antidominant_weights,
    b2_datum,
    dominant_image,
    enumerate_weyl,
    gl_datum,
    is_antidominant,
    sl2_datum,
    stock_datum,
    weyl_of,
)
from satake.errors import GroupTooLarge, MathError
from satake.rep_chars import _alternant
from satake.root_weyl import intify, pair, reflect, vadd, vscale, vsub
from weyl_matrices import brute_closure, mat_apply, matrix_weyl, reflection_matrix


# -- reflections --------------------------------------------------------


def test_reflect_gl2_simple():
    d = gl_datum(2).positive[0]
    assert reflect(d, (1, 0)) == (0, 1)
    assert reflect(d, (0, 1)) == (1, 0)
    assert reflect(d, (1, 1)) == (1, 1)


def test_reflection_is_involution():
    rng = random.Random(21)
    for datum in [gl_datum(3), b2_datum()]:
        for d in datum.positive:
            for _ in range(10):
                v = tuple(rng.randint(-4, 4) for _ in range(datum.rank))
                assert reflect(d, reflect(d, v)) == v


def test_reflection_matrix_agrees_with_reflect():
    for datum in [gl_datum(3), b2_datum(), sl2_datum()]:
        for d in datum.positive:
            m = reflection_matrix(d)
            for i in range(datum.rank):
                e = tuple(1 if j == i else 0 for j in range(datum.rank))
                assert mat_apply(m, e) == reflect(d, e)


def test_reflection_datum_validates_pairing():
    with pytest.raises(ValueError):
        ReflectionDatum((Fraction(1), Fraction(0)), (1, -1))


# -- Weyl groups --------------------------------------------------------


@pytest.mark.parametrize(
    "datum,order,top_length",
    [
        (sl2_datum(), 2, 1),
        (adjoint_a1_datum(), 2, 1),
        (gl_datum(2), 2, 1),
        (gl_datum(3), 6, 3),
        (gl_datum(4), 24, 6),
        (b2_datum(), 8, 4),
    ],
)
def test_weyl_order_and_longest_element(datum, order, top_length):
    lengths = [length for _, length in weyl_of(datum)]
    assert len(lengths) == order
    assert max(lengths) == top_length
    assert lengths[0] == 0


@pytest.mark.parametrize("datum", [gl_datum(3), gl_datum(4), b2_datum()])
def test_weyl_matches_brute_closure(datum):
    rho = datum.rho_check()
    closure = brute_closure(datum.simples())
    assert {v for v, _ in weyl_of(datum)} == {mat_apply(m, rho) for m in closure}
    assert len(weyl_of(datum)) == len(closure)


def test_weyl_signs_follow_length_parity():
    # the sign (-1)^l(w) is det w, and w is the matrix taking rho to w rho
    rho = gl_datum(3).rho_check()
    det = {mat_apply(m, rho): _det3(m) for m, _ in matrix_weyl(gl_datum(3))}
    for v, length in weyl_of(gl_datum(3)):
        assert det[v] == (-1) ** length


def _det3(m) -> int:
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        * m[0][p[0]] * m[1][p[1]] * m[2][p[2]]
        for p in itertools.permutations(range(3))
    )


def test_enumerate_weyl_cap():
    datum = gl_datum(4)
    with pytest.raises(GroupTooLarge):
        enumerate_weyl(datum, datum.rho_check(), cap=10)


def test_infinite_group_is_caught():
    # rho_check = (1/2, 1/2) is strictly antidominant here; the orbit's third
    # layer is already deeper than the two positive roots allow.
    hyperbolic = RootDatum(2, (
        ReflectionDatum((Fraction(2), Fraction(-3)), (1, 0)),
        ReflectionDatum((Fraction(-3), Fraction(2)), (0, 1)),
    ))
    with pytest.raises(MathError, match="finite Weyl group") as caught:
        enumerate_weyl(hyperbolic, hyperbolic.rho_check())
    assert caught.type is MathError


def test_enumerate_weyl_rejects_a_singular_vector():
    datum = b2_datum()
    for v in [(1, 1), (0, 0), (1, -1), (2, 0)]:
        with pytest.raises(MathError, match="strictly"):
            enumerate_weyl(datum, v)
    assert len(enumerate_weyl(datum, (-2, -1))) == 8


def _moved_b2() -> RootDatum:
    g, g_inv = ((2, 1), (1, 1)), ((1, -1), (-1, 2))

    def functional(f):
        return tuple(sum(f[i] * g_inv[i][j] for i in range(2)) for j in range(2))

    return RootDatum(2, tuple(
        ReflectionDatum(functional(d.root), mat_apply(g, d.coroot)) for d in b2_datum().positive
    ))


ORBIT_DATA = {
    **{f"gl{n}": gl_datum(n) for n in range(1, 7)},
    "sl2": sl2_datum(),
    "adjoint-a1": adjoint_a1_datum(),
    "b2": b2_datum(),
    "b2-moved": _moved_b2(),
    "rootless": RootDatum(2, ()),
    "half-root": RootDatum(1, (ReflectionDatum((Fraction(1, 2),), (4,)),)),
}


def _matrix_alternant(datum, lam):
    """sum_w sign(w) e^(w(lam - rho) + rho) over the matrix group, in doubled ints."""
    two_rho = intify(vscale(2, datum.rho_check()))
    doubled = vsub(vscale(2, lam), two_rho)
    out = {}
    for m, length in matrix_weyl(datum):
        key = intify(vscale(Fraction(1, 2), vadd(mat_apply(m, doubled), two_rho)))
        out[key] = out.get(key, 0) + (-1) ** length
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("datum", ORBIT_DATA.values(), ids=ORBIT_DATA.keys())
def test_orbit_matches_matrix_oracle(datum):
    orbit = weyl_of(datum)
    group = matrix_weyl(datum)
    rho = datum.rho_check()
    assert len(orbit) == len(group)
    assert sorted(length for _, length in orbit) == sorted(length for _, length in group)
    assert dict(orbit) == {mat_apply(m, rho): length for m, length in group}
    shifts = sorted((intify(vsub(rho, v)), (-1) ** length) for v, length in orbit)
    assert shifts == sorted(
        (intify(vsub(rho, mat_apply(m, rho))), (-1) ** length) for m, length in group
    )
    for lam in antidominant_weights(datum, 2):
        got = {k: c.constant_value() for k, c in _alternant(datum, lam).items()}
        assert got == _matrix_alternant(datum, lam), lam


# -- datum structure ----------------------------------------------------


def test_gl3_simples():
    simples = gl_datum(3).simples()
    assert tuple(d.coroot for d in simples) == ((1, -1, 0), (0, 1, -1))


def test_b2_simples():
    simples = b2_datum().simples()
    assert tuple(d.coroot for d in simples) == ((1, -1), (0, 2))


def test_rho_values():
    assert gl_datum(2).rho_check() == (Fraction(1, 2), Fraction(-1, 2))
    assert gl_datum(2).rho_roots() == (Fraction(1, 2), Fraction(-1, 2))
    assert gl_datum(3).rho_check() == (1, 0, -1)
    assert b2_datum().rho_check() == (2, 1)
    assert b2_datum().rho_roots() == (Fraction(3, 2), Fraction(1, 2))


def test_height_functional():
    h = gl_datum(3).height_functional()
    for d in gl_datum(3).simples():
        assert pair(h, d.coroot) == 1


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        RootDatum(3, gl_datum(2).positive)


def test_stock_datum_lookup():
    assert stock_datum("gl2") == gl_datum(2)
    assert stock_datum("GL3") == gl_datum(3)
    assert stock_datum("gl7").rank == 7
    assert stock_datum("b2") == b2_datum()
    with pytest.raises(KeyError):
        stock_datum("e8")
    with pytest.raises(ValueError):
        gl_datum(0)


# -- dominance ----------------------------------------------------------


def test_dominant_image_gl2():
    datum = gl_datum(2)
    assert dominant_image(datum, (0, 1)) == (1, 0)
    assert dominant_image(datum, (1, 0)) == (1, 0)


def test_dominant_image_lands_in_orbit_and_cone():
    rng = random.Random(22)
    for datum in [gl_datum(3), b2_datum()]:
        w = matrix_weyl(datum)
        for _ in range(25):
            v = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
            img = dominant_image(datum, v)
            assert all(pair(d.root, img) >= 0 for d in datum.positive)
            orbit = {tuple(mat_apply(m, v)) for m, _ in w}
            assert tuple(img) in orbit


def test_is_antidominant():
    roots = gl_datum(2).positive_roots()
    assert is_antidominant((0, 1), roots)
    assert is_antidominant((1, 1), roots)
    assert not is_antidominant((1, 0), roots)


# -- bounded antidominant enumeration ------------------------------------


def test_antidominant_weights_counts():
    assert len(antidominant_weights(gl_datum(2), 4)) == 25
    assert len(antidominant_weights(gl_datum(3), 4)) == 55


def test_antidominant_weights_all_antidominant_and_sorted():
    for datum in [gl_datum(2), gl_datum(3), b2_datum()]:
        ws = antidominant_weights(datum, 3)
        assert ws == sorted(set(ws))
        roots = datum.positive_roots()
        assert all(is_antidominant(w, roots) for w in ws)


def test_antidominant_weights_rank_one():
    assert antidominant_weights(sl2_datum(), 3) == [(-3,), (-2,), (-1,), (0,)]
    assert antidominant_weights(adjoint_a1_datum(), 2) == [(-2,), (-1,), (0,)]


def test_antidominant_weights_b2():
    assert antidominant_weights(b2_datum(), 2) == [
        (-2, -2),
        (-2, -1),
        (-2, 0),
        (-1, -1),
        (-1, 0),
        (0, 0),
    ]


def test_antidominant_weights_central_directions():
    ws = antidominant_weights(gl_datum(2), 1)
    assert (1, 1) in ws and (-1, -1) in ws and (-1, 0) in ws and (0, 0) in ws
    assert len(ws) == 4
