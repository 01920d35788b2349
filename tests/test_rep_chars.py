"""Weight multisets, the alternating denominator, dimension formulas."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest

from satake import (
    QLaurent,
    RootDatum,
    adjoint_a1_datum,
    antidominant_weights,
    b2_datum,
    gl_datum,
    lowest_weight_rep,
    sl2_datum,
    stock_datum,
    weyl_denominator,
    weyl_dimension,
)
from satake.cli import main
from satake.errors import MathError, NotAntidominant, NotPolynomial
from satake.root_weyl import (
    ReflectionDatum,
    dominant_image,
    intify,
    pair,
    vadd,
    vsub,
)
from weyl_matrices import mat_apply, matrix_weyl


def denominator_product(datum):
    """Reference product of (1 - e^coroot) over the positive coroots."""
    acc = {(0,) * datum.rank: 1}
    for d in datum.positive:
        out = {}
        for k, c in acc.items():
            out[k] = out.get(k, 0) + c
            shifted = vadd(k, d.coroot)
            out[shifted] = out.get(shifted, 0) - c
        acc = {k: c for k, c in out.items() if c}
    return {k: QLaurent({0: c}) for k, c in acc.items()}


# -- weight multisets ----------------------------------------------------


def test_gl2_standard():
    assert lowest_weight_rep(gl_datum(2), (0, 1)) == {(0, 1): 1, (1, 0): 1}


def test_gl2_symmetric_square():
    got = lowest_weight_rep(gl_datum(2), (0, 2))
    assert got == {(0, 2): 1, (1, 1): 1, (2, 0): 1}


def test_gl3_standard():
    got = lowest_weight_rep(gl_datum(3), (0, 0, 1))
    assert got == {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}


def test_gl3_adjoint_zero_weight_multiplicity():
    got = lowest_weight_rep(gl_datum(3), (-1, 0, 1))
    assert got[(0, 0, 0)] == 2
    assert sum(got.values()) == 8
    for coroot in gl_datum(3).positive_coroots():
        assert got[coroot] == 1
        assert got[tuple(-x for x in coroot)] == 1


def test_rank_one_strings():
    assert lowest_weight_rep(adjoint_a1_datum(), (-2,)) == {(-2,): 1, (0,): 1, (2,): 1}
    assert lowest_weight_rep(sl2_datum(), (-3,)) == {
        (k,): 1 for k in range(-3, 4)
    }


def test_b2_small_representations():
    spin = lowest_weight_rep(b2_datum(), (-1, 0))
    assert sum(spin.values()) == 4
    vector = lowest_weight_rep(b2_datum(), (-1, -1))
    assert sum(vector.values()) == 5
    assert vector[(0, 0)] == 1


def test_b2_adjoint():
    adj = lowest_weight_rep(b2_datum(), (-2, 0))
    assert sum(adj.values()) == 10
    assert adj[(0, 0)] == 2


def test_central_character_shift():
    base = lowest_weight_rep(gl_datum(2), (0, 1))
    shifted = lowest_weight_rep(gl_datum(2), (1, 2))
    assert shifted == {vadd(k, (1, 1)): m for k, m in base.items()}


def test_rejects_non_antidominant():
    with pytest.raises(NotAntidominant):
        lowest_weight_rep(gl_datum(2), (1, 0))
    with pytest.raises(NotAntidominant):
        lowest_weight_rep(b2_datum(), (0, 1))


def test_no_roots_datum():
    empty = RootDatum(2, ())
    assert lowest_weight_rep(empty, (3, -4)) == {(3, -4): 1}


def test_weight_multiset_is_weyl_stable():
    for datum, lowest in [
        (gl_datum(3), (-1, 0, 1)),
        (b2_datum(), (-2, -1)),
        (gl_datum(2), (0, 3)),
    ]:
        got = lowest_weight_rep(datum, lowest)
        for m, _ in matrix_weyl(datum):
            assert {tuple(mat_apply(m, k)): c for k, c in got.items()} == got


# -- denominator identity -------------------------------------------------


@pytest.mark.parametrize(
    "datum",
    [sl2_datum(), adjoint_a1_datum(), gl_datum(2), gl_datum(3), b2_datum(), RootDatum(2, ())],
)
def test_weyl_denominator_matches_product(datum):
    assert weyl_denominator(datum) == denominator_product(datum)


# -- dimension formula -----------------------------------------------------


@pytest.mark.parametrize(
    "datum,lowest,dim",
    [
        (gl_datum(2), (0, 1), 2),
        (gl_datum(2), (0, 2), 3),
        (gl_datum(3), (0, 0, 1), 3),
        (gl_datum(3), (-1, 0, 1), 8),
        (gl_datum(3), (0, 1, 1), 3),
        (b2_datum(), (-1, 0), 4),
        (b2_datum(), (-1, -1), 5),
        (b2_datum(), (-2, 0), 10),
        (b2_datum(), (-2, -1), 16),
        (sl2_datum(), (-4,), 9),
        (sl2_datum(), (-2,), 5),
        (gl_datum(2), (1, 1), 1),
    ],
)
def test_weyl_dimension(datum, lowest, dim):
    assert weyl_dimension(datum, lowest) == dim
    assert sum(lowest_weight_rep(datum, lowest).values()) == dim


def test_weyl_dimension_rejects_invalid_data():
    # root 1/2 against coroot 4: at -1 the product is <1/2, 1 + 2> / <1/2, 2> = 3/2
    half_root = RootDatum(1, (ReflectionDatum((Fraction(1, 2),), (4,)),))
    with pytest.raises(MathError):
        weyl_dimension(half_root, (-1,))
    with pytest.raises(NotPolynomial):
        lowest_weight_rep(half_root, (-1,))
    assert weyl_dimension(half_root, (-2,)) == 2
    assert lowest_weight_rep(half_root, (-2,)) == {(-2,): 1, (2,): 1}
    # b2 without e1: rho = (1, 1) walks to the antidominant chamber in three
    # steps, but <e1 - e2, rho> = 0 puts a zero in the denominator
    b, e1 = b2_datum(), (Fraction(1), Fraction(0))
    without_e1 = RootDatum(2, tuple(d for d in b.positive if d.root != e1))
    with pytest.raises(MathError):
        weyl_dimension(without_e1, (-1, -1))
    # an infinite (hyperbolic) Weyl group: no longest element
    hyperbolic = RootDatum(
        2, (ReflectionDatum((2, -3), (1, 0)), ReflectionDatum((-3, 2), (0, 1)))
    )
    with pytest.raises(MathError):
        weyl_dimension(hyperbolic, (1, 1))
    with pytest.raises(MathError):
        lowest_weight_rep(hyperbolic, (1, 1))


# -- the Freudenthal oracle --------------------------------------------------


@functools.cache
def _invariant_form(datum: RootDatum) -> tuple[tuple[Fraction, ...], ...]:
    """A Weyl-invariant positive form: the group average of the dot product."""
    n = datum.rank
    weyl = matrix_weyl(datum)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for m, _ in weyl:
        for i in range(n):
            for j in range(n):
                gram[i][j] += sum(Fraction(m[k][i]) * m[k][j] for k in range(n))
    return tuple(tuple(row) for row in gram)


def _bform(gram, u, v) -> Fraction:
    n = len(gram)
    return sum(
        (Fraction(u[i]) * gram[i][j] * Fraction(v[j]) for i in range(n) for j in range(n)),
        Fraction(0),
    )


def _simple_coroot_coords(datum: RootDatum, v) -> tuple[Fraction, ...] | None:
    from satake.linalg import expand_in_basis

    simples = [d.coroot for d in datum.simples()]
    return expand_in_basis(simples, v)


def _freudenthal_rep(datum: RootDatum, lowest):
    """Weight multiset of the irreducible with the given lowest weight.

    Multiplicities come from Freudenthal's recursion on the dominant
    cone, then spread over Weyl orbits.  The reference for the Demazure
    character formula of `lowest_weight_rep`.
    """
    lowest = intify(lowest)
    if not all(pair(d.root, lowest) <= 0 for d in datum.positive):
        raise NotAntidominant(f"{lowest} is not antidominant")
    if not datum.positive:
        return {lowest: 1}
    weyl = matrix_weyl(datum)
    gram = _invariant_form(datum)
    simples = datum.simples()
    simple_coroots = [d.coroot for d in simples]
    top = intify(dominant_image(datum, lowest))
    box = _simple_coroot_coords(datum, vsub(top, lowest))
    assert box is not None, "dominant image must differ by coroot steps"
    box_int = []
    for c in box:
        assert c.denominator == 1 and c >= 0
        box_int.append(int(c))

    # Dominant candidates top - sum(c_i * simple_coroot_i) inside the box.
    dominant = []
    for cs in itertools.product(*(range(m + 1) for m in box_int)):
        mu = top
        for c, delta in zip(cs, simple_coroots):
            mu = vsub(mu, tuple(c * x for x in delta))
        if all(pair(d.root, mu) >= 0 for d in datum.positive):
            dominant.append(mu)
    height = datum.height_functional()
    dominant.sort(key=lambda mu: (pair(height, vsub(top, mu)), mu))

    rho = datum.rho_check()
    top_shift = tuple(Fraction(x) + r for x, r in zip(top, rho))
    top_norm = _bform(gram, top_shift, top_shift)
    mults = {}
    for mu in dominant:
        if mu == top:
            mults[mu] = 1
            continue
        num = Fraction(0)
        for d in datum.positive:
            gamma = d.coroot
            k = 1
            while True:
                nu = vadd(mu, tuple(k * x for x in gamma))
                coords = _simple_coroot_coords(datum, vsub(top, nu))
                if coords is None or any(c < 0 for c in coords):
                    break
                m_nu = mults.get(intify(dominant_image(datum, nu)), 0)
                if m_nu:
                    num += 2 * m_nu * _bform(gram, nu, gamma)
                k += 1
        mu_shift = tuple(Fraction(x) + r for x, r in zip(mu, rho))
        den = top_norm - _bform(gram, mu_shift, mu_shift)
        assert den > 0
        m = num / den
        assert m.denominator == 1 and m >= 0
        if m:
            mults[mu] = int(m)

    out = {}
    for mu, m in mults.items():
        for w in {mat_apply(mat, mu) for mat, _ in weyl}:
            out[intify(w)] = m
    return out


# (stock datum, degree of the antidominant weights drawn)
ORACLE_DATA = [
    ("gl1", 3), ("gl2", 4), ("gl3", 3), ("gl4", 2), ("gl5", 1), ("gl6", 1),
    ("sl2", 6), ("b2", 3),
]


@pytest.mark.parametrize("name,degree", ORACLE_DATA)
def test_lowest_weight_rep_matches_freudenthal(name, degree):
    datum = stock_datum(name)
    for lowest in antidominant_weights(datum, degree):
        got = lowest_weight_rep(datum, lowest)
        assert got == _freudenthal_rep(datum, lowest), lowest
        assert sum(got.values()) == weyl_dimension(datum, lowest), lowest


def test_lowest_weight_rep_matches_freudenthal_in_a_moved_basis():
    g, g_inv = ((2, 1), (1, 1)), ((1, -1), (-1, 2))
    base = b2_datum()

    def functional(f):
        return tuple(sum(f[i] * g_inv[i][j] for i in range(2)) for j in range(2))

    moved = RootDatum(
        2, tuple(ReflectionDatum(functional(d.root), mat_apply(g, d.coroot)) for d in base.positive)
    )
    for lowest in antidominant_weights(base, 3):
        got = lowest_weight_rep(moved, mat_apply(g, lowest))
        assert got == _freudenthal_rep(moved, mat_apply(g, lowest)), lowest
        assert got == {mat_apply(g, k): m for k, m in lowest_weight_rep(base, lowest).items()}


def test_char_at_rank_nine_enumerates_no_weyl_group(capsys):
    assert main(["char", "--preset", "group:gl9", "--rep", "sym2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 45
    assert all(line.endswith("\t1") for line in lines)
