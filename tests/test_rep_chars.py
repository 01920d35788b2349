"""Weight multisets, the alternating denominator, dimension formulas."""

from __future__ import annotations

import pytest

from satake import (
    QLaurent,
    RootDatum,
    adjoint_a1_datum,
    b2_datum,
    gl_datum,
    lowest_weight_rep,
    sl2_datum,
    weyl_denominator,
    weyl_dimension,
)
from satake.errors import NotAntidominant
from satake.root_weyl import vadd


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
    from satake.root_weyl import mat_apply, weyl_of

    for datum, lowest in [
        (gl_datum(3), (-1, 0, 1)),
        (b2_datum(), (-2, -1)),
        (gl_datum(2), (0, 3)),
    ]:
        got = lowest_weight_rep(datum, lowest)
        for m, _ in weyl_of(datum):
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
    ],
)
def test_weyl_dimension(datum, lowest, dim):
    assert weyl_dimension(datum, lowest) == dim
    assert sum(lowest_weight_rep(datum, lowest).values()) == dim
