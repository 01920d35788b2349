"""The alternating partition-function formula and its series twin."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake import (
    LiDatum,
    QLaurent,
    ONE,
    li_coefficient,
    li_datum,
    li_equivalence_check,
    li_partition,
    preset,
    qmonomial,
)
from satake.errors import BadParameters, RhoInConeSpan
from satake.root_weyl import Vec, intify, pair, vneg, vsub
from weyl_matrices import mat_apply, matrix_weyl

GL2 = preset("group", "gl2")
GL3 = preset("group", "gl3")


def test_li_datum_shape():
    d = li_datum(GL2, (0, 1))
    assert d.rank == 2
    assert d.psi == (((0, 1), 1), ((1, -1), 1), ((1, 0), 1))
    assert d.rho_b == (Fraction(1, 2), Fraction(-1, 2))
    assert pair(d.det_functional, (1, -1)) == 0
    assert pair(d.det_functional, (0, 1)) == 1
    for v, _ in d.psi:
        assert pair(d.psi_witness, v) >= 1


def test_li_datum_gl3_members():
    d = li_datum(GL3, (0, 0, 1))
    members = dict(d.psi)
    assert members == {
        (0, 0, 1): 1,
        (0, 1, 0): 1,
        (1, 0, 0): 1,
        (0, 1, -1): 1,
        (1, -1, 0): 1,
        (1, 0, -1): 1,
    }


def test_li_datum_rejects_non_group_shapes():
    with pytest.raises(BadParameters):
        li_datum(preset("whittaker", "gl2"), (0, 1))
    with pytest.raises(BadParameters):
        li_datum(preset("sp2n_gl2n", 2), (0, 1))


def test_li_datum_rejects_spanned_rho():
    with pytest.raises(RhoInConeSpan):
        li_datum(GL2, (1, -1))


def test_partition_counts_gl2():
    d = li_datum(GL2, (0, 1))
    assert li_partition(d, (0, 0)) == ONE
    assert li_partition(d, (0, -1)) == qmonomial(1)
    assert li_partition(d, (-1, 0)) == qmonomial(1) + qmonomial(2)
    assert li_partition(d, (-1, -1)) == qmonomial(2) + qmonomial(3)
    assert li_partition(d, (1, 0)) == QLaurent()


def test_partition_counts_gl3():
    d = li_datum(GL3, (0, 0, 1))
    assert li_partition(d, (0, 0, 0)) == ONE
    assert li_partition(d, (0, 0, -2)) == qmonomial(2)
    assert li_partition(d, (-1, 0, 0)) == qmonomial(1) + 2 * qmonomial(2) + qmonomial(3)


def _bare_datum(psi, witness) -> LiDatum:
    """A LiDatum with only Psi and its witness: trivial Weyl group, zero rho."""
    rank = len(witness)
    return LiDatum(
        rank=rank,
        psi=psi,
        det_functional=(Fraction(1),) * rank,
        rho_b=(Fraction(0),) * rank,
        signed_shifts=(((0,) * rank, 1),),
        psi_witness=witness,
    )


DOUBLED = _bare_datum((((1,), 2),), (1,))


def test_partition_counts_repeated_member():
    for k in range(5):
        assert li_partition(DOUBLED, (-k,)) == (k + 1) * qmonomial(k)
        assert li_partition(DOUBLED, (-k,)) == _dfs_partition(DOUBLED, (-k,))


def test_partition_recursion_depth_does_not_grow_with_the_target():
    # one frame per member: a recursion per copy would need 3000 frames
    assert li_partition(DOUBLED, (-3000,)) == 3001 * qmonomial(3000)


def test_li_coefficient_hand_values():
    d = li_datum(GL2, (0, 1))
    assert li_coefficient(d, (0, 0)) == ONE
    assert li_coefficient(d, (1, 1)) == qmonomial(-1)
    assert li_coefficient(d, (0, 1)) == ONE
    assert li_coefficient(d, (-1, 0)) == QLaurent()
    assert li_coefficient(d, (0, -1)) == QLaurent()


def test_li_equivalence_gl2():
    d = li_datum(GL2, (0, 1))
    report = li_equivalence_check(d, GL2, (0, 1), 6)
    assert report.ok
    assert report.checked > 0
    assert "ok" in str(report)


@pytest.mark.parametrize(
    "group, rho, bound, checked",
    [
        ("gl3", (0, 0, 1), 10, 286),
        ("gl4", (0, 0, 0, 1), 5, 126),
        ("gl5", (0, 0, 0, 0, 1), 3, 56),
    ],
)
def test_li_equivalence_stretch(group, rho, bound, checked):
    datum = preset("group", group)
    report = li_equivalence_check(li_datum(datum, rho), datum, rho, bound)
    assert report.ok, str(report)
    assert report.checked == checked


def test_li_equivalence_corrupted_psi_fails():
    d = li_datum(GL2, (0, 1))
    wrong = replace(
        d,
        psi=(((0, 1), 1), ((1, -1), 2), ((1, 0), 1)),
        _partition_cache={},
    )
    report = li_equivalence_check(wrong, GL2, (0, 1), 6)
    assert not report.ok
    assert report.first_mismatch is not None
    assert "mismatch" in str(report)


def test_li_coefficient_matches_series_rows():
    from satake import (
        basic_asymptotics,
        extended_cone_spec,
        l_series,
        lattice_points,
        lowest_weight_rep,
        series_mul,
    )

    rho = (0, 1)
    d = li_datum(GL2, rho)
    spec = extended_cone_spec(GL2, rho)
    lser = l_series(GL2, lowest_weight_rep(GL2.dual_datum(), rho), rho, 5)
    product = series_mul(lser, basic_asymptotics_extended(GL2, spec, 5))
    for mu in lattice_points(spec, 5):
        assert li_coefficient(d, mu) == product.coefficient(mu)


def basic_asymptotics_extended(datum, spec, bound):
    from satake import expand_product

    numer = [(ONE, g) for g in datum.positive_coroots()]
    denom = [(s * qmonomial(-r), t) for t, s, r in datum.theta_plus]
    return expand_product(numer, denom, spec, bound)


# -- the depth-first oracle ---------------------------------------------------


def _dfs_partition(d: LiDatum, mu) -> QLaurent:
    """The partition count P_Psi(mu, q).

    Coefficient of q^k is the number of multiset decompositions of -mu
    into k members of Psi, found by depth-first enumeration bounded by
    the witness functional.  Zero whenever -mu leaves the nonnegative
    span of Psi.
    """
    mu = intify(mu)
    target = vneg(mu)
    budget = pair(d.psi_witness, target)
    counts: dict[int, int] = {}

    def walk(i: int, remaining: Vec, size: int, ways: int, left: Fraction) -> None:
        if left < 0:
            return
        if i == len(d.psi):
            if all(x == 0 for x in remaining):
                counts[size] = counts.get(size, 0) + ways
            return
        vec, mult = d.psi[i]
        step = pair(d.psi_witness, vec)
        k = 0
        rem = remaining
        lf = left
        while lf >= 0:
            walk(i + 1, rem, size + k, ways * math.comb(k + mult - 1, mult - 1), lf)
            k += 1
            rem = vsub(rem, vec)
            lf = left - k * step
        return

    if budget >= 0:
        walk(0, target, 0, 1, budget)
    return QLaurent({2 * k: Fraction(n) for k, n in counts.items()})


@pytest.mark.parametrize(
    "group, rho, bound",
    [
        ("gl2", (0, 1), 8),
        ("gl2", (1, 2), 8),
        ("gl3", (0, 0, 1), 5),
        ("gl3", (1, 1, 2), 5),
        ("gl4", (1, 1, 1, 2), 3),  # members of multiplicity > 1
    ],
)
def test_partition_matches_dfs_oracle(group, rho, bound):
    from satake import extended_cone_spec, lattice_points

    datum = preset("group", group)
    d = li_datum(datum, rho)
    # every argument li_coefficient passes to li_partition in the check
    args = {
        vsub(intify(vsub(d.rho_b, mat_apply(mat, d.rho_b))), mu)
        for mu in lattice_points(extended_cone_spec(datum, rho), bound)
        for mat, _ in matrix_weyl(datum.dual_datum())
    }
    for arg in sorted(args):
        assert li_partition(d, arg) == _dfs_partition(d, arg), arg


@pytest.mark.parametrize("group", ["gl2", "gl3", "gl4", "gl5"])
def test_signed_shifts_match_matrix_oracle(group):
    datum = preset("group", group)
    d = li_datum(datum, (0,) * (datum.rank - 1) + (1,))
    expected = [
        (intify(vsub(d.rho_b, mat_apply(mat, d.rho_b))), (-1) ** length)
        for mat, length in matrix_weyl(datum.dual_datum())
    ]
    assert sorted(d.signed_shifts) == sorted(expected)


RANK = st.shared(st.integers(1, 3), key="rank")


@st.composite
def _positive_members(draw):
    """Distinct members, each pairing >= 1 with the witness (1, ..., 1)."""
    rank = draw(RANK)
    vec = st.lists(st.integers(-2, 3), min_size=rank, max_size=rank).map(tuple)
    vecs = draw(st.sets(vec.filter(lambda v: sum(v) >= 1), min_size=1, max_size=4))
    return tuple((v, draw(st.integers(1, 3))) for v in sorted(vecs))


@settings(max_examples=150, deadline=None)
@given(
    psi=_positive_members(),
    targets=RANK.flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 2), min_size=n, max_size=n).map(tuple),
            min_size=1,
            max_size=5,
        )
    ),
)
def test_partition_matches_dfs_oracle_on_random_psi(psi, targets):
    d = _bare_datum(psi, (1,) * len(psi[0][0]))
    for mu in targets:
        assert li_partition(d, mu) == _dfs_partition(d, mu)
