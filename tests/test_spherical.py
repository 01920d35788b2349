"""Spherical data, symmetrized polynomials, pairings, transform tables."""

from __future__ import annotations

from fractions import Fraction

import pytest

from satake import (
    QLaurent,
    ONE,
    SphericalDatum,
    SymmetricPolynomial,
    antidominant_weights,
    basic_asymptotics,
    extended_cone_spec,
    gl_datum,
    inverse_satake_lfun,
    lattice_points,
    lowest_weight_rep,
    macdonald_p,
    pairing,
    preset,
    qmonomial,
    sl2_datum,
)
from satake.errors import (
    BadParameters,
    DatumInvariantError,
    NotAntidominant,
    NotPolynomial,
    RhoInConeSpan,
    UnknownPreset,
)
from satake.root_weyl import (
    ReflectionDatum,
    intify,
    pair,
    vadd,
    vneg,
    vsub,
)
from satake.spherical import (
    _pairing_kernel,
    gr_add_term,
    gr_mul_binomial,
)
from weyl_matrices import mat_apply, matrix_weyl

GL2 = preset("group", "gl2")
GL3 = preset("group", "gl3")
SP4 = preset("sp2n_gl2n", 2)
WH2 = preset("whittaker", "gl2")


# -- presets -------------------------------------------------------------


def test_group_preset_fields():
    assert GL2.rank == 2
    assert GL2.rho_px == (Fraction(1, 2), Fraction(-1, 2))
    assert GL2.theta_plus == (((1, -1), 1, Fraction(1)),)
    assert GL2.cone_cx == ((1, -1),)
    assert len(GL3.theta_plus) == 3
    assert all(s == 1 and r == 1 for _, s, r in GL3.theta_plus)


def test_whittaker_preset_fields():
    assert WH2.theta_plus == ()
    assert WH2.rho_px == (Fraction(1, 2), Fraction(-1, 2))
    assert WH2.positive == GL2.positive


def test_sp2n_gl2n_preset_fields():
    assert SP4.rank == 2
    assert SP4.rho_px == (1, -1)
    assert SP4.theta_plus == (((1, -1), 1, Fraction(2)),)
    trivial = preset("sp2n_gl2n", 1)
    assert trivial.rank == 1
    assert trivial.positive == ()
    assert trivial.theta_plus == ()
    assert trivial.rho_px == (0,)


def test_preset_errors():
    with pytest.raises(UnknownPreset):
        preset("symmetric", "gl2")
    with pytest.raises(BadParameters):
        preset("group", "f4")
    with pytest.raises(BadParameters):
        preset("sp2n_gl2n", 0)
    with pytest.raises(BadParameters):
        preset("sp2n_gl2n", "two")


def test_datum_invariants():
    d = ReflectionDatum((Fraction(1), Fraction(-1)), (1, -1))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (), (0,), ((1, -1),))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (((1, -1), 0, Fraction(1)),), (0, 0), ((1, -1),))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (((1, -1), 1, Fraction(1, 3)),), (0, 0), ((1, -1),))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (((0, 1), 1, Fraction(1)),), (0, 0), ((1, -1),))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (), (0, 0), ((0, 1),))
    with pytest.raises(DatumInvariantError):
        SphericalDatum(2, (d,), (), (0, 0), ((1, -1), (-1, 1)))


# -- symmetrized polynomials ----------------------------------------------


def test_macdonald_at_origin():
    p0 = macdonald_p(GL2, (0, 0))
    assert p0.support() == [(0, 0)]
    assert p0.coefficient((0, 0)) == QLaurent({-2: 1, 0: 1})
    assert p0.coefficient((0, 0)).render() == "q^-1 + 1"


def test_macdonald_standard_weight():
    p = macdonald_p(GL2, (0, 1))
    assert p.support() == [(0, 1), (1, 0)]
    assert p.coefficient((0, 1)) == ONE
    assert p.coefficient((1, 0)) == ONE


def test_macdonald_regular_weight():
    p = macdonald_p(GL2, (-1, 1))
    assert p.support() == [(-1, 1), (0, 0), (1, -1)]
    assert p.coefficient((-1, 1)) == ONE
    assert p.coefficient((1, -1)) == ONE
    assert p.coefficient((0, 0)) == ONE - qmonomial(-1)


def test_macdonald_any_index_is_allowed():
    p = macdonald_p(GL2, (1, -1))
    assert p.coefficient((1, -1)) == qmonomial(-1)
    assert p.coefficient((-1, 1)) == qmonomial(-1)
    assert p.coefficient((0, 0)) == qmonomial(-1) - ONE


def test_macdonald_dominant_index_rescales():
    down = macdonald_p(GL2, (0, 1))
    up = macdonald_p(GL2, (1, 0))
    assert up.terms == {k: qmonomial(-1) * c for k, c in down.terms.items()}


def test_macdonald_weyl_invariance():
    for datum, lam in [(GL2, (-2, 1)), (GL3, (-1, 0, 2)), (SP4, (-1, 1))]:
        p = macdonald_p(datum, lam)
        for m, _ in matrix_weyl(datum.dual_datum()):
            moved = {tuple(mat_apply(m, k)): c for k, c in p.terms.items()}
            assert moved == p.terms


def test_macdonald_whittaker_is_schur():
    for lam in antidominant_weights(WH2.dual_datum(), 2)[:5]:
        p = macdonald_p(WH2, lam)
        chi = lowest_weight_rep(WH2.dual_datum(), lam)
        assert p.terms == {k: QLaurent({0: m}) for k, m in chi.items()}


# -- the full-Weyl oracle ----------------------------------------------------


def _full_weyl_p(datum, lam):
    """P_lambda as the sum of |W| summands over the full-root denominator.

    Each Weyl summand w(prod(1 - sigma q^-r e^theta) e^lambda) is
    multiplied by the factors (1 - e^gamma) over the full root set minus
    the w-image of the positive coroots; the sum is then divided exactly
    by the product over the full root set.  The reference for the
    Demazure-operator symmetrizer of `macdonald_p`.
    """
    lam = intify(lam)
    pos = datum.positive_coroots()
    full = set(pos) | {vneg(g) for g in pos}
    denominator = {(0,) * datum.rank: ONE}
    for g in sorted(full):
        denominator = gr_mul_binomial(denominator, ONE, g)
    total = {}
    for mat, _ in matrix_weyl(datum.dual_datum()):
        summand = {intify(mat_apply(mat, lam)): ONE}
        for t, s, r in datum.theta_plus:
            summand = gr_mul_binomial(summand, s * qmonomial(-r), intify(mat_apply(mat, t)))
        w_pos = {intify(mat_apply(mat, g)) for g in pos}
        for g in sorted(full - w_pos):
            summand = gr_mul_binomial(summand, ONE, g)
        for k, c in summand.items():
            gr_add_term(total, k, c)
    return _exact_divide(total, denominator, pos, datum.cone_spec().witness)


def _exact_divide(numer, denom, pos, witness):
    """Divide in the group ring along the witness-then-lex term order."""
    if not numer:
        return {}
    varsigma = (0,) * len(witness)
    for g in pos:
        varsigma = vadd(varsigma, g)
    sig_deg = int(pair(witness, varsigma))
    lead_coeff = Fraction(-1) ** len(pos)

    def order(k):
        return (int(pair(witness, k)), k)

    floor = min(int(pair(witness, k)) for k in numer) + 2 * sig_deg
    work = dict(numer)
    quotient = {}
    while work:
        lead = max(work, key=order)
        if int(pair(witness, lead)) < floor:
            raise NotPolynomial("symmetrized sum is not divisible by the full denominator")
        c = work[lead] * lead_coeff
        qkey = vsub(lead, varsigma)
        quotient[qkey] = c
        for dk, dc in denom.items():
            gr_add_term(work, vadd(qkey, dk), -(c * dc))
    return quotient


# (kind, parameter, degree of the antidominant sweep); the full-Weyl sum
# costs about 0.5 s per weight at group:gl4, so that preset stops at P_0.
ORACLE_PRESETS = [
    ("group", "gl2", 2), ("group", "gl3", 2), ("group", "gl4", 0),
    ("group", "b2", 2), ("group", "sl2", 2),
    ("whittaker", "gl2", 2), ("whittaker", "gl3", 2), ("whittaker", "gl4", 1),
    ("whittaker", "b2", 2),
    ("sp2n_gl2n", 1, 2), ("sp2n_gl2n", 2, 2), ("sp2n_gl2n", 3, 2),
]


@pytest.mark.parametrize("kind,parameter,degree", ORACLE_PRESETS)
def test_macdonald_matches_full_weyl_oracle(kind, parameter, degree):
    datum = preset(kind, parameter)
    weights = antidominant_weights(datum.dual_datum(), degree)
    if degree:  # a few weights outside the antidominant chamber
        weights += [vneg(w) for w in weights[:3]] + [vadd(weights[0], weights[-1])]
    for lam in weights:
        assert macdonald_p(datum, lam).terms == _full_weyl_p(datum, lam), lam


def _moved_datum(datum, g, g_inv):
    """The datum after the lattice basis change v -> g v (functionals f -> f g^-1)."""
    def vec(v):
        return mat_apply(g, v)

    def functional(f):
        return tuple(sum(f[i] * g_inv[i][j] for i in range(len(f))) for j in range(len(f)))

    return SphericalDatum(
        datum.rank,
        tuple(ReflectionDatum(functional(d.root), vec(d.coroot)) for d in datum.positive),
        tuple((vec(t), s, r) for t, s, r in datum.theta_plus),
        functional(datum.rho_px),
        tuple(vec(c) for c in datum.cone_cx),
    )


def test_macdonald_matches_oracle_in_a_moved_basis():
    g, g_inv = ((2, 1), (1, 1)), ((1, -1), (-1, 2))
    base = preset("group", "b2")
    moved = _moved_datum(base, g, g_inv)
    for lam in antidominant_weights(base.dual_datum(), 2) + [(1, 0), (2, -1)]:
        p = macdonald_p(moved, mat_apply(g, lam))
        assert p.terms == _full_weyl_p(moved, mat_apply(g, lam)), lam
        assert p.terms == {mat_apply(g, k): c for k, c in macdonald_p(base, lam).terms.items()}


# -- closed forms of P_0 ------------------------------------------------------


def _q_inv_integer(i):
    """[i] at q^-1: 1 + q^-1 + ... + q^-(i-1)."""
    return QLaurent({-2 * j: 1 for j in range(i)})


def _q_inv_product(*degrees):
    out = ONE
    for i in degrees:
        out = out * _q_inv_integer(i)
    return out


# (kind, parameter, degrees i of the factors [i] at q^-1): group:glN gives
# the Poincare polynomial of S_N, group:b2 that of its Weyl group, and a
# Whittaker datum gives 1.
P0_CLOSED_FORMS = [
    ("group", "gl2", (1, 2)), ("group", "gl3", (1, 2, 3)), ("group", "gl4", (1, 2, 3, 4)),
    ("group", "gl5", (1, 2, 3, 4, 5)), ("group", "b2", (2, 4)), ("whittaker", "gl5", ()),
]


@pytest.mark.parametrize("kind,parameter,degrees", P0_CLOSED_FORMS)
def test_p0_closed_forms(kind, parameter, degrees):
    datum = preset(kind, parameter)
    zero = (0,) * datum.rank
    assert macdonald_p(datum, zero).terms == {zero: _q_inv_product(*degrees)}


# -- asymptotic series -----------------------------------------------------


def test_basic_asymptotics_gl2_rows():
    series = basic_asymptotics(GL2, 3)
    assert series.coefficient((0, 0)) == ONE
    assert series.coefficient((1, -1)) == qmonomial(-1) - ONE
    assert series.coefficient((2, -2)) == qmonomial(-2) - qmonomial(-1)
    assert series.coefficient((3, -3)) == qmonomial(-3) - qmonomial(-2)


def test_basic_asymptotics_sp4_rows():
    series = basic_asymptotics(SP4, 3)
    assert series.coefficient((0, 0)) == ONE
    assert series.coefficient((1, -1)) == qmonomial(-2) - ONE
    assert series.coefficient((2, -2)) == qmonomial(-4) - qmonomial(-2)


def test_basic_asymptotics_whittaker_rows():
    series = basic_asymptotics(WH2, 3)
    assert series.coefficient((0, 0)) == ONE
    assert series.coefficient((1, -1)) == -ONE
    assert series.coefficient((2, -2)) == QLaurent()


# -- the pairing -----------------------------------------------------------


def test_pairing_frozen_values():
    p0 = macdonald_p(GL2, (0, 0))
    assert pairing(p0, p0, GL2) == QLaurent({-4: 2, -2: 4, 0: 2})
    reg = macdonald_p(GL2, (-1, 1))
    assert pairing(reg, p0, GL2) == QLaurent()
    dom = macdonald_p(GL2, (1, -1))
    assert pairing(dom, p0, GL2) == QLaurent({-6: 2, -4: 2, -2: -2, 0: -2})


def test_pairing_with_a_scalar():
    for datum, lam in [(GL2, (1, -1)), (GL3, (0, 0, 0)), (SP4, (0, 0))]:
        p = macdonald_p(datum, lam)
        unit = SymmetricPolynomial({(0,) * datum.rank: ONE})
        assert pairing(p, 1, datum) == pairing(p, unit, datum)
        assert not pairing(p, 1, datum).is_zero()


def test_pairing_is_symmetric():
    weights = [(0, 0), (-1, 1), (-2, 2), (0, 1)]
    polys = [macdonald_p(GL2, w) for w in weights]
    for a in polys:
        for b in polys:
            assert pairing(a, b, GL2) == pairing(b, a, GL2)


def test_pairing_orthogonality_sample():
    weights = antidominant_weights(GL3.dual_datum(), 2)
    polys = {w: macdonald_p(GL3, w) for w in weights}
    for i, a in enumerate(weights):
        for b in weights[i + 1 :]:
            assert pairing(polys[a], polys[b], GL3).is_zero()


def test_pairing_whittaker_normalization():
    p = macdonald_p(WH2, (0, 1))
    assert pairing(p, p, WH2) == QLaurent({0: 2})


def _one_sided_kernel(datum, depth):
    """Independent expansion of the one-sided pairing weight.

    prod_{gamma > 0} (1 - e^{-gamma}) / prod_{theta} (1 - sigma q^{-r} e^{-theta})
    through witness degree `depth` on the negative cone, by plain binomial
    and geometric loops; the reference for the kernel the pairing reads.
    """
    witness = datum.cone_spec().witness
    terms = {(0,) * datum.rank: ONE}
    for g in sorted(datum.positive_coroots()):
        new = dict(terms)
        for k, c in terms.items():
            shifted = vsub(k, g)
            if -pair(witness, shifted) <= depth:
                new[shifted] = new.get(shifted, QLaurent()) - c
        terms = {k: c for k, c in new.items() if not c.is_zero()}
    for t, s, r in datum.theta_plus:
        ratio = s * qmonomial(-r)
        new = {}
        for k, c in terms.items():
            while -pair(witness, k) <= depth:
                new[k] = new.get(k, QLaurent()) + c
                k, c = vsub(k, t), c * ratio
        terms = {k: c for k, c in new.items() if not c.is_zero()}
    return terms


@pytest.mark.parametrize(
    "kind,parameter",
    [("group", "gl2"), ("group", "gl3"), ("whittaker", "gl2"), ("whittaker", "gl3"),
     ("sp2n_gl2n", 1), ("sp2n_gl2n", 2)],
)
def test_pairing_kernel_matches_independent_expansion(kind, parameter):
    datum = preset(kind, parameter)
    for depth in (0, 3, 10):
        kernel = _pairing_kernel(datum, depth)
        assert kernel.bound >= depth
        low = {k: c for k, c in kernel.terms.items() if kernel.spec.degree(k) <= depth}
        assert {vneg(k): c for k, c in _one_sided_kernel(datum, depth).items()} == low


def test_pairing_ratio_is_basic_coefficient():
    spec = GL2.cone_spec()
    series = basic_asymptotics(GL2, 6)
    p0 = macdonald_p(GL2, (0, 0))
    pp0 = pairing(p0, p0, GL2)
    for lam in lattice_points(spec, 4):
        lhs = pairing(macdonald_p(GL2, lam), p0, GL2)
        assert lhs == series.coefficient(lam) * pp0


# -- extended cones and transform tables ------------------------------------


def test_extended_cone_spec_rejects_spanned_rho():
    with pytest.raises(RhoInConeSpan):
        extended_cone_spec(GL2, (2, -2))
    spec = extended_cone_spec(GL2, (0, 1))
    assert spec.contains((0, 1))
    assert spec.contains((1, -1))


def test_l_series_of_standard_rep_is_all_ones():
    from satake import l_series

    rho = (0, 1)
    weights = lowest_weight_rep(GL2.dual_datum(), rho)
    series = l_series(GL2, weights, rho, 4)
    spec = extended_cone_spec(GL2, rho)
    for p in lattice_points(spec, 4):
        if all(x >= 0 for x in p):
            assert series.coefficient(p) == ONE


def test_inverse_satake_gl2_small():
    table = inverse_satake_lfun(GL2, (0, 1), 4)
    rows = table.row_map()
    expected = {(i, j) for j in range(5) for i in range(j + 1) if 2 * i + j <= 4}
    assert set(rows) == expected
    for (i, j), (series, hecke) in rows.items():
        assert series == qmonomial(-i)
        assert hecke == qmonomial(Fraction(-(i + j), 2))


def test_inverse_satake_rejects_spanned_rho():
    with pytest.raises(RhoInConeSpan):
        inverse_satake_lfun(GL2, (1, -1), 4)


def test_inverse_satake_rejects_non_antidominant_rho():
    with pytest.raises(NotAntidominant):
        inverse_satake_lfun(GL2, (1, 0), 4)


def test_table_formats():
    table = inverse_satake_lfun(GL2, (0, 1), 2)
    tsv = table.to_tsv()
    records = table.to_records()
    assert tsv.splitlines()[0] == "0,0\t1\t1"
    assert records.splitlines()[0] == "lambda=0,0 series=1 hecke=1"
    assert len(tsv.splitlines()) == len(table.rows)


def test_trivial_preset_pairing():
    trivial = preset("sp2n_gl2n", 1)
    p0 = macdonald_p(trivial, (0,))
    assert p0.terms == {(0,): ONE}
    assert pairing(p0, p0, trivial) == ONE
    p1 = macdonald_p(trivial, (3,))
    assert pairing(p1, p0, trivial) == QLaurent()
