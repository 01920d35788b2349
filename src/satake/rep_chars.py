"""Weight multisets of irreducible representations, exactly.

`lowest_weight_rep` produces the full weight multiset of the
irreducible representation with a given antidominant lowest weight,
via Freudenthal's recursion run over the dominant weights below the
highest weight and a Weyl-invariant inner product obtained by group
averaging.  `weyl_denominator` and `weyl_dimension` give the two
classical cross-checks: the alternating denominator sum and the
dimension product formula.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import NotAntidominant
from .qlaurent import QLaurent
from .root_weyl import (
    RootDatum,
    Vec,
    dominant_image,
    intify,
    mat_apply,
    pair,
    vadd,
    vsub,
    weyl_of,
)

__all__ = ["lowest_weight_rep", "weyl_denominator", "weyl_dimension"]

WeightMultiset = dict[Vec, int]


@functools.cache
def _invariant_form(datum: RootDatum) -> tuple[tuple[Fraction, ...], ...]:
    """A Weyl-invariant positive form: the group average of the dot product."""
    n = datum.rank
    weyl = weyl_of(datum)
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
    from .linalg import expand_in_basis

    simples = [d.coroot for d in datum.simples()]
    return expand_in_basis(simples, v)


def lowest_weight_rep(datum: RootDatum, lowest) -> WeightMultiset:
    """Weight multiset of the irreducible with the given lowest weight.

    The lowest weight must be antidominant; rejects with NotAntidominant
    otherwise.  Multiplicities come from Freudenthal's recursion on the
    dominant cone, then spread over Weyl orbits.
    """
    lowest = intify(lowest)
    if not all(pair(d.root, lowest) <= 0 for d in datum.positive):
        raise NotAntidominant(f"{lowest} is not antidominant")
    if not datum.positive:
        return {lowest: 1}
    weyl = weyl_of(datum)
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
    dominant: list[Vec] = []
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
    mults: dict[Vec, int] = {}
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

    out: WeightMultiset = {}
    for mu, m in mults.items():
        for w in {mat_apply(mat, mu) for mat, _ in weyl}:
            out[intify(w)] = m
    return out


def weyl_denominator(datum: RootDatum) -> dict[Vec, QLaurent]:
    """The alternating sum of e^(rho - w rho) over the Weyl group."""
    weyl = weyl_of(datum)
    rho = datum.rho_check()
    out: dict[Vec, QLaurent] = {}
    for i, (m, _) in enumerate(weyl):
        key = intify(vsub(rho, mat_apply(m, rho)))
        prev = out.get(key, QLaurent())
        s = prev + weyl.sign(i)
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def weyl_dimension(datum: RootDatum, lowest) -> int:
    """Dimension of the irreducible with the given antidominant lowest weight."""
    lowest = intify(lowest)
    if not all(pair(d.root, lowest) <= 0 for d in datum.positive):
        raise NotAntidominant(f"{lowest} is not antidominant")
    if not datum.positive:
        return 1
    gram = _invariant_form(datum)
    rho = datum.rho_check()
    top = dominant_image(datum, lowest)
    top_shift = tuple(Fraction(x) + r for x, r in zip(top, rho))
    dim = Fraction(1)
    for d in datum.positive:
        dim *= _bform(gram, top_shift, d.coroot) / _bform(gram, rho, d.coroot)
    assert dim.denominator == 1 and dim >= 1
    return int(dim)
