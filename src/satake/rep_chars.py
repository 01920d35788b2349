"""Weight multisets of irreducible representations, exactly.

`lowest_weight_rep` produces the full weight multiset of the
irreducible representation with a given antidominant lowest weight by
Demazure's character formula: the character is pi_{w0}(e^lambda), the
Demazure operator of the longest Weyl element applied to the lowest
weight monomial, one exact division by a binomial per letter of a
reduced word of w0.  The same operators symmetrize `macdonald_p`.
`weyl_denominator` and `weyl_dimension` give the two classical
cross-checks: the alternating denominator sum and the dimension
product formula.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MathError, NotAntidominant, NotPolynomial
from .qlaurent import ONE, ZERO, QLaurent
from .root_weyl import (
    ReflectionDatum,
    RootDatum,
    Vec,
    _not_finite_weyl,
    enumerate_weyl,
    intify,
    pair,
    reflect,
    vadd,
    vscale,
    vsub,
)

__all__ = ["lowest_weight_rep", "weyl_denominator", "weyl_dimension"]

GroupRing = dict[Vec, QLaurent]

WeightMultiset = dict[Vec, int]


def _two_rho(rd: RootDatum) -> Vec:
    """2 rho_check, the sum of the positive coroots: an integer vector."""
    return intify(vscale(2, rd.rho_check()))


def _longest_word(rd: RootDatum) -> list[ReflectionDatum]:
    """A reduced word of w0: the simple reflections that walk rho_check
    to the antidominant chamber, one positive root per step.

    rho_check must be strictly dominant, as it is on a positive system.
    The walk runs on 2 rho_check, which has the same chambers and is integral.
    """
    simples = rd.simples()
    v = _two_rho(rd)
    if any(pair(d.root, v) <= 0 for d in rd.positive):
        raise _not_finite_weyl(rd)
    word: list[ReflectionDatum] = []
    while len(word) < len(rd.positive):
        step = next((d for d in simples if pair(d.root, v) > 0), None)
        if step is None:
            break
        word.append(step)
        v = reflect(step, v)
    if len(word) < len(rd.positive) or any(pair(d.root, v) > 0 for d in simples):
        raise _not_finite_weyl(rd)
    return word


def _demazure(terms: GroupRing, simple: ReflectionDatum) -> GroupRing:
    """pi f = (f - e^gamma s(f)) / (1 - e^gamma) for a simple pair (alpha, gamma).

    A term e^p with m = <alpha, p> sits at step m // 2 of the gamma-string
    through p - (m // 2) gamma.  e^gamma s(e^k) = e^(k + (1 - m) gamma) has
    <alpha, .> = 2 - m, and shares the string of e^k when m is an integer.
    Dividing by (1 - e^gamma) is a running sum up each string.
    """
    alpha, gamma = simple.root, simple.coroot
    strings: dict[Vec, dict[int, QLaurent]] = {}
    for k, c in terms.items():
        m = sum(a * x for a, x in zip(alpha, k))
        sk = tuple(x + g - int(m * g) for x, g in zip(k, gamma))
        for p, j, cj in ((k, m // 2, c), (sk, (2 - m) // 2, -c)):
            string = strings.setdefault(vsub(p, vscale(j, gamma)), {})
            string[j] = string.get(j, ZERO) + cj
    out: GroupRing = {}
    for base, string in strings.items():
        total = ZERO
        for j in range(min(string), max(string) + 1):
            total = total + string.get(j, ZERO)
            if not total.is_zero():
                out[vadd(base, vscale(j, gamma))] = total
        if not total.is_zero():
            raise NotPolynomial(f"pi along {gamma} left a remainder")
    return out


def lowest_weight_rep(datum: RootDatum, lowest) -> WeightMultiset:
    """Weight multiset of the irreducible with the given lowest weight.

    The lowest weight must be antidominant; rejects with NotAntidominant
    otherwise.  The character is pi_{w0}(e^lowest) (Demazure 1974).
    """
    lowest = intify(lowest)
    if not all(pair(d.root, lowest) <= 0 for d in datum.positive):
        raise NotAntidominant(f"{lowest} is not antidominant")
    terms: GroupRing = {lowest: ONE}
    for simple in _longest_word(datum):
        terms = _demazure(terms, simple)
    return {k: int(c.constant_value()) for k, c in terms.items()}


def _alternant(datum: RootDatum, lam) -> GroupRing:
    """The alternating sum of e^(w(lam - rho) + rho) over the Weyl group.

    The sum runs over the orbit of lam - rho, which is regular when lam
    is antidominant.  By Weyl's character formula it is the character
    with lowest weight lam times prod_{gamma > 0} (1 - e^gamma); at
    lam = 0 it is that product alone.
    """
    # Walk the integer orbit of 2(lam - rho) and halve each point once.
    two_rho = _two_rho(datum)
    out: GroupRing = {}
    for v, length in enumerate_weyl(datum, tuple(2 * x - r for x, r in zip(lam, two_rho))):
        key = tuple((x + r) // 2 for x, r in zip(v, two_rho))
        s = out.get(key, ZERO) + (-1) ** length
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def weyl_denominator(datum: RootDatum) -> dict[Vec, QLaurent]:
    """The alternating sum of e^(rho - w rho) over the Weyl group."""
    return _alternant(datum, (0,) * datum.rank)


def weyl_dimension(datum: RootDatum, lowest) -> int:
    """Dimension of the irreducible with the given antidominant lowest weight.

    The product over positive roots of <alpha, top + rho> / <alpha, rho>,
    with top = w0(lowest), the highest weight.
    """
    lowest = intify(lowest)
    if not all(pair(d.root, lowest) <= 0 for d in datum.positive):
        raise NotAntidominant(f"{lowest} is not antidominant")
    top = lowest
    for simple in _longest_word(datum):
        top = reflect(simple, top)
    rho = datum.rho_check()
    top_shift = vadd(top, rho)
    num = math.prod((pair(d.root, top_shift) for d in datum.positive), start=Fraction(1))
    den = math.prod((pair(d.root, rho) for d in datum.positive), start=Fraction(1))
    dim = num / den if den else Fraction(0)
    if dim.denominator != 1 or dim < 1:
        raise MathError(f"the dimension product {num}/{den} is not a positive integer")
    return int(dim)
