"""Partition-function cross-check for the group case.

For a group-shaped datum the unramified-value coefficients have a
closed alternating-sum expression over the Weyl group in terms of the
partition function of the multiset Psi: the positive coroots together
with the weights of the representation (counted with multiplicity).
This module computes that expression by bounded exhaustive enumeration
of multiset decompositions.  It deliberately shares no code path with
the cone-series machinery, so agreement between the two is a genuine
cross-check, exercised by `li_equivalence_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cone_series import lattice_points
from .errors import BadParameters, RhoInConeSpan
from .linalg import find_witness, functional_with_values, in_rational_span
from .qlaurent import QLaurent, qmonomial
from .rep_chars import lowest_weight_rep
from .root_weyl import Vec, WeylGroup, intify, mat_apply, pair, vneg, vsub
from .spherical import SphericalDatum, _lfun_series, extended_cone_spec

__all__ = [
    "LiDatum",
    "li_datum",
    "li_partition",
    "li_coefficient",
    "li_equivalence_check",
    "LiReport",
]


@dataclass
class LiDatum:
    """Inputs of the alternating partition-function formula."""

    rank: int
    psi: tuple[tuple[Vec, int], ...]  # distinct vector, multiplicity
    det_functional: tuple[Fraction, ...]
    rho_b: tuple[Fraction, ...]
    weyl: WeylGroup
    psi_witness: tuple[int, ...]
    _partition_cache: dict[Vec, QLaurent] = field(default_factory=dict)


def li_datum(datum: SphericalDatum, rho) -> LiDatum:
    """Build the formula inputs from a group-shaped datum and a lowest weight.

    The datum must color every positive coroot (+1, 1) and nothing
    else; the weight rho must be antidominant and outside the rational
    span of the coroots (it pins down the determinant functional).
    """
    rho = intify(rho)
    coroots = datum.positive_coroots()
    expected = sorted((c, 1, Fraction(1)) for c in coroots)
    if sorted(datum.theta_plus) != expected:
        raise BadParameters("partition-function check needs a group-shaped datum")
    if in_rational_span(coroots, rho):
        raise RhoInConeSpan(f"{rho} lies in the coroot span")
    det = functional_with_values(
        list(coroots) + [rho], [0] * len(coroots) + [1], datum.rank
    )
    weights = lowest_weight_rep(datum.dual_datum(), rho)
    psi: dict[Vec, int] = {}
    for c in coroots:
        psi[c] = psi.get(c, 0) + 1
    for nu, m in weights.items():
        psi[nu] = psi.get(nu, 0) + m
    members = tuple(sorted(psi))
    witness = find_witness(members, datum.rank)
    return LiDatum(
        rank=datum.rank,
        psi=tuple((v, psi[v]) for v in members),
        det_functional=det,
        rho_b=datum.dual_datum().rho_check(),
        weyl=datum.weyl(),
        psi_witness=witness,
    )


def li_partition(d: LiDatum, mu) -> QLaurent:
    """The partition count P_Psi(mu, q).

    Coefficient of q^k is the number of multiset decompositions of -mu
    into k members of Psi, found by depth-first enumeration bounded by
    the witness functional.  Zero whenever -mu leaves the nonnegative
    span of Psi.
    """
    mu = intify(mu)
    cached = d._partition_cache.get(mu)
    if cached is not None:
        return cached
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
    out = QLaurent({2 * k: Fraction(n) for k, n in counts.items()})
    d._partition_cache[mu] = out
    return out


def li_coefficient(d: LiDatum, mu) -> QLaurent:
    """The alternating-sum value c_mu.

    Zero when the determinant functional is negative on mu; otherwise
    q^<det, mu> times the signed sum over the Weyl group of the
    partition counts at rho_b - w rho_b - mu evaluated at q^-1.
    """
    mu = intify(mu)
    dm = pair(d.det_functional, mu)
    if dm < 0:
        return QLaurent()
    total = QLaurent()
    for i, (mat, _) in enumerate(d.weyl):
        shift = vsub(d.rho_b, mat_apply(mat, d.rho_b))
        arg = vsub(intify(shift), mu)
        p = li_partition(d, arg)
        if not p.is_zero():
            total = total + d.weyl.sign(i) * p.invert_q()
    if total.is_zero():
        return total
    return total * qmonomial(dm)


@dataclass
class LiReport:
    """Outcome of the partition-function versus series comparison."""

    ok: bool
    checked: int
    bound: int
    first_mismatch: tuple[Vec, QLaurent, QLaurent] | None = None

    def __str__(self):
        if self.ok:
            return f"ok: {self.checked} coefficients agree through degree {self.bound}"
        mu, li_value, series_value = self.first_mismatch
        coords = ",".join(str(x) for x in mu)
        return (
            f"mismatch at {coords}: partition formula gives {li_value.render()}, "
            f"series gives {series_value.render()} ({self.checked} checked)"
        )


def li_equivalence_check(d: LiDatum, datum: SphericalDatum, rho, bound: int) -> LiReport:
    """Compare the alternating formula against the transform series.

    Every lattice point of the extended cone with witness degree at
    most `bound` is checked; both sides vanish off that cone, so the
    sweep covers the full truncated series.
    """
    product = _lfun_series(datum, rho, bound)
    checked = 0
    for mu in lattice_points(extended_cone_spec(datum, rho), bound):
        expected = product.coefficient(mu)
        got = li_coefficient(d, mu)
        checked += 1
        if got != expected:
            return LiReport(False, checked, bound, (mu, got, expected))
    return LiReport(True, checked, bound)
