"""Partition-function cross-check for the group case.

For a group-shaped datum the unramified-value coefficients have a
closed alternating-sum expression over the Weyl group in terms of the
partition function of the multiset Psi: the positive coroots together
with the weights of the representation (counted with multiplicity).
This module computes that expression with a partition count memoised
over (member index, remaining vector), bounded by an integer witness
functional.  It deliberately shares no code path with the cone-series
machinery, so agreement between the two is a genuine cross-check,
exercised by `li_equivalence_check`.
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
from .root_weyl import Vec, intify, pair, vneg, vsub, weyl_of
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
    signed_shifts: tuple[tuple[Vec, int], ...]  # (rho_b - w rho_b, sign of w) over W
    psi_witness: tuple[int, ...]
    _partition_cache: dict[tuple[int, Vec], dict[int, int]] = field(default_factory=dict)


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
    dual = datum.dual_datum()
    weights = lowest_weight_rep(dual, rho)
    psi: dict[Vec, int] = {}
    for c in coroots:
        psi[c] = psi.get(c, 0) + 1
    for nu, m in weights.items():
        psi[nu] = psi.get(nu, 0) + m
    members = tuple(sorted(psi))
    witness = find_witness(members, datum.rank)
    rho_b = dual.rho_check()
    return LiDatum(
        rank=datum.rank,
        psi=tuple((v, psi[v]) for v in members),
        det_functional=det,
        rho_b=rho_b,
        signed_shifts=tuple(
            (intify(vsub(rho_b, v)), (-1) ** length) for v, length in weyl_of(dual)
        ),
        psi_witness=witness,
    )


# Most memoised states are dead ends; they share this one (never mutated) count.
_NO_WAYS: dict[int, int] = {}


def li_partition(d: LiDatum, mu) -> QLaurent:
    """The partition count P_Psi(mu, q).

    Coefficient of q^k is the number of multiset decompositions of -mu
    into k members of Psi.  count(i, r), by size, sums count(i + 1,
    r - k v_i) over k copies of member i, C(k + m_i - 1, m_i - 1) ways
    each, while the integer witness budget stays >= 0.  It recurses one
    frame per member and is memoised over (i, r) in d._partition_cache,
    which every mu of one LiDatum shares.  Zero whenever -mu leaves the
    nonnegative span of Psi.
    """
    witness = d.psi_witness
    cache = d._partition_cache
    last = len(d.psi)

    def count(i: int, r: Vec, left: int) -> dict[int, int]:
        if left == 0 or i == last:  # every member has witness step >= 1
            return _NO_WAYS if any(r) else {0: 1}
        out = cache.get((i, r))
        if out is not None:
            return out
        out = {}
        vec, mult = d.psi[i]
        step = sum(a * x for a, x in zip(witness, vec))
        rem, k = r, 0
        while left >= 0:
            ways = math.comb(k + mult - 1, mult - 1)
            for size, n in count(i + 1, rem, left).items():
                out[size + k] = out.get(size + k, 0) + ways * n
            rem, k, left = vsub(rem, vec), k + 1, left - step
        out = cache[i, r] = out or _NO_WAYS
        return out

    target = vneg(intify(mu))
    budget = sum(a * x for a, x in zip(witness, target))
    if budget < 0:
        return QLaurent()
    return QLaurent({2 * k: n for k, n in count(0, target, budget).items()})


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
    for shift, sign in d.signed_shifts:
        p = li_partition(d, vsub(shift, mu))
        if not p.is_zero():
            total = total + sign * p.invert_q()
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
