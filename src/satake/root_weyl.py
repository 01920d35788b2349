"""Root data on a coweight lattice and finite Weyl group enumeration.

Lattice vectors are plain tuples of ints; root functionals are tuples
of rationals (ints where whole) paired against vectors coordinatewise.
A reflection is a (root, coroot) pair with pairing 2, acting by
v - <root, v> coroot.  A Weyl group is enumerated as the orbit of a
regular vector under the simple reflections, by breadth first search:
v first, then layer by layer, each layer sorted lexicographically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GroupTooLarge, MathError
from .linalg import functional_with_values, rref
from .qlaurent import exact

Vec = tuple[int, ...]
Orbit = tuple[tuple[tuple, int], ...]  # (w v, l(w)) for each Weyl element w

WEYL_CAP = 50000


def intify(v) -> Vec:
    """Convert exact rational entries to ints; error if any is not whole."""
    out = []
    for x in v:
        if type(x) is not int:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError(f"not a lattice vector: {tuple(v)}")
            x = f.numerator
        out.append(x)
    return tuple(out)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    return tuple(c * x for x in a)


def pair(functional, v) -> int | Fraction:
    """Evaluate a functional on a vector exactly; int entries give an int."""
    return sum(f * x for f, x in zip(functional, v))


@dataclass(frozen=True)
class ReflectionDatum:
    """A root functional together with its coroot vector."""

    root: tuple[int | Fraction, ...]
    coroot: Vec

    def __post_init__(self):
        object.__setattr__(self, "root", tuple(exact(x) for x in self.root))
        object.__setattr__(self, "coroot", intify(self.coroot))
        if pair(self.root, self.coroot) != 2:
            raise ValueError(
                f"root/coroot pairing must be 2, got {pair(self.root, self.coroot)}"
            )


def reflect(datum: ReflectionDatum, v):
    """Apply the reflection v -> v - <root, v> coroot."""
    c = pair(datum.root, v)
    return tuple(x - c * y for x, y in zip(v, datum.coroot))


def is_antidominant(v, positive_roots) -> bool:
    """True when every positive root pairs nonpositively with v."""
    return all(pair(alpha, v) <= 0 for alpha in positive_roots)


@dataclass(frozen=True)
class RootDatum:
    """A full positive system of (root, coroot) pairs on a lattice.

    `positive` lists every positive root with its coroot, not only the
    simple ones; formulas over the whole positive system read straight
    off the field, while `simples()` recovers the simple subset.
    """

    rank: int
    positive: tuple[ReflectionDatum, ...]

    def __post_init__(self):
        object.__setattr__(self, "positive", tuple(self.positive))
        for d in self.positive:
            if len(d.coroot) != self.rank:
                raise ValueError("coroot rank mismatch")

    def positive_roots(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(d.root for d in self.positive)

    def positive_coroots(self) -> tuple[Vec, ...]:
        return tuple(d.coroot for d in self.positive)

    def simples(self) -> tuple[ReflectionDatum, ...]:
        """Positive pairs whose coroot is not a sum of two positive coroots."""
        coroots = set(self.positive_coroots())
        out = []
        for d in self.positive:
            decomposable = any(
                vsub(d.coroot, c) in coroots and vsub(d.coroot, c) != (0,) * self.rank
                for c in coroots
                if c != d.coroot
            )
            if not decomposable:
                out.append(d)
        return tuple(out)

    def rho_check(self) -> tuple[int | Fraction, ...]:
        """Half the sum of the positive coroots (entries may be halves)."""
        return _half_sum(self.positive_coroots(), self.rank)

    def rho_roots(self) -> tuple[int | Fraction, ...]:
        """Half the sum of the positive root functionals."""
        return _half_sum(self.positive_roots(), self.rank)

    def height_functional(self) -> tuple[Fraction, ...]:
        """A functional taking value 1 on every simple coroot."""
        simples = [d.coroot for d in self.simples()]
        return functional_with_values(simples, [1] * len(simples), self.rank)


def _half_sum(vectors, rank: int) -> tuple[int | Fraction, ...]:
    return tuple(exact(Fraction(sum(v[i] for v in vectors), 2)) for i in range(rank))


def enumerate_weyl(datum: RootDatum, v, cap: int = WEYL_CAP) -> Orbit:
    """The Weyl orbit of a regular vector v, each point with its word length.

    v must pair strictly positively with every positive root, or strictly
    negatively with every one.  W then acts simply transitively on the
    orbit, so walking it by simple reflections lists W itself: one pair
    (w v, l(w)) per element, ordered by BFS layer, then lexicographically.
    In a finite Weyl group l(w0) = |positive roots|, so a deeper layer
    raises MathError, as does a singular v; more than cap points raise
    GroupTooLarge.
    """
    values = [pair(d.root, v) for d in datum.positive]
    if not (all(x > 0 for x in values) or all(x < 0 for x in values)):
        coords = ",".join(str(x) for x in v)
        raise MathError(
            f"{coords} is neither strictly dominant nor strictly antidominant"
            f" for the {len(datum.positive)} positive roots"
        )
    gens = [(d.root, d.coroot) for d in datum.simples()]
    # Walk the orbit of den * v, an integer vector, and scale back at the end.
    den = math.lcm(*(Fraction(x).denominator for x in v))
    start = tuple(int(x * den) for x in v)
    orbit = [(start, 0)]
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        layer = set()
        for u in frontier:
            for alpha, gamma in gens:
                c = sum(a * x for a, x in zip(alpha, u))
                su = tuple(x - c * g for x, g in zip(u, gamma))
                if su not in seen:
                    layer.add(su)
        if layer and depth > len(datum.positive):
            raise _not_finite_weyl(datum)
        frontier = sorted(layer)
        seen.update(frontier)
        orbit += [(u, depth) for u in frontier]
        if len(orbit) > cap:
            raise GroupTooLarge(f"more than {cap} Weyl elements")
    if den == 1:
        return tuple(orbit)
    return tuple((tuple(Fraction(x, den) for x in u), length) for u, length in orbit)


def _not_finite_weyl(datum: RootDatum) -> MathError:
    return MathError(
        f"the {len(datum.positive)} positive roots are not the positive system"
        " of a finite Weyl group"
    )


def weyl_of(datum: RootDatum) -> Orbit:
    """The Weyl group of the datum as the orbit of rho_check: (w rho_check, l(w)) pairs."""
    return _weyl_group(datum)


@functools.cache
def _weyl_group(datum: RootDatum) -> Orbit:
    return enumerate_weyl(datum, datum.rho_check())


def dominant_image(datum: RootDatum, v):
    """The dominant Weyl translate of v (exact, via simple reflections).

    A finite Weyl group reaches it in at most |positive roots| steps;
    past that the group is infinite and MathError is raised.
    """
    simples = datum.simples()
    cur = tuple(v)
    for _ in range(len(datum.positive) + 1):
        step = next((d for d in simples if pair(d.root, cur) < 0), None)
        if step is None:
            return cur
        cur = reflect(step, cur)
    raise _not_finite_weyl(datum)


def _root_perp_basis(datum: RootDatum) -> list[Vec]:
    """Primitive integer basis of the subspace killed by every root."""
    roots = [list(d.root) for d in datum.positive]
    if not roots:
        return [tuple(1 if j == i else 0 for j in range(datum.rank)) for i in range(datum.rank)]
    mat, pivots = rref(roots)
    basis = []
    for free in range(datum.rank):
        if free in pivots:
            continue
        vec = [Fraction(0)] * datum.rank
        vec[free] = Fraction(1)
        for row, col in enumerate(pivots):
            vec[col] = -mat[row][free]
        scale = 1
        for x in vec:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        ints = [int(x * scale) for x in vec]
        content = 0
        for x in ints:
            content = math.gcd(content, x)
        basis.append(tuple(x // content for x in ints))
    return sorted(basis)


def antidominant_weights(datum: RootDatum, degree: int) -> list[Vec]:
    """Every antidominant weight of bounded size, deterministically.

    A weight is written as a nonnegative combination of the
    antidominant fundamental coweights plus an integer combination of a
    primitive basis of the root-perpendicular sublattice; it is listed
    when the nonnegative coefficients plus the absolute central
    coefficients total at most `degree`.  A fundamental coweight that
    falls outside the lattice is replaced by the primitive lattice
    point on its ray, so the enumeration stays inside the lattice.
    """
    simples = datum.simples()
    roots = [d.root for d in simples]
    fund = []
    for i in range(len(simples)):
        values = [Fraction(-1 if j == i else 0) for j in range(len(simples))]
        exact = functional_with_values(roots, values, datum.rank)
        scale = 1
        for x in exact:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        ints = [int(x * scale) for x in exact]
        content = 0
        for x in ints:
            content = math.gcd(content, x)
        if content == 0:
            raise MathError("degenerate fundamental coweight")
        fund.append(tuple(x // content if scale > 1 else x for x in ints))
    central = _root_perp_basis(datum)
    out = []

    def emit(prefix: list[int], budget: int, slots: list, signed_from: int) -> None:
        if len(prefix) == len(slots):
            w = (0,) * datum.rank
            for c, vec in zip(prefix, slots):
                w = vadd(w, vscale(c, vec))
            out.append(w)
            return
        idx = len(prefix)
        lo = -budget if idx >= signed_from else 0
        for c in range(lo, budget + 1):
            emit(prefix + [c], budget - abs(c), slots, signed_from)

    emit([], degree, fund + central, len(fund))
    weights = sorted(set(out))
    positive_roots = [d.root for d in datum.positive]
    assert all(is_antidominant(w, positive_roots) for w in weights)
    return weights


# -- stock data -------------------------------------------------------


def _unit_root(n: int, i: int, j: int) -> tuple[Fraction, ...]:
    r = [Fraction(0)] * n
    r[i] = Fraction(1)
    r[j] = Fraction(-1)
    return tuple(r)


def gl_datum(n: int) -> RootDatum:
    """The general linear group of rank n on its coweight lattice Z^n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    pos = []
    for i in range(n):
        for j in range(i + 1, n):
            root = _unit_root(n, i, j)
            coroot = tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
            pos.append(ReflectionDatum(root, coroot))
    return RootDatum(n, tuple(pos))


def sl2_datum() -> RootDatum:
    """Rank one lattice with coroot 1 and root functional 2."""
    return RootDatum(1, (ReflectionDatum((Fraction(2),), (1,)),))


def adjoint_a1_datum() -> RootDatum:
    """Rank one lattice with coroot 2 and root functional 1."""
    return RootDatum(1, (ReflectionDatum((Fraction(1),), (2,)),))


def b2_datum() -> RootDatum:
    """The rank two system with positive roots e1-e2, e2, e1, e1+e2."""
    pos = (
        ReflectionDatum((Fraction(1), Fraction(-1)), (1, -1)),
        ReflectionDatum((Fraction(0), Fraction(1)), (0, 2)),
        ReflectionDatum((Fraction(1), Fraction(0)), (2, 0)),
        ReflectionDatum((Fraction(1), Fraction(1)), (1, 1)),
    )
    return RootDatum(2, pos)


STOCK_DATA = {
    "gl1": lambda: gl_datum(1),
    "gl2": lambda: gl_datum(2),
    "gl3": lambda: gl_datum(3),
    "gl4": lambda: gl_datum(4),
    "gl5": lambda: gl_datum(5),
    "gl6": lambda: gl_datum(6),
    "sl2": sl2_datum,
    "b2": b2_datum,
}


def stock_datum(name: str) -> RootDatum:
    key = name.lower()
    if key.startswith("gl") and key[2:].isdigit():
        return gl_datum(int(key[2:]))
    if key in STOCK_DATA:
        return STOCK_DATA[key]()
    raise KeyError(name)
