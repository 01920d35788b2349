"""Exact rational linear algebra at desk scale.

Everything here works over `fractions.Fraction`: Gaussian elimination
for span and expansion questions, and Fourier-Motzkin elimination for
the two polyhedral jobs the series layer needs, namely finding a strict
witness functional for a cone and turning a generator description of a
cone into facet inequalities.  Ranks stay small (six or less), so the
classical algorithms are both exact and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import MathError, NotStrictlyConvex

# An inequality is (coeffs, rhs) meaning sum(coeffs[i]*x[i]) >= rhs.
Ineq = tuple[tuple[Fraction, ...], Fraction]

_FM_CAP = 20000  # intermediate constraint cap; generous for desk scale


def _frac_vec(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


def _normalize_ineq(coeffs, rhs) -> Ineq:
    # Scale so entries are coprime integers; keeps Fourier-Motzkin tidy.
    denql = 1
    for c in list(coeffs) + [rhs]:
        denql = denql * c.denominator // gcd(denql, c.denominator)
    ints = [int(c * denql) for c in coeffs]
    r = int(rhs * denql)
    g = 0
    for x in ints + [r]:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
        r = r // g
    return tuple(Fraction(x) for x in ints), Fraction(r)


def _eliminate(ineqs: list[Ineq], idx: int) -> list[Ineq]:
    pos, neg, rest = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[idx]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            rest.append((coeffs, rhs))
    out = {_normalize_ineq(*r) for r in rest}
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = pc[idx], -nc[idx]
            coeffs = tuple(b * pc[j] + a * nc[j] for j in range(len(pc)))
            out.add(_normalize_ineq(coeffs, b * pr + a * nr))
            if len(out) > _FM_CAP:
                raise MathError("Fourier-Motzkin blowup beyond desk scale")
    return sorted(out)


def _feasible_interval(ineqs: list[Ineq], idx: int, known: dict[int, Fraction]):
    lo, hi = None, None
    for coeffs, rhs in ineqs:
        c = coeffs[idx]
        if c == 0:
            continue
        acc = rhs
        for j, cj in enumerate(coeffs):
            if j != idx and cj != 0:
                acc -= cj * known[j]
        bound = acc / c
        if c > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


def fm_solve(ineqs: list[Ineq], nvars: int) -> list[Fraction] | None:
    """A rational point satisfying all inequalities, or None.

    Eliminates the last variable first and back-substitutes choosing
    the lower bound when one exists, so the result is deterministic.
    """
    systems = [sorted(_normalize_ineq(_frac_vec(c), Fraction(r)) for c, r in ineqs)]
    for idx in range(nvars - 1, -1, -1):
        systems.append(_eliminate(systems[-1], idx))
    for coeffs, rhs in systems[-1]:
        if all(c == 0 for c in coeffs) and rhs > 0:
            return None
    known: dict[int, Fraction] = {}
    for idx in range(nvars):
        # systems[nvars - 1 - idx] still mentions variable idx and nothing later.
        lo, hi = _feasible_interval(systems[nvars - 1 - idx], idx, known)
        if lo is not None:
            known[idx] = lo
        elif hi is not None:
            known[idx] = hi
        else:
            known[idx] = Fraction(0)
    return [known[i] for i in range(nvars)]


def find_witness(generators, rank: int) -> tuple[int, ...]:
    """An integer functional taking value >= 1 on every generator.

    Raises NotStrictlyConvex when no such functional exists, which is
    exactly the case of a cone containing a line.
    """
    gens = [_frac_vec(g) for g in generators]
    if not gens:
        return (0,) * rank
    ineqs = [(tuple(g), Fraction(1)) for g in gens]
    sol = fm_solve(ineqs, rank)
    if sol is None:
        raise NotStrictlyConvex(f"no witness functional for generators {list(generators)}")
    denql = 1
    for c in sol:
        denql = denql * c.denominator // gcd(denql, c.denominator)
    xi = tuple(int(c * denql) for c in sol)
    for g in gens:
        assert sum(Fraction(a) * b for a, b in zip(xi, g)) >= 1
    return xi


def cone_facets(generators, rank: int) -> tuple[tuple[int, ...], ...]:
    """Facet inequalities of the cone spanned by the generators.

    Returns integer functionals f such that membership in the cone is
    exactly "f(v) >= 0 for every f".  Works for cones of any dimension
    (lower-dimensional cones come back with paired opposite facets).
    """
    gens = [_frac_vec(g) for g in generators]
    k = len(gens)
    if k == 0:
        rows = []
        for i in range(rank):
            e = [0] * rank
            e[i] = 1
            rows.append(tuple(e))
            rows.append(tuple(-x for x in e))
        return tuple(rows)
    # Variables: y_1..y_k, then v_1..v_rank.  Project out the y's from
    # { y >= 0, sum_i y_i g_i = v }.
    n = k + rank
    ineqs: list[Ineq] = []
    for i in range(k):
        c = [Fraction(0)] * n
        c[i] = Fraction(1)
        ineqs.append((tuple(c), Fraction(0)))
    for j in range(rank):
        c = [Fraction(0)] * n
        for i in range(k):
            c[i] = gens[i][j]
        c[k + j] = Fraction(-1)
        ineqs.append((tuple(c), Fraction(0)))
        ineqs.append((tuple(-x for x in c), Fraction(0)))
    system = sorted(_normalize_ineq(*r) for r in ineqs)
    for idx in range(k - 1, -1, -1):
        system = _eliminate(system, idx)
    facets = set()
    for coeffs, rhs in system:
        assert rhs == 0, "cone projection must stay homogeneous"
        row = coeffs[k:]
        if all(c == 0 for c in row):
            continue
        facets.add(tuple(int(c) for c in row))
    return tuple(sorted(facets))


def in_cone(facets, v) -> bool:
    return all(sum(f[i] * v[i] for i in range(len(v))) >= 0 for f in facets)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (matrix, pivot column list)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        scale = mat[r][c]
        mat[r] = [x / scale for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def expand_in_basis(basis, v) -> tuple[Fraction, ...] | None:
    """Coefficients of v over the given vectors, or None if outside the span.

    The basis vectors need not be independent; among solutions the one
    produced by echelon back-substitution (free coefficients zero) is
    returned, which makes results deterministic.
    """
    k = len(basis)
    rank = len(v)
    if k == 0:
        return () if all(Fraction(x) == 0 for x in v) else None
    rows = [[basis[i][j] for i in range(k)] + [v[j]] for j in range(rank)]
    mat, pivots = rref(rows)
    coeffs = [Fraction(0)] * k
    for rowi, c in enumerate(pivots):
        if c == k:
            return None  # pivot in the augmented column: inconsistent
        coeffs[c] = mat[rowi][k]
    # Rows below the pivots are zero by construction of rref.
    return tuple(coeffs)


def in_rational_span(vectors, v) -> bool:
    return expand_in_basis(vectors, v) is not None


def functional_with_values(vectors, values, rank: int) -> tuple[Fraction, ...]:
    """A functional f with f(vectors[i]) == values[i] for all i.

    Underdetermined systems are resolved by setting free coordinates to
    zero.  Raises MathError when the conditions are inconsistent.
    """
    rows = [[vec[j] for j in range(rank)] + [val] for vec, val in zip(vectors, values)]
    if not rows:
        return tuple(Fraction(0) for _ in range(rank))
    mat, pivots = rref(rows)
    f = [Fraction(0)] * rank
    for rowi, c in enumerate(pivots):
        if c == rank:
            raise MathError("inconsistent functional conditions")
        f[c] = mat[rowi][rank]
    for vec, val in zip(vectors, values):
        assert sum(f[j] * vec[j] for j in range(rank)) == val
    return tuple(f)
