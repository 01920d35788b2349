"""Weyl groups as explicit integer matrices: the oracle for the orbit.

The library lists a Weyl group as the orbit of rho_check under the simple
reflections.  This module builds the same group the independent way, as
the matrices generated by the simple reflections, found by breadth first
search from the identity (and, for `brute_closure`, by closing a set
under products).  The Freudenthal, full-Weyl symmetrizer and partition
oracles of the other test files act through these matrices.
"""

from __future__ import annotations

import functools

from satake.root_weyl import ReflectionDatum, RootDatum, intify, reflect

Matrix = tuple[tuple[int, ...], ...]


def reflection_matrix(datum: ReflectionDatum) -> Matrix:
    """The reflection as an integer matrix acting on column vectors."""
    n = len(datum.coroot)
    cols = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cols.append(intify(reflect(datum, tuple(e))))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def mat_apply(m: Matrix, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@functools.cache
def matrix_weyl(datum: RootDatum) -> tuple[tuple[Matrix, int], ...]:
    """Every element of the Weyl group as a matrix, with its BFS word length.

    Identity first, then layer by layer, each layer sorted by matrix entries.
    """
    gens = [reflection_matrix(g) for g in datum.simples()]
    ident = identity_matrix(datum.rank)
    out = [(ident, 0)]
    seen = {ident}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        layer = {mat_mul(s, w) for w in frontier for s in gens} - seen
        frontier = sorted(layer)
        seen |= layer
        out += [(w, depth) for w in frontier]
    return tuple(out)


def brute_closure(generators) -> set[Matrix]:
    """The group generated by the reflections, closed under products."""
    gens = [reflection_matrix(g) for g in generators]
    n = len(gens[0])
    seen = {identity_matrix(n)}
    while True:
        fresh = set()
        for w in seen:
            for s in gens:
                sw = mat_mul(s, w)
                if sw not in seen:
                    fresh.add(sw)
        if not fresh:
            return seen
        seen |= fresh
