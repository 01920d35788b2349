"""Weyl groups, the denominator identity, and Demazure characters.

Walks through the reflection-group layer that everything else sits on:
list a Weyl group as the orbit of rho_check under its simple reflections
(one point and one word length per element), verify the signed sum over
the group against the product over positive coroots, then build weight
multiplicities with the Demazure character formula pi_{w0}(e^lowest) and
check the dimension formula.
"""

from satake import (
    QLaurent,
    b2_datum,
    gl_datum,
    lowest_weight_rep,
    weyl_denominator,
    weyl_dimension,
    weyl_of,
)
from satake.root_weyl import vadd


def main():
    print("== Weyl group orders ==")
    for name, datum in [("gl2", gl_datum(2)), ("gl3", gl_datum(3)),
                        ("gl4", gl_datum(4)), ("b2", b2_datum())]:
        group = weyl_of(datum)
        lengths = [l for _, l in group]
        print(f"  {name}: order {len(lengths)}, longest element length {max(lengths)}")
    print()

    # -- denominator identity on B2 ---------------------------------------

    datum = b2_datum()
    lhs = weyl_denominator(datum)

    acc = {(0, 0): 1}
    for d in datum.positive:
        out = {}
        for k, c in acc.items():
            out[k] = out.get(k, 0) + c
            s = vadd(k, d.coroot)
            out[s] = out.get(s, 0) - c
        acc = {k: c for k, c in out.items() if c}
    rhs = {k: QLaurent({0: c}) for k, c in acc.items()}

    assert lhs == rhs
    print(f"B2 denominator identity holds on {len(lhs)} monomials:")
    for k in sorted(lhs):
        print(f"  e^{k}: {lhs[k].render()}")
    print()

    # -- Demazure characters ------------------------------------------------

    print("== weight multiplicities from the lowest weight ==")
    cases = [
        (gl_datum(3), (-1, 0, 1), "adjoint-type rep of GL3"),
        (b2_datum(), (-1, 0), "4 dimensional rep"),
        (b2_datum(), (-2, 0), "10 dimensional rep"),
    ]
    for datum, lowest, label in cases:
        char = lowest_weight_rep(datum, lowest)
        dim = weyl_dimension(datum, lowest)
        assert sum(char.values()) == dim
        inner = {k: m for k, m in char.items() if m > 1}
        print(f"  lowest {lowest} ({label}): dimension {dim}, "
              f"repeated weights {inner or 'none'}")


if __name__ == "__main__":
    main()
