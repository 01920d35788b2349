"""Exact coefficient ring: Laurent polynomials in v with v**2 = q.

Half-integral powers of the residue cardinality q occur throughout the
transform formulas (normalized Hecke values carry q**(1/2) shifts), so
coefficients live in Q[v, v**-1] with v**2 = q.  Exponents are stored on
v as plain integers and coefficients are `fractions.Fraction`; nothing
is ever rounded.

The canonical printed form lists terms by ascending exponent and writes
exponents as powers of q, halves included, e.g. ``q^-3/2 + 2 - q``.
`parse` reads the same format back.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError

__all__ = [
    "QLaurent",
    "qmonomial",
    "parse_qlaurent",
    "ZERO",
    "ONE",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QLaurent:
    """Immutable Laurent polynomial in v (v**2 = q) over the rationals.

    The constructor takes a mapping from v-exponent to coefficient and
    drops zero coefficients.  Arithmetic via the usual operators; ints
    and Fractions coerce to constants.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(k, int):
                    raise TypeError(f"v-exponent must be int, got {k!r}")
                c = _as_fraction(c)
                if c != 0:
                    clean[k] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QLaurent is immutable")

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        """Copy of the v-exponent to coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_value(self) -> Fraction:
        """The value as a rational, if the element is a constant."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {0}:
            return self._terms[0]
        raise ValueError(f"not a constant: {self.render()}")

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QLaurent":
        if isinstance(x, QLaurent):
            return x
        if isinstance(x, (int, Fraction)):
            return QLaurent({0: Fraction(x)})
        return NotImplemented

    def __add__(self, other):
        other = QLaurent._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = QLaurent._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = QLaurent._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = QLaurent._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                k = ka + kb
                s = out.get(k, Fraction(0)) + ca * cb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return QLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def invert_q(self) -> "QLaurent":
        """The involution q -> q**-1 (that is, v -> v**-1)."""
        return QLaurent({-k: c for k, c in self._terms.items()})

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent._coerce(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- rendering -----------------------------------------------------

    @staticmethod
    def _power_string(k: int) -> str:
        # k is the v-exponent; print as a q-power, halves as fractions.
        e = Fraction(k, 2)
        if e == 1:
            return "q"
        return f"q^{e}"

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms):
            c = self._terms[k]
            if k == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = self._power_string(k)
            else:
                body = f"{abs(c)}*{self._power_string(k)}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return self.render()


ZERO = QLaurent()
ONE = QLaurent({0: 1})


def qmonomial(exponent) -> QLaurent:
    """The monomial q**exponent for a half-integral exponent.

    Accepts ints, Fractions and strings like "-3/2".  Anything with a
    denominator other than 1 or 2 is rejected.
    """
    e = _as_fraction(exponent)
    if e.denominator not in (1, 2):
        raise ValueError(f"exponent must be a half-integer, got {e}")
    return QLaurent({int(2 * e): 1})


def parse_qlaurent(text: str) -> QLaurent:
    """Parse the canonical rendering back into a ring element."""
    s = text.strip()
    if not s:
        raise FormatError("empty coefficient string")
    if s == "0":
        return ZERO
    # Cut into signed summands.  The canonical form separates terms by
    # " + " and " - ", and only exponents contain interior minus signs.
    summands: list[tuple[int, str]] = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    while True:
        plus = s.find(" + ")
        minus = s.find(" - ")
        if plus == -1 and minus == -1:
            summands.append((sign, s))
            break
        if minus == -1 or (plus != -1 and plus < minus):
            summands.append((sign, s[:plus]))
            sign, s = 1, s[plus + 3 :]
        else:
            summands.append((sign, s[:minus]))
            sign, s = -1, s[minus + 3 :]
    acc: dict[int, Fraction] = {}
    for sgn, tok in summands:
        tok = tok.strip()
        if not tok:
            raise FormatError(f"bad coefficient string: {text!r}")
        try:
            coef, vexp = _parse_term(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad term {tok!r} in {text!r}") from exc
        acc[vexp] = acc.get(vexp, Fraction(0)) + sgn * coef
    return QLaurent(acc)


def _parse_term(tok: str) -> tuple[Fraction, int]:
    if "*" in tok:
        cpart, qpart = tok.split("*", 1)
        coef = Fraction(cpart)
    else:
        if tok.startswith("q"):
            coef, qpart = Fraction(1), tok
        else:
            return Fraction(tok), 0
    if qpart == "q":
        return coef, 2
    if not qpart.startswith("q^"):
        raise ValueError(f"not a q-power: {qpart!r}")
    e = Fraction(qpart[2:])
    if e.denominator not in (1, 2):
        raise ValueError(f"exponent not half-integral: {e}")
    return coef, int(2 * e)
