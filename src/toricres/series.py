"""Truncated multivariate power series over exact rationals.

Truncation is by total degree.  A rational function N / prod F_i^m_i is
expanded by one integer recurrence.  Denominators are cleared once:
N = N'/L and F_i = F_i'/M_i with integer N' and F_i', and D is the
product of the F_i'^m_i truncated to the order, with c = D(0).  After the
substitution y -> c*y, Q = c * N'(cy) / D(cy) has integer coefficients,

    Q_e = c^|e| n'_e - sum_{g != 0} D_g c^(|g|-1) Q_(e-g),

and the expansion is q_e = (prod M_i^m_i / L) * Q_e / c^(|e|+1), one
Fraction per coefficient.  Before it is returned, Q is multiplied by each
F_i'(cy) in turn, in integers, and must give c * N'(cy): a mandatory
residual check that shares nothing with the recurrence but the input, so
a wrong expansion cannot escape this module.

Orders, exponents and multiplicities must be ints, and coefficients ints
or Fractions; a float is refused with a TypeError naming the argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub

from .laurent import compositions
from .linalg import _coef, _int, require


def inv_factorial(n):
    """1/n! with the convention that negative integers give 0."""
    n = _int(n, "n")
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def _clean_poly(nvars, mapping, what):
    clean = {}
    what_exp, what_coef = f"{what} exponent entry", f"{what} coefficient"
    for exp, coef in mapping.items():
        exp = tuple(_int(x, what_exp) for x in exp)
        if len(exp) != nvars:
            raise ValueError(f"{what}: exponent {exp} has wrong length")
        if any(x < 0 for x in exp):
            raise ValueError(f"{what}: negative exponent {exp}")
        coef = _coef(coef, what_coef)
        if coef != 0:
            clean[exp] = coef
    return clean


class TruncatedSeries:
    """Power series kept exactly up to a total-degree bound."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs=None):
        nvars = _int(nvars, "nvars")
        order = _int(order, "order")
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")
        clean = _clean_poly(nvars, coeffs or {}, "series")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "coeffs",
            {e: c for e, c in clean.items() if sum(e) <= order})

    @classmethod
    def _exact(cls, nvars, order, coeffs):
        """A series of data that is exact already: int nvars >= 1 and
        order >= 0, tuple exponents of total degree <= order, nonzero
        Fraction coefficients.  Nothing is checked or copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, *_):
        raise AttributeError("TruncatedSeries is immutable")

    def coefficient(self, exp):
        return self.coeffs.get(tuple(_int(x, "exponent entry") for x in exp),
                               Fraction(0))

    def _join(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.nvars != other.nvars:
            raise ValueError("series variable count mismatch")
        return min(self.order, other.order)

    def __add__(self, other):
        order = self._join(other)
        coeffs = {e: c for e, c in self.coeffs.items() if sum(e) <= order}
        for e, c in other.coeffs.items():
            if sum(e) <= order:
                coeffs[e] = coeffs.get(e, 0) + c
        return TruncatedSeries._exact(
            self.nvars, order, {e: c for e, c in coeffs.items() if c})

    def __neg__(self):
        return TruncatedSeries._exact(
            self.nvars, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = _coef(other, "scalar")
            return TruncatedSeries._exact(
                self.nvars, self.order,
                {e: c * scalar for e, c in self.coeffs.items()}
                if scalar else {})
        order = self._join(other)
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            if d1 > order:
                continue
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(map(add, e1, e2))
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return TruncatedSeries._exact(
            self.nvars, order, {e: c for e, c in coeffs.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.nvars == other.nvars and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        bits = [f"{c}*y^{list(e)}" for e, c in sorted(self.coeffs.items())]
        body = " + ".join(bits) if bits else "0"
        return f"TruncatedSeries(order={self.order}, {body})"

    def items(self):
        """Coefficients in lexicographic exponent order."""
        return sorted(self.coeffs.items())


class RationalFunctionSpec:
    """numerator / prod(factor^multiplicity), all exponent maps.

    Each denominator factor must have a nonzero constant term so that it is
    invertible as a power series.
    """

    __slots__ = ("nvars", "numerator", "denominator_factors")

    def __init__(self, nvars, numerator, denominator_factors):
        nvars = _int(nvars, "nvars")
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        num = _clean_poly(nvars, numerator, "numerator")
        factors = []
        for fac, mult in denominator_factors:
            mult = _int(mult, "factor multiplicity")
            if mult < 1:
                raise ValueError("factor multiplicity must be >= 1")
            fac = _clean_poly(nvars, fac, "denominator factor")
            if fac.get((0,) * nvars, Fraction(0)) == 0:
                raise ValueError(
                    "denominator factor has zero constant term")
            factors.append((fac, mult))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator_factors", tuple(factors))

    def __setattr__(self, *_):
        raise AttributeError("RationalFunctionSpec is immutable")

    def evaluate(self, values):
        """Exact value at a point where no denominator factor vanishes."""
        values = [_coef(v, "value") for v in values]
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")

        def poly_at(poly):
            total = Fraction(0)
            for e, c in poly.items():
                term = c
                for v, k in zip(values, e):
                    term *= v ** k
                total += term
            return total

        result = poly_at(self.numerator)
        for fac, mult in self.denominator_factors:
            val = poly_at(fac)
            if val == 0:
                raise ZeroDivisionError("denominator factor vanishes")
            result /= val ** mult
        return result


def _integral(poly):
    """(P, L) with poly = P / L, P an integer map and L the least common
    denominator of poly's coefficients."""
    lcd = math.lcm(*(c.denominator for c in poly.values()))
    return {e: c.numerator * (lcd // c.denominator)
            for e, c in poly.items()}, lcd


def _truncated_product(a, b, order):
    """a * b for integer exponent maps, without terms of degree > order."""
    small = [(e, c, sum(e)) for e, c in b.items()]
    out = {}
    for e1, c1 in a.items():
        room = order - sum(e1)
        for e2, c2, d2 in small:
            if d2 <= room:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _denominator(nvars, factors, order):
    """prod F^m over the (integer map F, m) pairs, to the given order."""
    out = {(0,) * nvars: 1}
    for fac, mult in factors:
        for _ in range(mult):
            out = _truncated_product(out, fac, order)
    return out


def expand_rational(spec, order):
    """Expand numerator / prod(factor^mult) to the given total order.

    One integer recurrence in y -> c*y (see the module docstring); the
    integer expansion is multiplied back by each factor and compared
    against the numerator, exactly, before the result is returned.
    """
    if not isinstance(spec, RationalFunctionSpec):
        raise TypeError("expected a RationalFunctionSpec")
    order = _int(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")
    nvars = spec.nvars
    num, scale_den = _integral(spec.numerator)
    scale_num = 1
    factors = []
    for fac, mult in spec.denominator_factors:
        fac, lcd = _integral(fac)
        factors.append((fac, mult))
        scale_num *= lcd ** mult
    den = _denominator(nvars, factors, order)
    zero = (0,) * nvars
    c = den[zero]
    cpow = [1]
    for _ in range(order + 1):
        cpow.append(cpow[-1] * c)
    rest = [(g, d * cpow[sum(g) - 1]) for g, d in den.items() if g != zero]
    q = {}
    for total in range(order + 1):
        ct = cpow[total]
        for e in compositions(total, nvars):
            acc = num.get(e, 0) * ct
            for g, d in rest:
                prev = q.get(tuple(map(sub, e, g)))
                if prev:
                    acc -= d * prev
            if acc:
                q[e] = acc
    check = q
    for fac, mult in factors:
        scaled = {g: f * cpow[sum(g)] for g, f in fac.items()
                  if sum(g) <= order}
        for _ in range(mult):
            check = _truncated_product(check, scaled, order)
    require(check == {e: n * cpow[sum(e) + 1] for e, n in num.items()
                      if sum(e) <= order},
            "expand_rational: expansion * denominator != numerator")
    return TruncatedSeries._exact(
        nvars, order,
        {e: Fraction(scale_num * v, scale_den * cpow[sum(e) + 1])
         for e, v in q.items()})


def linear_form_power_coefficient(forms, target):
    """Coefficient of z^target in prod_j (sum_i v_{ji} z_i)^(e_j).

    forms: list of (coefficient vector over the z variables, exponent e_j).
    Every form is homogeneous linear, so only a nonnegative target of total
    degree sum_j e_j can have a nonzero coefficient.  Each power is
    expanded by the multinomial theorem, e!/prod m_i! * prod v_i^m_i, over
    the compositions m that fit under target minus the exponent built so
    far and vanish where v_i = 0; the forms are convolved in order, and the
    last one contributes its single term m = target - (partial exponent).
    Integer entries stay integers until the one Fraction of the result.
    This route is independent of the closed forms and their expansions.
    """
    target = tuple(_int(x, "target entry") for x in target)
    nvars = len(target)
    clean = []
    for vec, e in forms:
        vec = [_coef(x, "linear form entry") for x in vec]
        if len(vec) != nvars:
            raise ValueError("linear form length mismatch")
        e = _int(e, "linear form power")
        if e < 0:
            raise ValueError("negative power of a linear form")
        clean.append(([int(v) if v.denominator == 1 else v for v in vec], e))
    if any(x < 0 for x in target) or sum(target) != sum(e for _, e in clean):
        return Fraction(0)
    if not clean:
        return Fraction(1)
    fact = [1]
    for i in range(1, max(e for _, e in clean) + 1):
        fact.append(fact[-1] * i)

    def term(vec, e, m):
        coef = fact[e]
        for mi in m:
            coef //= fact[mi]
        for v, mi in zip(vec, m):
            if mi:
                coef *= v ** mi
        return coef

    current = {(0,) * nvars: 1}
    for vec, e in clean[:-1]:
        nxt = {}
        for mono, coef in current.items():
            caps = [t - x if v else 0 for t, x, v in zip(target, mono, vec)]
            for m in compositions(e, nvars, caps):
                key = tuple(x + mi for x, mi in zip(mono, m))
                nxt[key] = nxt.get(key, 0) + coef * term(vec, e, m)
        current = nxt
    vec, e = clean[-1]
    total = 0
    for mono, coef in current.items():
        m = [t - x for t, x in zip(target, mono)]
        if all(mi == 0 or v for v, mi in zip(vec, m)):
            total += coef * term(vec, e, m)
    return Fraction(total)
