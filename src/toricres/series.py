"""Truncated multivariate power series over exact rationals.

Truncation is by total degree.  Rational functions are expanded by direct
coefficient recurrences (constant-term division), and every expansion is
re-multiplied against its denominator as a mandatory residual check, so a
wrong expansion cannot escape this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .laurent import compositions
from .linalg import require


def inv_factorial(n):
    """1/n! with the convention that negative integers give 0."""
    n = int(n)
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def _clean_poly(nvars, mapping, what):
    clean = {}
    for exp, coef in mapping.items():
        exp = tuple(int(x) for x in exp)
        if len(exp) != nvars:
            raise ValueError(f"{what}: exponent {exp} has wrong length")
        if any(x < 0 for x in exp):
            raise ValueError(f"{what}: negative exponent {exp}")
        coef = Fraction(coef)
        if coef != 0:
            clean[exp] = coef
    return clean


class TruncatedSeries:
    """Power series kept exactly up to a total-degree bound."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs=None):
        nvars = int(nvars)
        order = int(order)
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

    def __setattr__(self, *_):
        raise AttributeError("TruncatedSeries is immutable")

    def coefficient(self, exp):
        return self.coeffs.get(tuple(int(x) for x in exp), Fraction(0))

    def _join(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.nvars != other.nvars:
            raise ValueError("series variable count mismatch")
        return min(self.order, other.order)

    def __add__(self, other):
        order = self._join(other)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
        return TruncatedSeries(self.nvars, order, coeffs)

    def __neg__(self):
        return TruncatedSeries(self.nvars, self.order,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = Fraction(other)
            return TruncatedSeries(
                self.nvars, self.order,
                {e: c * scalar for e, c in self.coeffs.items()})
        order = self._join(other)
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            if d1 > order:
                continue
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                coeffs[e] = coeffs.get(e, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.nvars, order, coeffs)

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
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        num = _clean_poly(nvars, numerator, "numerator")
        factors = []
        for fac, mult in denominator_factors:
            mult = int(mult)
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
        values = [Fraction(v) for v in values]
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


def _divide(series, factor, order):
    """series / factor as a TruncatedSeries, by graded coefficient recurrence."""
    nvars = series.nvars
    c0 = factor[(0,) * nvars]
    rest = {e: c for e, c in factor.items() if any(e)}
    q = {}
    for total in range(order + 1):
        for e in compositions(total, nvars):
            acc = series.coeffs.get(e, Fraction(0))
            for f, cf in rest.items():
                g = tuple(a - b for a, b in zip(e, f))
                if any(x < 0 for x in g):
                    continue
                acc -= cf * q.get(g, Fraction(0))
            if acc != 0:
                q[e] = acc / c0
    return TruncatedSeries(nvars, order, q)


def expand_rational(spec, order):
    """Expand numerator / prod(factor^mult) to the given total order.

    The result is multiplied back by the denominator and compared against
    the numerator, exactly, before being returned.
    """
    order = int(order)
    out = TruncatedSeries(spec.nvars, order, spec.numerator)
    for fac, mult in spec.denominator_factors:
        for _ in range(mult):
            out = _divide(out, fac, order)
    check = out
    for fac, mult in spec.denominator_factors:
        fac_series = TruncatedSeries(spec.nvars, order, fac)
        for _ in range(mult):
            check = check * fac_series
    require(check == TruncatedSeries(spec.nvars, order, spec.numerator),
            "expand_rational: expansion * denominator != numerator")
    return out


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
    target = tuple(int(x) for x in target)
    nvars = len(target)
    clean = []
    for vec, e in forms:
        vec = [Fraction(x) for x in vec]
        if len(vec) != nvars:
            raise ValueError("linear form length mismatch")
        e = int(e)
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
