"""Truncated multivariate power series over exact rationals.

Truncation is by total degree.  A rational function N / prod F_i^m_i is
expanded by one integer recurrence.  Denominators are cleared once:
N = N'/L and F_i = F_i'/M_i with integer N' and F_i', and D is the
product of the F_i'^m_i truncated to the order, with c = D(0).  After the
substitution y -> c*y, Q = c * N'(cy) / D(cy) has integer coefficients,

    Q_e = c^|e| n'_e - sum_{g != 0} D_g c^(|g|-1) Q_(e-g),

and the expansion is q_e = (prod M_i^m_i / L) * Q_e / c^(|e|+1), one
Fraction per coefficient.  The recurrence runs push-style: once Q_e is
final it is subtracted into every Q_(e+g) still within the order, with
the terms of D taken by degree, so no exponent e - g is ever formed.  The
integer maps are keyed by packed exponents, |e| followed by the entries
of e as digits in base order + 1; every digit is at most the order, so
adding two keys of total degree <= order adds their exponents with no
carry, and the key order is the degree order.  Before it is returned, Q
is multiplied by each F_i'(cy) in turn, in integers, and must give
c * N'(cy): a mandatory residual check that shares nothing with the
recurrence but the input, so a wrong expansion cannot escape this module.
Each exponent of q is decoded from its own key, one digit column at a
time, so a sparse expansion decodes only the terms it has.
When c = 1 and L = 1, as for every bundled closed form, each q_e is the
integer (prod M_i^m_i) * Q_e and its Fraction is built with no gcd.

A coefficient of a product of powers of linear forms is taken termwise by
one integer kernel, following a plan of the forms that a caller builds
once and shares across all its coefficients, with one factorial table: a
form with a single nonzero entry contributes its one term, and every
other power is expanded by multinomials only over the variables where its
form is nonzero.
This route shares nothing with the closed forms or their expansion.
The loops that read every exponent of a shape, the product termwise
series and verify_family's rows, share one layout of them per (nvars,
order), in degree and then lex order, in a cache bounded at 8 shapes.

Orders, exponents and multiplicities must be ints, and coefficients ints
or Fractions; a float is refused with a TypeError naming the argument.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .laurent import LaurentPolynomial, compositions
from .linalg import _coef, _int, _order, require


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
        order = _order(order)
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
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
        exp = tuple(_int(x, "exponent entry") for x in exp)
        if len(exp) != self.nvars:
            raise ValueError(
                f"exponent {exp} must have {self.nvars} entries")
        return self.coeffs.get(exp, Fraction(0))

    def _ring(self, other, op):
        """op on both series as LaurentPolynomials, truncated to the lower
        order."""
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.nvars != other.nvars:
            raise ValueError("series variable count mismatch")
        order = min(self.order, other.order)
        poly = op(LaurentPolynomial(self.nvars, self.coeffs),
                  LaurentPolynomial(other.nvars, other.coeffs))
        return TruncatedSeries._exact(self.nvars, order, {
            e: c for e, c in poly.terms.items() if sum(e) <= order})

    def __add__(self, other):
        return self._ring(other, operator.add)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._ring(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            # a scalar is the constant series of the same order
            other = TruncatedSeries._exact(self.nvars, self.order, {
                (0,) * self.nvars: _coef(other, "scalar")})
        return self._ring(other, operator.mul)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.nvars == other.nvars and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        # variable-free: a weighted series is in y, a product series in z
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return (f"TruncatedSeries(nvars={self.nvars}, order={self.order}, "
                f"{{{body}}})")

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
        result = LaurentPolynomial(self.nvars, self.numerator).evaluate(values)
        for fac, mult in self.denominator_factors:
            val = LaurentPolynomial(self.nvars, fac).evaluate(values)
            if val == 0:
                raise ZeroDivisionError("denominator factor vanishes")
            result /= val ** mult
        return result


@functools.lru_cache(maxsize=8)
def _layout(nvars, order):
    """Every exponent in nvars variables of total degree <= order, by
    degree and then in the lex order compositions lists each degree in, as
    a tuple shared by the loops that read every exponent of that shape:
    the product termwise series and verify_family's rows.  Each table holds
    C(order + nvars, nvars) tuples, as many as a full series of the shape,
    which is why expand_rational decodes its own keys instead."""
    rows = [(0, ())]  # (degree, exponent)
    for _ in range(nvars):
        rows = [(t + x, e + (x,))
                for t, e in rows for x in range(order + 1 - t)]
    return tuple(e for _, e in sorted(rows))


def _integral(poly, base, order):
    """(P, L) with poly = P / L: L is the least common denominator of
    poly's coefficients and P the integer map of L * poly, keyed by packed
    exponents (see the module docstring), without terms of degree > order."""
    lcd = math.lcm(*(c.denominator for c in poly.values()))
    packed = {}
    for e, c in poly.items():
        key = sum(e)
        if key <= order:
            for x in e:
                key = key * base + x
            packed[key] = c.numerator * (lcd // c.denominator)
    return packed, lcd


def _truncated_product(a, b, limit):
    """a * b for packed integer maps, without keys >= limit: the terms of
    degree above the order when limit is (order + 1)^(nvars + 1)."""
    small = sorted(b.items())
    out = {}
    for k1, c1 in a.items():
        room = limit - k1
        for k2, c2 in small:
            if k2 >= room:
                break
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _denominator(nvars, factors, order):
    """prod F^m over the (packed integer map F, m) pairs, to the order."""
    limit = (order + 1) ** (nvars + 1)
    out = {0: 1}
    for fac, mult in factors:
        for _ in range(mult):
            out = _truncated_product(out, fac, limit)
    return out


def expand_rational(spec, order):
    """Expand numerator / prod(factor^mult) to the given total order.

    One integer recurrence in y -> c*y (see the module docstring); the
    integer expansion is multiplied back by each factor and compared
    against the numerator, exactly, before the result is returned.
    """
    if not isinstance(spec, RationalFunctionSpec):
        raise TypeError("expected a RationalFunctionSpec")
    order = _order(order)
    nvars = spec.nvars
    base = order + 1
    unit = base ** nvars  # a packed key's degree is key // unit
    num, scale_den = _integral(spec.numerator, base, order)
    scale_num = 1
    factors = []
    for fac, mult in spec.denominator_factors:
        fac, lcd = _integral(fac, base, order)
        factors.append((fac, mult))
        scale_num *= lcd ** mult
    den = _denominator(nvars, factors, order)
    c = den.pop(0)
    cpow = [1]
    for _ in range(base):
        cpow.append(cpow[-1] * c)
    rest = sorted((g, g // unit, d * cpow[g // unit - 1])
                  for g, d in den.items())
    pending = [{} for _ in range(base)]  # pending[t]: Q at degree t so far
    for key, n in num.items():
        pending[key // unit][key] = n * cpow[key // unit]
    q = {}
    for total in range(base):
        for key, acc in pending[total].items():
            if not acc:
                continue
            q[key] = acc
            for g, deg, d in rest:
                if total + deg > order:
                    break
                ahead = pending[total + deg]
                ahead[key + g] = ahead.get(key + g, 0) - d * acc
        pending[total] = None
    check = q
    limit = base * unit
    for fac, mult in factors:
        scaled = {g: f * cpow[g // unit] for g, f in fac.items()}
        for _ in range(mult):
            check = _truncated_product(check, scaled, limit)
    require(check == {k: n * cpow[k // unit + 1] for k, n in num.items()},
            "expand_rational: expansion * denominator != numerator")
    # q's own exponents, decoded one digit column at a time
    keys = list(q)
    places = [base ** i for i in range(nvars - 1, -1, -1)]
    exponents = zip(*[[key // p % base for key in keys] for p in places])
    if c == 1 and scale_den == 1:
        coeffs = {e: Fraction(scale_num * v)
                  for e, v in zip(exponents, q.values())}
    else:
        coeffs = {e: Fraction(scale_num * v, scale_den * cpow[key // unit + 1])
                  for e, key, v in zip(exponents, keys, q.values())}
    return TruncatedSeries._exact(nvars, order, coeffs)


def _factorials(top):
    """[0!, 1!, ..., top!], the table a caller shares across its calls of
    the linear-form kernel."""
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i
    return fact


def _linear_form_plan(vecs):
    """What the kernel needs of the linear forms v_j (int vectors), worked
    out once for every coefficient taken of their product.

    Returns (forced, general): (j, i, v) for each form whose one nonzero
    entry is v at coordinate i, and (j, support, values) for every other
    form, in order; an all-zero form is general with an empty support.
    """
    forced, general = [], []
    for j, vec in enumerate(vecs):
        support = [i for i, v in enumerate(vec) if v]
        if len(support) == 1:
            forced.append((j, support[0], vec[support[0]]))
        else:
            general.append((j, support, [vec[i] for i in support]))
    return forced, general


def _multinomial_term(e, m, vals, fact):
    """e!/prod m_i! * prod v_i^m_i, in integers."""
    coef = fact[e]
    for mi in m:
        coef //= fact[mi]
    for v, mi in zip(vals, m):
        coef *= v ** mi
    return coef


def _linear_form_kernel(plan, powers, target, fact):
    """Integer coefficient of z^target in prod_j (sum_i v_{ji} z_i)^(e_j).

    plan: _linear_form_plan of the v_j; powers: the e_j; target:
    nonnegative ints; fact: k! for every k up to the largest e_j.  An
    all-zero form contributes 1 to the power 0 and kills the product at
    any higher power.  A forced form, v z_i, contributes its single term
    v^e z_i^e: e comes off target_i, and a negative remainder gives 0 at
    once.  The general forms are expanded by the multinomial theorem over
    the compositions m of e supported where v_i != 0 that fit under what
    is left of the target, convolved in order, and the last one
    contributes its single term m = what is left.  With no general form
    the coefficient is the forced product, where nothing is left.
    """
    forced, general = plan
    rest = list(target)
    coef = 1
    for j, i, v in forced:
        e = powers[j]
        rest[i] -= e
        if rest[i] < 0:
            return 0
        coef *= v ** e
    if not general:
        return 0 if any(rest) else coef
    current = {tuple(rest): coef}
    for j, support, vals in general[:-1]:
        e = powers[j]
        nxt = {}
        for left, c in current.items():
            for m in compositions(e, len(support), [left[i] for i in support]):
                key = list(left)
                for i, mi in zip(support, m):
                    key[i] -= mi
                key = tuple(key)
                nxt[key] = (nxt.get(key, 0)
                            + c * _multinomial_term(e, m, vals, fact))
        if not nxt:
            return 0
        current = nxt
    j, support, vals = general[-1]
    e = powers[j]
    total = 0
    for left, c in current.items():
        m = [left[i] for i in support]
        # the single term must take all that is left, and have degree e
        if sum(m) == e == sum(left):
            total += c * _multinomial_term(e, m, vals, fact)
    return total


def linear_form_power_coefficient(forms, target):
    """Coefficient of z^target in prod_j (sum_i v_{ji} z_i)^(e_j).

    forms: list of (coefficient vector over the z variables, exponent e_j).
    Every form is homogeneous linear, so only a nonnegative target of total
    degree sum_j e_j can have a nonzero coefficient.  Each form is cleared
    of denominators, v_j = v'_j / L_j, and the integer kernel (see
    _linear_form_kernel) takes the coefficient for the v'_j with their plan
    and a factorial table; the result is that integer over
    prod_j L_j^(e_j), the one Fraction of the call.  This route is
    independent of the closed forms and their expansions.
    """
    target = tuple(_int(x, "target entry") for x in target)
    nvars = len(target)
    vecs, powers = [], []
    scale = 1
    for vec, e in forms:
        vec = [_coef(x, "linear form entry") for x in vec]
        if len(vec) != nvars:
            raise ValueError("linear form length mismatch")
        e = _int(e, "linear form power")
        if e < 0:
            raise ValueError("negative power of a linear form")
        lcd = math.lcm(*(v.denominator for v in vec))
        vecs.append([v.numerator * (lcd // v.denominator) for v in vec])
        powers.append(e)
        scale *= lcd ** e
    if any(x < 0 for x in target) or sum(target) != sum(powers):
        return Fraction(0)
    fact = _factorials(max(powers, default=0))
    raw = _linear_form_kernel(_linear_form_plan(vecs), powers, target, fact)
    return Fraction(raw, scale)
