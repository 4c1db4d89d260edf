"""Exact univariate algebra with integer coefficients.

Everything downstream works in the Catalan variable c, the power series
solving c = 1 + x^2 c^2 with c(0) = 1.  This module supplies the exact
building blocks:

  PolyC        polynomials in c, trailing zeros stripped (canonical degree).
  SeriesX      truncated power series in x, padded to order + 1
               coefficients; a result stops at the smaller order.
  RationalFnC  num / (2-c)^a, the only denominators the pipeline meets,
               stored as the reduced pair (num, a), so equality is
               plain comparison.

PolyC and SeriesX share one core over a dense int tuple, low to high:
add, subtract, schoolbook multiply, square-and-multiply power, int
coercion and equality within a class.  They differ only in how many
coefficients a result keeps.

An order-g moment correction in normal form is c/(2-c)^g times a
polynomial in t = (c-1)/(2-c); fine_structure_form gives its nonzero
coefficients as a dict theta[k] from a closed form, and theta_from_rows
gives the same dict from the correction's rook rows alone, by one
triangular solve over plain int lists in y = x^2.

Every coefficient is a plain int.  The two divisions stay integral:
divide_out_root divides by the monic c - root, and SeriesX.inverse needs
a constant term of +-1; any other constant term raises ValueError.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "NotFineStructure",
    "POLY_C",
    "POLY_ONE",
    "POLY_ZERO",
    "C_MINUS_ONE",
    "TWO_MINUS_C",
    "PolyC",
    "RationalFnC",
    "SeriesX",
    "catalan_number",
    "catalan_series",
    "divide_out_root",
    "expand_in_x",
    "fine_structure_form",
    "fine_structure_to_rational",
    "sum_over_two_minus_c",
    "theta_from_rows",
    "theta_support_window",
]

class NotFineStructure(ValueError):
    """The function is not c/(2-c)^g times a polynomial in t = (c-1)/(2-c)."""


class _Dense:
    """Immutable dense int coefficients, low to high, with the ring
    operations PolyC and SeriesX share.  An int operand is coerced to a
    constant; a result keeps _length(other, n) of its n coefficients."""

    __slots__ = ("coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self, cs):
        return type(self)(cs)

    def _length(self, other, n: int) -> int:
        return n

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, int):
            return self._new([other] + [0] * (len(self.coeffs) - 1))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a[: self._length(other, len(a))])
        for i, y in enumerate(b[: len(out)]):
            out[i] += y
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, type(self))):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new([c * other for c in self.coeffs])
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = self._length(other, len(a) + len(b) - 1)
        out = [0] * n
        for i, x in enumerate(a[:n]):
            if x:
                for j, y in enumerate(b[: n - i]):
                    out[i + j] += x * y
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power; a series needs inverse() first")
        if not n:
            return self._coerce(1)
        result = self
        for bit in bin(n)[3:]:  # the bits after the leading one
            result = result * result
            if bit == "1":
                result = result * self
        return result


class PolyC(_Dense):
    """Dense univariate polynomial with int coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Canonical degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def derivative(self) -> "PolyC":
        return PolyC(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def eval_series(self, s: "SeriesX") -> "SeriesX":
        """Horner evaluation at a truncated series."""
        acc = SeriesX(s.order, ())
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, co in enumerate(self.coeffs):
            if co == 0:
                continue
            if i == 0:
                parts.append(str(co))
            else:
                mag = "" if abs(co) == 1 else f"{abs(co)}*"
                var = "c" if i == 1 else f"c^{i}"
                parts.append(("-" if co < 0 else "") + mag + var)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


POLY_ZERO = PolyC()
POLY_ONE = PolyC((1,))
POLY_C = PolyC((0, 1))
C_MINUS_ONE = PolyC((-1, 1))
TWO_MINUS_C = PolyC((2, -1))


def divide_out_root(p: PolyC, root: int, most: int) -> tuple[PolyC, int]:
    """Divide c - root out of p as often as it goes, at most `most` times.

    Returns (p / (c-root)^j, j) for the largest such j (j = most for the
    zero polynomial).  Each step is a synthetic division (Horner at
    c = root), so int coefficients stay ints; it stops at a nonzero
    remainder p(root).
    """
    cs, j = p.coeffs, 0
    while j < most:
        acc, partial = 0, []
        for c in reversed(cs):
            acc = root * acc + c
            partial.append(acc)
        if partial and partial.pop():
            break
        cs = tuple(reversed(partial))
        j += 1
    return (PolyC(cs) if j else p), j


def sum_over_two_minus_c(pairs: Iterable[tuple]) -> tuple[PolyC, int]:
    """Sum the fractions num/(2-c)^a given as pairs (num, a).

    Horner's rule over the pairs sorted by a: the running sum is kept
    over (2-c)^top, and each step up to a larger a multiplies it by the
    two-term 2-c once per unit of a before num is added.  A zero running
    sum is not lifted, so lifting starts at the first a where the sum is
    nonzero and no power of 2-c is ever formed.  (2-c) is then divided
    out as often as it goes, so the result (num, a) has (2-c) not
    dividing num while a > 0; a zero sum, the empty one included, is
    (0, 0).  Since 2-c = -(c-2), the quotient by (c-2)^j changes sign
    when j is odd.
    """
    acc, top = POLY_ZERO, 0
    for num, a in sorted(pairs, key=lambda pair: pair[1]):
        while acc and top < a:
            acc, top = acc * TWO_MINUS_C, top + 1
        acc, top = acc + num, a
    q, j = divide_out_root(acc, 2, top)
    return (-q if j % 2 else q), top - j


class RationalFnC:
    """num / (2-c)^a, reduced so that (2-c) does not divide num while a > 0.

    The only irreducible factor of (2-c)^a is c - 2, so the reduced pair
    (num, a) is coprime and unique; equality is plain comparison of it.
    Reports render it over the monic (c-2)^a = (-1)^a (2-c)^a.
    """

    __slots__ = ("num", "a")

    def __init__(self, num: PolyC, a: int = 0):
        if a < 0:
            raise ValueError("exponent of (2-c) must be nonnegative")
        num, a = sum_over_two_minus_c([(num, a)])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFnC is immutable")

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFnC):
            return self.num == other.num and self.a == other.a
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.a))

    def _over_monic(self) -> tuple[PolyC, PolyC]:
        """(numerator, denominator) over the monic (c-2)^a, expanded by
        the binomial theorem."""
        a = self.a
        den = PolyC(comb(a, i) * (-2) ** (a - i) for i in range(a + 1))
        return (-self.num if a % 2 else self.num), den

    def to_json(self) -> dict:
        num, den = self._over_monic()
        return {"num": num.to_json(), "den": den.to_json()}

    def __repr__(self) -> str:
        num, den = self._over_monic()
        return f"({num!r}) / ({den!r})" if self.a else repr(num)


class SeriesX(_Dense):
    """Power series in x truncated at a fixed order, int coefficients.

    The coefficient tuple is padded to order + 1 entries, so a result of
    two series stops at the smaller order."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = list(coeffs)[: order + 1]
        object.__setattr__(self, "coeffs",
                           tuple(cs + [0] * (order + 1 - len(cs))))

    def _new(self, cs):
        return SeriesX(len(cs) - 1, cs)

    def _length(self, other, n: int) -> int:
        return min(len(self.coeffs), len(other.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i] if i >= 0 else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def inverse(self) -> "SeriesX":
        """Multiplicative inverse; requires a constant term of +-1."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        if a0 not in (1, -1):
            raise ValueError("series inverse needs a constant term of +-1")
        out = [0] * (self.order + 1)
        out[0] = a0
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    s += self.coeffs[k] * out[n - k]
            out[n] = -s * a0
        return SeriesX(self.order, out)

    def derivative(self) -> "SeriesX":
        if self.order == 0:
            return SeriesX(0, ())
        return SeriesX(self.order - 1,
                       (i * self.coeffs[i] for i in range(1, self.order + 1)))

    def __repr__(self) -> str:
        return f"SeriesX(order={self.order}, {[str(c) for c in self.coeffs]})"


def catalan_number(k: int) -> int:
    """The k-th Catalan number, binom(2k, k) / (k + 1)."""
    return comb(2 * k, k) // (k + 1)


def catalan_series(order: int) -> SeriesX:
    """Expansion in x of the even Catalan generating series c(x^2).

    Coefficient of x^(2k) is the k-th Catalan number; odd coefficients
    vanish.  Satisfies S = 1 + x^2 S^2 to every truncation order.
    """
    return SeriesX(order, (catalan_number(i // 2) if i % 2 == 0 else 0
                           for i in range(order + 1)))


def expand_in_x(f: RationalFnC, order: int) -> SeriesX:
    """Expand f(c(x^2)) as an exact truncated series in x.

    2-c is 1 at c = 1 (x = 0), so it is invertible.
    """
    cs = catalan_series(order)
    return f.num.eval_series(cs) * (2 - cs).inverse() ** f.a


def theta_support_window(g: int) -> tuple[int, int]:
    """Inclusive window [g+1, 3g-1] where order-g coefficients may sit."""
    return g + 1, 3 * g - 1


def fine_structure_form(f: RationalFnC, g: int) -> dict[int, int]:
    """Extract the normal-form coefficient table of an order-g correction.

    Returns the nonzero theta[k] of f = c/(2-c)^g * sum_k theta[k] t^k.
    Write f = N/(2-c)^a and s = c - 1, so 2-c = 1-s.  Then f divided by
    c/(2-c)^g is M(s)/(1-s)^b with M(s) = (N/c)(1+s) and b = a - g, and
    since t = s/(1-s) and 1/(1-s) = 1+t, each s^i/(1-s)^b is
    t^i (1+t)^(b-i).  So theta[k] = sum_i m_i C(b-i, k-i).  The quotient
    is a polynomial in t exactly when c divides N and deg M <= b (at
    t = -1 a higher term of M leaves a pole); otherwise f is not in
    normal form and NotFineStructure is raised.
    """
    if g < 1:
        raise ValueError("order g must be >= 1")
    n, b = f.num.coeffs, f.a - g
    if n and (n[0] or len(n) - 2 > b):
        raise NotFineStructure(f"no polynomial normal form at order g={g}")
    m = [sum(n[j + 1] * comb(j, i) for j in range(i, len(n) - 1))
         for i in range(len(n) - 1)]
    theta = {k: sum(m[i] * comb(b - i, k - i)
                    for i in range(min(k + 1, len(m))))
             for k in range(b + 1)}
    return {k: v for k, v in theta.items() if v}


def theta_from_rows(column: Sequence[int], g: int) -> dict[int, int]:
    """Solve the order-g rook rows for their normal-form coefficient table.

    column[k] = R(k, g) is the 1/n^g coefficient of the 2k-th moment, for
    k = 0..3g+2 at least; later rows are not read.  Their series
    Phi_g(y) = sum_k R(k, g) y^k in y = x^2 is c/(2-c)^g sum_j theta[j] t^j
    with c = 1 + y c^2 and t = (c-1)/(2-c).  Each basis function
    c t^j/(2-c)^g starts at y^j, so the rows fix theta by one triangular
    solve.  It is done by inverting t in closed form: c = (1+2t)/(1+t),
    so 2-c = 1/(1+t), y = (c-1)/c^2 = t(1+t)/(1+2t)^2 and
    c/(2-c)^g = (1+2t)(1+t)^(g-1).  Hence

        sum_j theta[j] t^j = Phi_g(w) / ((1+2t) (1+t)^(g-1)),
        w = t(1+t)/(1+2t)^2,

    taken to t^(3g+2) by Horner's rule in w.  Multiplying by t(1+t) and
    dividing by 1+2t or 1+t are recurrences on int lists that stay
    integral, since each divisor has constant term 1.  The table lies at
    j <= 3g-1 (theta_support_window), so the coefficients at t^(3g)..
    t^(3g+2) are a residual that must vanish; as t = y + O(y^2), they do
    exactly when rows 3g..3g+2 agree with the table the lower rows fix.
    A nonzero residual raises NotFineStructure.
    """
    if g < 1:
        raise ValueError("order g must be >= 1")
    n = 3 * g + 2
    if len(column) <= n:
        raise ValueError(f"order g={g} needs the rows k = 0..{n}")
    # Horner: acc <- acc * w + R(k, g), kept to t^(n-k) since w^k = O(t^k)
    acc = [column[n]]
    for k in range(n - 1, -1, -1):
        nxt = [0, acc[0]]
        for i in range(2, n - k + 1):
            nxt.append(acc[i - 1] + acc[i - 2] - 4 * (nxt[i - 1] + nxt[i - 2]))
        nxt[0] = column[k]
        acc = nxt
    acc = list(accumulate(acc, lambda prev, x: x - 2 * prev))  # / (1+2t)
    for _ in range(g - 1):
        acc = list(accumulate(acc, lambda prev, x: x - prev))  # / (1+t)
    if any(acc[3 * g:]):
        raise NotFineStructure(f"rows {3 * g}..{n} leave a nonzero residual "
                               f"at order g={g}")
    return {j: v for j, v in enumerate(acc[:3 * g]) if v}


def fine_structure_to_rational(theta: Mapping[int, int], g: int) -> RationalFnC:
    """Re-expand a coefficient table of order g into one rational function.

    Inverse of fine_structure_form.  With top the largest k of a nonzero
    theta[k], c/(2-c)^g * sum_k theta[k] t^k is c A/(2-c)^(g+top) with
    A = sum_k theta[k] (c-1)^k (2-c)^(top-k), built on int lists by
    Horner's rule A_m = (2-c) A_(m-1) + theta[m] (c-1)^m.  At c = 2 the
    numerator c A is 2 theta[top], not 0, so (2-c) does not divide it.
    """
    terms = {k: v for k, v in theta.items() if v}
    if not terms:
        return RationalFnC(POLY_ZERO)
    if min(terms) < 0:
        raise ValueError("theta is indexed by nonnegative powers of t")
    top = max(terms)
    acc, power = [0], [1]  # A_m and (c-1)^m, low to high, of one length
    for m in range(top + 1):
        if m:
            acc = [2 * a - b for a, b in zip(acc + [0], [0] + acc)]
            power = [b - a for a, b in zip(power + [0], [0] + power)]
        if m in terms:
            acc = [a + terms[m] * p for a, p in zip(acc, power)]
    return RationalFnC(PolyC([0] + acc), g + top)
