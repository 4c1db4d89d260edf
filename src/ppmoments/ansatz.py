"""Closed-form calculus on sums of terms P(c) / ((2-c)^a (1-u)^b).

Here c is the even Catalan series in x and u = x*c*y.  Every generating
function in the moment pipeline lives in this shape: the two-variable
return-height series F(x,y) = c/(1-u) is the single term (c, a=0, b=1),
and the path-splitting operators below map such sums to such sums, so
the whole computation stays exact in c.

Two facts drive all the algebra:

  x dx c = 2c(c-1)/(2-c)      (from c = 1 + x^2 c^2)
  (xc)^2 = c - 1              (eliminates explicit powers of x)

AnsatzSum stores each term as a plain triple (num, a, b), exactly one
per power b of (1-u), reduced so that (2-c) does not divide num while
a > 0.  That form is unique: equal functions compare equal, and the
r-fold chain iterate is stored in the paper's closed shape.

The splitting kernel needs no table: with w = 2-c and v = 1-u it sums
in closed form (see g_apply), so each Euler-operator term goes to b+2
terms whose numerators are num times c, -1 or (c-1)^2, and AnsatzSum
sums them per b.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator

from .algebra import (
    C_MINUS_ONE,
    POLY_C,
    PolyC,
    RationalFnC,
    SeriesX,
    catalan_series,
    divide_out_root,
    sum_over_two_minus_c,
)

__all__ = [
    "AnsatzSum",
    "ansatz_to_series",
    "chain_iterates",
    "chain_shape_violations",
    "euler_apply",
    "f_series",
    "g_apply",
    "g_series",
    "operator_chain",
    "phi",
    "y0_coefficient",
]

Grid = list  # list[list[int]], x index outer, y index inner

_C_TIMES_C_MINUS_ONE = POLY_C * C_MINUS_ONE
_C_MINUS_ONE_SQUARED = C_MINUS_ONE * C_MINUS_ONE


class AnsatzSum:
    """Canonical sum of terms (num, a, b) = num(c) / ((2-c)^a (1-u)^b):
    the terms at each b summed into one, zero terms dropped, numerators
    reduced so that (2-c) never divides them while a > 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[PolyC, int, int]] = ()):
        by_b: dict[int, list[tuple[PolyC, int]]] = {}
        for num, a, b in terms:
            if a < 0 or b < 0:
                raise ValueError("exponents must be nonnegative")
            by_b.setdefault(b, []).append((num, a))
        reduced = [(*sum_over_two_minus_c(p), b) for b, p in by_b.items()]
        object.__setattr__(self, "terms", tuple(sorted(
            (t for t in reduced if t[0]), key=lambda t: t[1:])))

    def __setattr__(self, name, value):
        raise AttributeError("AnsatzSum is immutable")

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, AnsatzSum):
            return self.terms == other.terms
        return NotImplemented

    def to_json(self) -> list[dict]:
        return [{"num": num.to_json(), "a": a, "b": b}
                for num, a, b in self.terms]

    def __repr__(self) -> str:
        return " + ".join(f"({num!r}) / ((2-c)^{a} (1-u)^{b})"
                          for num, a, b in self.terms) or "0"


# the return-height generating function F(x,y) = c / (1 - xcy)
_F = AnsatzSum([(POLY_C, 0, 1)])


def euler_apply(r: int, s: AnsatzSum) -> AnsatzSum:
    """Apply the shifted Euler operator (1/2)(x dx - y dy) - r.

    On a term P(c)/((2-c)^a (1-u)^b) the chain rule gives, using
    x dx c = 2c(c-1)/(2-c), x dx u = uc/(2-c) and y dy u = u:

        c(c-1) P' / ((2-c)^(a+1) (1-u)^b)
      + a c(c-1) P / ((2-c)^(a+2) (1-u)^b)
      + b (c-1) P / ((2-c)^(a+1) (1-u)^(b+1))
      - b (c-1) P / ((2-c)^(a+1) (1-u)^b)
      - r P / ((2-c)^a (1-u)^b)

    which is again a sum of ansatz terms.
    """
    out: list[tuple] = []
    for p, a, b in s:
        dp = p.derivative()
        if dp:
            out.append((_C_TIMES_C_MINUS_ONE * dp, a + 1, b))
        if a:
            out.append((a * _C_TIMES_C_MINUS_ONE * p, a + 2, b))
        if b:
            q = b * C_MINUS_ONE * p
            out.append((q, a + 1, b + 1))
            out.append((-q, a + 1, b))
        if r:
            out.append((-r * p, a, b))
    return AnsatzSum(out)


def g_apply(k: int, s: AnsatzSum) -> AnsatzSum:
    """Apply the k-th path-splitting operator.

    First the shifted Euler operator of order k, then the closed-form
    kernel summation per term.  Pairing a term num/((2-c)^a (1-u)^b)
    against the path-splitting weights
    sum_{j>=0} [z^(j+1)] xG(x,y,z) [z^j] (1-xcz)^(-b) collapses, after
    eliminating x through (xc)^2 = c-1 and summing the inner geometric
    series over the z-return height, to

        num K(u) / ((2-c)^(a+b) (1-u)^(b+1)),

        K(u) = [ (c-1)^2 (1-u)^b - u^2 (2-c)^b ] / (c - 1 - u).

    The j >= 0 boundary (a coefficient at a negative z-power is zero) is
    what makes the geometric sums start where they do; it is baked into
    the bracket.  With w = 2-c and v = 1-u the bracket is
    M(v) = (c-1)^2 v^b - (1-v)^2 w^b and the divisor is v - w.  Since
    c-1 = 1-w, (1-w)^2 - (1-v)^2 = (v-w)(2-v-w) and 2-w = c, the
    division is exact and sums in closed form:

        M(v) / (v - w) = (c-1)^2 sum_{j<b} v^j w^(b-1-j) + w^b (c - v).

    Each piece reduces against the denominator w^(a+b) v^(b+1), so the
    term goes to (c num, a, b+1), (-num, a, b) and ((c-1)^2 num,
    a+j+1, b+1-j) for j = 0..b-1; AnsatzSum sums them per b.
    """
    out: list[tuple] = []
    for num, a, b in euler_apply(k, s):
        sq = _C_MINUS_ONE_SQUARED * num
        out += [(POLY_C * num, a, b + 1), (-num, a, b)]
        out += [(sq, a + j + 1, b + 1 - j) for j in range(b)]
    return AnsatzSum(out)


def y0_coefficient(s: AnsatzSum) -> RationalFnC:
    """Constant coefficient in y: every (1-u)^-b contributes 1 at y^0."""
    return RationalFnC(*sum_over_two_minus_c((num, a) for num, a, _ in s))


def chain_iterates(r: int) -> Iterator[AnsatzSum]:
    """Yield the operator-chain iterates of orders 0, 1, ..., r.

    Order 0 is F itself; order g applies the splitting operator of order
    g-1 to the order g-1 iterate, so the walk calls g_apply once per order.
    """
    s = _F
    yield s
    for k in range(r):
        s = g_apply(k, s)
        yield s


def operator_chain(r: int) -> AnsatzSum:
    """Apply the splitting operators of orders 0, 1, ..., r-1 to F in turn."""
    for s in chain_iterates(r):
        pass
    return s


def phi(g: int) -> RationalFnC:
    """Exact order-g coefficient of the moment expansion, as a function of c.

    Order 0 is c itself; higher orders read off the y-constant part of the
    g-fold operator chain applied to F.
    """
    if g < 0:
        raise ValueError("order must be nonnegative")
    if g == 0:
        return RationalFnC(POLY_C)
    return y0_coefficient(operator_chain(g))


def ansatz_to_series(s: AnsatzSum, x_order: int, y_order: int) -> Grid:
    """Expand an AnsatzSum as an exact bivariate grid.

    Returns grid[i][j] = coefficient of x^i y^j, substituting the Catalan
    series for c and x*c*y for u.
    """
    cs = catalan_series(x_order)
    grid = [[0] * (y_order + 1) for _ in range(x_order + 1)]
    inv_two_minus_c = (2 - cs).inverse()
    xc_pow = SeriesX(x_order, (1,))
    xc = SeriesX(x_order, [0] + list(cs.coeffs[:-1]))  # x * c(x^2)
    xc_powers = []
    for _ in range(y_order + 1):
        xc_powers.append(xc_pow)
        xc_pow = xc_pow * xc
    for num, a, b in s:
        base = num.eval_series(cs) * inv_two_minus_c ** a
        if b == 0:
            for i in range(x_order + 1):
                grid[i][0] += base.coefficient(i)
            continue
        for j in range(y_order + 1):
            w = comb(j + b - 1, b - 1)
            col = xc_powers[j] * base
            for i in range(x_order + 1):
                grid[i][j] += w * col.coefficient(i)
    return grid


def f_series(x_order: int, y_order: int) -> Grid:
    """Closed-form expansion of F(x,y): grid of path counts by (length, end)."""
    return ansatz_to_series(_F, x_order, y_order)


def g_series(x_order: int, y_order: int, z_order: int) -> list:
    """Closed-form expansion of G(x,y,z) = F(x,y) F(x,z) / (c (1-yz)).

    Returns grid[i][j1][j2] = coefficient of x^i y^j1 z^j2, the count of
    nonnegative paths of length i from height j1 to height j2.  The
    y^a z^b coefficient of F(x,y) F(x,z) / c is c (xc)^(a+b), column a+b
    of F, and 1/(1-yz) pairs y^m with z^m, so each cell sums the columns
    j1 + j2 - 2m of F over m = 0..min(j1, j2): column j1 + j2 plus the
    cell at (j1 - 1, j2 - 1).
    """
    out = []
    for row in f_series(x_order, y_order + z_order):
        plane = [row[:z_order + 1]]
        for j1 in range(1, y_order + 1):
            above = plane[-1]
            plane.append([row[j1]] + [row[j1 + j2] + above[j2 - 1]
                                      for j2 in range(1, z_order + 1)])
        out.append(plane)
    return out


def chain_shape_violations(s: AnsatzSum, r: int) -> list[str]:
    """Check the closed shape of the r-fold operator-chain iterate.

    After r >= 1 applications the sum must be expressible as terms
    indexed by i = 0..2r-1 with exponents a = 4r-1-i and b = 2+i, and
    numerator c (c-1)^r p_i(c) with deg p_i <= 2r-1-i.  The sum holds one
    reduced term per b, over (2-c)^a with a <= 4r-1-i; lifting it to the
    shape's (2-c)^(4r-1-i) multiplies num by (2-c)^lift, lift = 4r-1-i-a.
    Since (2-c) is prime to c(c-1), the lift leaves divisibility alone
    and only raises the cofactor degree by lift, so num is tested as it
    stands.  Returns human-readable violation strings; empty means the
    shape holds.
    """
    if r < 1:
        raise ValueError("shape check applies to r >= 1 iterates")
    problems = []
    for num, a, b in s:
        i = b - 2
        if i < 0 or i > 2 * r - 1 or a > 4 * r - 1 - i:
            problems.append(f"term exponents (a={a}, b={b}) outside shape")
            continue
        q, j = divide_out_root(num, 1, r)  # then c divides q iff q(0) = 0
        degree = q.degree - 1 + 4 * r - 1 - i - a  # of the lifted cofactor
        if j < r or q[0]:
            problems.append(f"numerator at b={b} not divisible by c(c-1)^{r}")
        elif degree > 2 * r - 1 - i:
            problems.append(f"cofactor degree {degree} exceeds "
                            f"{2 * r - 1 - i} at b={b}")
    return problems
