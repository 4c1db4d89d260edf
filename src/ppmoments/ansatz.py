"""Closed-form calculus on sums of terms P(c) / ((2-c)^a (1-u)^b).

Here c is the even Catalan series in x and u = x*c*y.  Every generating
function in the moment pipeline lives in this shape: the two-variable
return-height series F(x,y) = c/(1-u) is the single term (c, a=0, b=1),
and the path-splitting operators below map such sums to such sums, so
the whole computation stays exact in c.

Two facts drive all the algebra:

  x dx c = 2c(c-1)/(2-c)      (from c = 1 + x^2 c^2)
  (xc)^2 = c - 1              (eliminates explicit powers of x)

AnsatzSum keeps at most one term per exponent pair (a, b) and drops
zero numerators, so structural checks and equality are literal.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Union

from .algebra import (
    C_MINUS_ONE,
    POLY_C,
    POLY_ZERO,
    PolyC,
    RationalFnC,
    SeriesX,
    TWO_MINUS_C,
    catalan_series,
    strip_two_minus_c,
)

__all__ = [
    "AnsatzSum",
    "AnsatzTerm",
    "ansatz_to_series",
    "chain_iterates",
    "chain_shape_violations",
    "euler_apply",
    "f_initial",
    "f_series",
    "g_apply",
    "g_series",
    "operator_chain",
    "phi",
    "y0_coefficient",
]

Grid = list  # list[list[int]], x index outer, y index inner


class AnsatzTerm:
    """One summand num(c) / ((2-c)^a (1-u)^b)."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num: PolyC, a: int, b: int):
        if a < 0 or b < 0:
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

    def __setattr__(self, name, value):
        raise AttributeError("AnsatzTerm is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, AnsatzTerm):
            return (self.num, self.a, self.b) == (other.num, other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.a, self.b))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"({self.num!r}) / ((2-c)^{self.a} (1-u)^{self.b})"


TermLike = Union[AnsatzTerm, tuple]


class AnsatzSum:
    """Canonical sum of AnsatzTerms: merged per (a, b), zero terms dropped,
    numerators reduced so that (2-c) never divides them while a > 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[TermLike] = ()):
        items = []
        for t in terms:
            if not isinstance(t, AnsatzTerm):
                t = AnsatzTerm(*t)
            items.append((t.num, t.a, t.b))
        while True:
            merged: dict[tuple[int, int], PolyC] = {}
            for num, a, b in items:
                merged[(a, b)] = merged.get((a, b), POLY_ZERO) + num
            items = []
            changed = False
            for (a, b), num in merged.items():
                if not num:
                    continue
                num, left = strip_two_minus_c(num, a)
                changed = changed or left != a
                items.append((num, left, b))
            if not changed:
                break
        canonical = tuple(AnsatzTerm(num, a, b)
                          for num, a, b in sorted(items, key=lambda t: t[1:]))
        object.__setattr__(self, "terms", canonical)

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

    def __add__(self, other) -> "AnsatzSum":
        if not isinstance(other, AnsatzSum):
            return NotImplemented
        return AnsatzSum((*self.terms, *other.terms))

    def scale(self, factor) -> "AnsatzSum":
        return AnsatzSum((t.num * factor, t.a, t.b) for t in self.terms)

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.terms]

    def __repr__(self) -> str:
        return " + ".join(repr(t) for t in self.terms) if self.terms else "0"


def f_initial() -> AnsatzSum:
    """The return-height generating function F(x,y) = c / (1 - xcy)."""
    return AnsatzSum([(POLY_C, 0, 1)])


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
    for t in s:
        p, a, b = t.num, t.a, t.b
        dp = p.derivative()
        if dp:
            out.append((POLY_C * C_MINUS_ONE * dp, a + 1, b))
        if a:
            out.append((a * POLY_C * C_MINUS_ONE * p, a + 2, b))
        if b:
            q = b * C_MINUS_ONE * p
            out.append((q, a + 1, b + 1))
            out.append((-q, a + 1, b))
        if r:
            out.append((-r * p, a, b))
    return AnsatzSum(out)


@lru_cache(maxsize=None)
def _kernel(b: int) -> tuple[PolyC, ...]:
    """Coefficients (in u, low to high) of the splitting kernel for (1-u)^-b.

    Pairing a term against the path-splitting weights
    sum_{j>=0} [z^(j+1)] xG(x,y,z) [z^j] (1-xcz)^(-b) collapses, after
    eliminating x through (xc)^2 = c-1 and summing the inner geometric
    series over the z-return height, to

        K(u) / ((2-c)^b (1-u)^(b+1)),

        K(u) = [ (c-1)^2 (1-u)^b - u^2 (2-c)^b ] / (c - 1 - u).

    The division is exact: the bracket vanishes at u = c-1.  The j >= 0
    boundary (a coefficient at a negative z-power is zero) is what makes
    the geometric sums start where they do; it is baked into the bracket.
    """
    csq = C_MINUS_ONE * C_MINUS_ONE
    two_b = TWO_MINUS_C ** b
    m: list[PolyC] = [POLY_ZERO] * max(b + 1, 3)
    for s in range(b + 1):
        m[s] = ((-1) ** s * comb(b, s)) * csq
    m[2] = m[2] - two_b
    while len(m) > 1 and not m[-1]:
        m.pop()
    # synthetic division of M(u) by (c-1) - u
    deg = len(m) - 1
    k = [POLY_ZERO] * deg
    k[deg - 1] = -m[deg]
    for s in range(deg - 1, 0, -1):
        k[s - 1] = C_MINUS_ONE * k[s] - m[s]
    if C_MINUS_ONE * k[0] != m[0]:
        raise AssertionError("kernel bracket not divisible by c-1-u")
    return tuple(k)


def g_apply(k: int, s: AnsatzSum) -> AnsatzSum:
    """Apply the k-th path-splitting operator.

    First the shifted Euler operator of order k, then the closed-form
    kernel summation per term; powers u^s are rewritten over the basis
    (1-u)^t so the result is again a canonical AnsatzSum.
    """
    out: list[tuple] = []
    for t in euler_apply(k, s):
        shift_a = t.a + t.b
        base_b = t.b + 1
        for s_pow, kpoly in enumerate(_kernel(t.b)):
            if not kpoly:
                continue
            num = t.num * kpoly
            for j in range(s_pow + 1):
                out.append(((-1) ** j * comb(s_pow, j) * num,
                            shift_a, base_b - j))
    return AnsatzSum(out)


def y0_coefficient(s: AnsatzSum) -> RationalFnC:
    """Constant coefficient in y: every (1-u)^-b contributes 1 at y^0."""
    if not s:
        return RationalFnC(POLY_ZERO)
    top = max(t.a for t in s)
    acc = POLY_ZERO
    for t in s:
        acc = acc + t.num * TWO_MINUS_C ** (top - t.a)
    return RationalFnC(acc, top)


def chain_iterates(r: int) -> Iterator[AnsatzSum]:
    """Yield the operator-chain iterates of orders 0, 1, ..., r.

    Order 0 is F itself; order g applies the splitting operator of order
    g-1 to the order g-1 iterate, so the walk calls g_apply once per order.
    """
    s = f_initial()
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
    for t in s:
        base = t.num.eval_series(cs) * inv_two_minus_c ** t.a
        if t.b == 0:
            for i in range(x_order + 1):
                grid[i][0] += base.coefficient(i)
            continue
        for j in range(y_order + 1):
            w = comb(j + t.b - 1, t.b - 1)
            col = xc_powers[j] * base
            for i in range(x_order + 1):
                grid[i][j] += w * col.coefficient(i)
    return grid


def f_series(x_order: int, y_order: int) -> Grid:
    """Closed-form expansion of F(x,y): grid of path counts by (length, end)."""
    return ansatz_to_series(f_initial(), x_order, y_order)


def g_series(x_order: int, y_order: int, z_order: int) -> list:
    """Closed-form expansion of G(x,y,z) = F(x,y) F(x,z) / (c (1-yz)).

    Returns grid[i][j1][j2] = coefficient of x^i y^j1 z^j2, the count of
    nonnegative paths of length i from height j1 to height j2.
    """
    cs = catalan_series(x_order)
    f_grid = f_series(x_order, max(y_order, z_order))
    # F(x,z)/c contributes x^j c(x^2)^j at z^j
    xc = SeriesX(x_order, [0] + list(cs.coeffs[:-1]))
    fz_over_c = []
    acc = SeriesX(x_order, (1,))
    for _ in range(z_order + 1):
        fz_over_c.append(acc)
        acc = acc * xc
    out = [[[0] * (z_order + 1) for _ in range(y_order + 1)]
           for _ in range(x_order + 1)]
    for j1 in range(y_order + 1):
        for j2 in range(z_order + 1):
            for m in range(min(j1, j2) + 1):
                col = fz_over_c[j2 - m]
                for i1 in range(x_order + 1):
                    a = f_grid[i1][j1 - m]
                    if not a:
                        continue
                    for i2 in range(x_order + 1 - i1):
                        b = col.coefficient(i2)
                        if b:
                            out[i1 + i2][j1][j2] += a * b
    return out


def chain_shape_violations(s: AnsatzSum, r: int) -> list[str]:
    """Check the closed shape of the r-fold operator-chain iterate.

    After r >= 1 applications the sum must be expressible as terms
    indexed by i = 0..2r-1 with exponents a = 4r-1-i and b = 2+i, and
    numerator c (c-1)^r p_i(c) with deg p_i <= 2r-1-i.  Stored terms are
    reduced, so the check regroups them per b over the shape's common
    denominator before testing divisibility and degree.  Returns
    human-readable violation strings; empty means the shape holds.
    """
    if r < 1:
        raise ValueError("shape check applies to r >= 1 iterates")
    problems = []
    lead = POLY_C * C_MINUS_ONE ** r
    grouped: dict[int, PolyC] = {}
    for t in s:
        i = t.b - 2
        if i < 0 or i > 2 * r - 1 or t.a > 4 * r - 1 - i:
            problems.append(f"term exponents (a={t.a}, b={t.b}) outside shape")
            continue
        acc = grouped.get(t.b, POLY_ZERO)
        grouped[t.b] = acc + t.num * TWO_MINUS_C ** (4 * r - 1 - i - t.a)
    for b, num in sorted(grouped.items()):
        i = b - 2
        q, rem = divmod(num, lead)
        if rem:
            problems.append(f"numerator at b={b} not divisible by c(c-1)^{r}")
        elif q.degree > 2 * r - 1 - i:
            problems.append(f"cofactor degree {q.degree} exceeds "
                            f"{2 * r - 1 - i} at b={b}")
    return problems
