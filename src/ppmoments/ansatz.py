"""Closed-form calculus on sums of terms P(t) / ((1+t)^e (1-u)^b).

Here c is the even Catalan series in x, t = (c-1)/(2-c) and u = x*c*y,
so c = (1+2t)/(1+t).  The return-height series F(x,y) = c/(1-u) is
(1+2t)/((1+t)(1-u)), and the path-splitting operators below map such
sums to such sums, using

  x dx t = 2t(1+t)(1+2t),   x dx u = (1+2t) u,   y dy u = u.

AnsatzSum stores one int list P_b per power b of 1/(1-u) over one
common (1+t)^e, with 1+t divided out while it divides every P_b, so
equal functions compare equal.  F has e = 1 and every operator-chain
iterate of order r >= 1 has e = 0: a plain set of int polynomials in t.
Iterating an AnsatzSum gives its terms in c, as the reduced triples
(num, a, b) = num(c) / ((2-c)^a (1-u)^b) the reports print.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from typing import Iterator, Mapping, Sequence

from .algebra import (
    POLY_C,
    RationalFnC,
    SeriesX,
    catalan_series,
    over_one_plus_t,
    rational_from_t,
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


def _plus(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """p + q on int lists of any lengths."""
    return [x + y for x, y in zip_longest(p, q, fillvalue=0)]


def _one_plus_t_power(p: Sequence[int], most: int) -> int:
    """The largest m <= most for which (1+t)^m divides p; m = most takes
    one over_one_plus_t call, and lower m are tried only if it fails."""
    return next((m for m in range(most, 0, -1) if m < len(p)
                 and not any(over_one_plus_t(p, m)[len(p) - m:])), 0)


class AnsatzSum:
    """Canonical sum of P_b(t) / ((1+t)^e (1-u)^b) over b: zero P_b
    dropped, trailing zeros stripped and 1+t divided out of every P_b
    while e > 0 and it divides them all.

    polys holds the pairs (b, P_b) in increasing b; len() counts them.
    """

    __slots__ = ("polys", "e")

    def __init__(self, polys: Mapping[int, Sequence[int]] | None = None,
                 e: int = 0):
        polys = polys or {}
        if e < 0 or any(b < 0 for b in polys):
            raise ValueError("exponents must be nonnegative")
        kept = {}
        for b in sorted(polys):
            p = list(polys[b])
            while p and not p[-1]:
                p.pop()
            if p:
                kept[b] = p
        m = min((_one_plus_t_power(p, e) for p in kept.values()), default=e)
        object.__setattr__(self, "polys", tuple(
            (b, tuple(over_one_plus_t(p, m)[:len(p) - m] if m else p))
            for b, p in kept.items()))
        object.__setattr__(self, "e", e - m)

    def __setattr__(self, name, value):
        raise AttributeError("AnsatzSum is immutable")

    def __iter__(self) -> Iterator[tuple]:
        """The terms as reduced triples (num, a, b) in c, by (a, b)."""
        fs = [(rational_from_t(p, self.e), b) for b, p in self.polys]
        return iter(sorted(((f.num, f.a, b) for f, b in fs),
                           key=lambda term: term[1:]))

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        if isinstance(other, AnsatzSum):
            return (self.polys, self.e) == (other.polys, other.e)
        return NotImplemented

    def to_json(self) -> list[dict]:
        return [{"num": num.to_json(), "a": a, "b": b}
                for num, a, b in self]

    def __repr__(self) -> str:
        return " + ".join(f"({num!r}) / ((2-c)^{a} (1-u)^{b})"
                          for num, a, b in self) or "0"


# the return-height generating function F(x,y) = c / (1 - xcy)
_F = AnsatzSum({1: (1, 2)}, 1)


def euler_apply(r: int, s: AnsatzSum) -> AnsatzSum:
    """Apply the shifted Euler operator (1/2)(x dx - y dy) - r.

    On a term P(t)/((1+t)^e (1-u)^b) the chain rule gives, using
    x dx t = 2t(1+t)(1+2t), x dx u = (1+2t)u, y dy u = u and
    u/(1-u)^(b+1) = 1/(1-u)^(b+1) - 1/(1-u)^b:

        [t(1+2t)((1+t)P' - eP) - btP - rP] / ((1+t)^e (1-u)^b)
      + btP / ((1+t)^e (1-u)^(b+1))

    Coefficient j of the bracket is
    (j-r) p_j + (3j-3-b-e) p_(j-1) + (2j-4-2e) p_(j-2).
    """
    e, out = s.e, {}
    for b, p in s.polys:
        out[b] = _plus(out.get(b, ()), [
            (j - r) * x + (3 * j - 3 - b - e) * y + (2 * j - 4 - 2 * e) * z
            for j, (x, y, z) in enumerate(zip((*p, 0, 0), (0, *p, 0),
                                              (0, 0, *p)))])
        if b:
            out[b + 1] = _plus(out.get(b + 1, ()), [0, *(b * x for x in p)])
    return AnsatzSum(out, e)


def g_apply(k: int, s: AnsatzSum) -> AnsatzSum:
    """Apply the k-th path-splitting operator.

    First the shifted Euler operator of order k, then the closed-form
    kernel summation per term.  In c, pairing a term num/((2-c)^a (1-u)^b)
    against the path-splitting weights
    sum_{j>=0} [z^(j+1)] xG(x,y,z) [z^j] (1-xcz)^(-b) collapses, after
    eliminating x through (xc)^2 = c-1 and summing the inner geometric
    series over the z-return height (from j = 0 on), to

        num K / ((2-c)^(a+b) (1-u)^(b+1)),   with w = 2-c, v = 1-u,
        K = [(c-1)^2 v^b - (1-v)^2 w^b] / (v - w)
          = (c-1)^2 sum_{j<b} v^j w^(b-1-j) + w^b (c - v),

    an exact division since c-1 = 1-w and 2-w = c.  In t, with
    c-1 = t/(1+t) and w = 1/(1+t), over one more power of 1+t, a term
    Q_b of the Euler image goes to (1+2t) Q_b at b+1, -(1+t) Q_b at b and
    t^2 (1+t)^j Q_b at b+1-j for j < b.  The last group is summed per
    target m by Horner's rule, H_m = Q_(m-1) + (1+t) H_(m+1), and t^2 H_m
    is added at each m >= 2.
    """
    q = euler_apply(k, s)
    polys, out = dict(q.polys), {}
    for b, p in q.polys:
        out[b + 1] = _plus(out.get(b + 1, ()),
                           [x + 2 * y for x, y in zip((*p, 0), (0, *p))])
        out[b] = _plus(out.get(b, ()),
                       [-x - y for x, y in zip((*p, 0), (0, *p))])
    h: list[int] = []
    for m in range(max(polys, default=0) + 1, 1, -1):
        h = _plus(polys.get(m - 1, ()),
                  [x + y for x, y in zip(h + [0], [0] + h)])
        out[m] = _plus(out.get(m, ()), [0, 0, *h])
    return AnsatzSum(out, q.e + 1)


def y0_coefficient(s: AnsatzSum) -> RationalFnC:
    """Constant coefficient in y: every (1-u)^-b contributes 1 at y^0, so
    it is the sum of the P_b over (1+t)^e, turned into c once."""
    total: list[int] = []
    for _, p in s.polys:
        total = _plus(total, p)
    return rational_from_t(total, s.e)


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
    numerator c (c-1)^r p_i(c) with deg p_i <= 2r-1-i.  Each stored P_b
    has the reduced exponent a = max(deg P_b, e) - e, at most 4r-1-i.
    In t, c (c-1)^r is t^r (1+2t), and if (1+t)^m is the highest power
    of 1+t dividing P_b, the numerator over (2-c)^(4r-1-i) has degree
    4r-1-i+e-m in c, so the degree bound asks (1+t)^(r-1+e) to divide
    P_b.  Returns human-readable violations in the order of the terms'
    (a, b); empty means the shape holds.
    """
    if r < 1:
        raise ValueError("shape check applies to r >= 1 iterates")
    problems, e = [], s.e
    for a, b, p in sorted((max(len(p) - 1, e) - e, b, p) for b, p in s.polys):
        i = b - 2
        if i < 0 or i > 2 * r - 1 or a > 4 * r - 1 - i:
            problems.append(f"term exponents (a={a}, b={b}) outside shape")
            continue
        # t^r divides p, and 1+2t does: p(-1/2) (-2)^deg p = 0
        if any(p[:r]) or sum(x * (-2) ** k for k, x in enumerate(p[::-1])):
            problems.append(f"numerator at b={b} not divisible by c(c-1)^{r}")
            continue
        m = _one_plus_t_power(p, r - 1 + e)
        degree = 3 * r - 2 - i + e - m
        if degree > 2 * r - 1 - i:
            problems.append(f"cofactor degree {degree} exceeds "
                            f"{2 * r - 1 - i} at b={b}")
    return problems
