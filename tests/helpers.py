"""Shared independent oracles for the test suite.

These deliberately recompute things along different routes than the
library code: coefficientwise operators on raw series grids, explicit
enumeration of marked step pairs, and Newton's identities on Hermite
coefficients.

The operator chain in c is the reference for the package's chain in
t = (c-1)/(2-c).  It keeps each term as a triple (num, a, b) =
num(c) / ((2-c)^a (1-u)^b), one reduced triple per b (terms_in_c):
(2-c) is divided out of each sum by synthetic division at c = 2
(divide_out_root), after Horner's rule over powers of (2-c)
(sum_over_two_minus_c).  Its Euler operator (euler_apply_in_c) and
splitting operator (g_apply_in_c) give the reference iterates
(chain_in_c).  ansatz_from_c turns such triples into the package's
AnsatzSum, so tests can state their inputs in c.  The splitting kernel
found by synthetic division (kernel_by_division) and the splitting
operator that multiplies by its whole table (g_apply_by_division) are
the references for the closed-form ansatz.g_apply, and the chain shape
check that lifts every term to the shape's denominator
(chain_shape_violations_by_lifting) is the one for
ansatz.chain_shape_violations.

The exhaustive enumerators live here, not in the package: no report
runs them, and they are the references that the package's
falling-factorial walk and word normal ordering are compared with.
They cover lattice paths (LatticePath, iter_paths), their marked step
pairs (marking_counts, count_markings, brute_marking_count), the
partition cut out above a path (path_to_partition), and rook placements on
partition diagrams (RookPlacement, iter_rook_placements,
rook_polynomial) summed over every staircase shape
(staircase_partitions, rook_counts_exhaustive), the Dyck words
(dyck_words) each rewritten on its own (normal_order), every
partition of a size (partitions_of), and the Plancherel average of the
corner transition measure's moments for every k up to a bound, from one
enumeration (corner_moment_rows).  A shape is the tuple of its row
lengths, largest first, with no zero parts, as sampler.rsk_shape gives
it.  The corner measure's atoms and Fraction weights by partial
fractions (corner_measure_by_partial_fractions), over contents read off
the diagram's cells rather than its row lengths (corner_contents), are
the reference for sampler.corner_moments.  The rook
transfer matrix with one list of closed-pair counts per state
(rook_rows_reference) is the reference for the package's moment rows,
which it reaches by rook placements rather than by paths weighed over
the falling factorials, and the path walk that keeps every height
(transformed_moment_reference) is the one for the package's pruned
transformed_moment.  The sampler's guard window of sizes found by a
hand-written bisection (peak_sizes_reference), its z guard with every
unseen moment walked (z_unsupported_by_walks) and its estimate with
every drawn size walked (mc_moments_by_walks) are the references for
sampler._peak_sizes and the row-read sampler._z_unsupported and
sampler.mc_moments.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, log, sqrt
from random import Random
from typing import Iterable, Iterator

from ppmoments import DEFAULT_SEED, sampler
from ppmoments.algebra import POLY_C, PolyC
from ppmoments.ansatz import AnsatzSum, ansatz_to_series, euler_apply, g_series
from ppmoments.cli import _path, _poisson_mean, _positive
from ppmoments.oracles import transformed_moment


def euler_grid(r, grid):
    """Coefficientwise Euler action: x^i y^j scales by (i-j)/2 - r."""
    return [[(Fraction(i - j, 2) - r) * grid[i][j]
             for j in range(len(grid[0]))]
            for i in range(len(grid))]


def direct_g_apply_grid(k, s, x_order, y_order, g_grid=None):
    """Evaluate the defining sum of the k-th splitting operator on series.

    Pairs [z^(j+1)] xG(x,y,z) with [z^j] of the Euler-shifted series of s,
    all through exact truncated grids; independent of the closed-form
    kernel used by g_apply.
    """
    h = ansatz_to_series(s, x_order, x_order)
    ek = euler_grid(k, h)
    if g_grid is None:
        g_grid = g_series(x_order, y_order, x_order + 1)
    out = [[Fraction(0)] * (y_order + 1) for _ in range(x_order + 1)]
    for i in range(x_order + 1):
        for j in range(y_order + 1):
            acc = Fraction(0)
            for i1 in range(1, i + 1):  # x*G carries at least one power of x
                for jp in range(0, i - i1 + 1):
                    gval = g_grid[i1 - 1][j][jp + 1]
                    if gval:
                        acc += gval * ek[i - i1][jp]
            out[i][j] = acc
    return out


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
    over (2-c)^top, and each step up to a larger a multiplies it by 2-c
    once per unit of a before num is added.  (2-c) is then divided out as
    often as it goes, so the result (num, a) has (2-c) not dividing num
    while a > 0; a zero sum, the empty one included, is (0, 0).  Since
    2-c = -(c-2), the quotient by (c-2)^j changes sign when j is odd.
    """
    acc, top = PolyC(), 0
    for num, a in sorted(pairs, key=lambda pair: pair[1]):
        while acc and top < a:
            acc, top = acc * TWO_MINUS_C, top + 1
        acc, top = acc + num, a
    q, j = divide_out_root(acc, 2, top)
    return (-q if j % 2 else q), top - j


def terms_in_c(terms: Iterable[tuple]) -> tuple[tuple, ...]:
    """The canonical c-basis sum of the triples (num, a, b): one reduced
    triple per b, zero ones dropped, sorted by (a, b)."""
    by_b: dict[int, list[tuple]] = {}
    for num, a, b in terms:
        by_b.setdefault(b, []).append((num, a))
    reduced = [(*sum_over_two_minus_c(p), b) for b, p in by_b.items()]
    return tuple(sorted((t for t in reduced if t[0]), key=lambda t: t[1:]))


_C_TIMES_C_MINUS_ONE = POLY_C * C_MINUS_ONE


def euler_apply_in_c(r: int, terms: Iterable[tuple]) -> tuple[tuple, ...]:
    """The shifted Euler operator (1/2)(x dx - y dy) - r in c.

    On a term P(c)/((2-c)^a (1-u)^b) the chain rule gives, using
    x dx c = 2c(c-1)/(2-c), x dx u = uc/(2-c) and y dy u = u:

        c(c-1) P' / ((2-c)^(a+1) (1-u)^b)
      + a c(c-1) P / ((2-c)^(a+2) (1-u)^b)
      + b (c-1) P / ((2-c)^(a+1) (1-u)^(b+1))
      - b (c-1) P / ((2-c)^(a+1) (1-u)^b)
      - r P / ((2-c)^a (1-u)^b)
    """
    out: list[tuple] = []
    for p, a, b in terms:
        dp = PolyC(i * c for i, c in enumerate(p.coeffs) if i)
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
    return terms_in_c(out)


def g_apply_in_c(k: int, terms: Iterable[tuple]) -> tuple[tuple, ...]:
    """The k-th splitting operator in c: each term of the Euler image
    goes to (c num, a, b+1), (-num, a, b) and ((c-1)^2 num, a+j+1, b+1-j)
    for j = 0..b-1 (the closed-form kernel of ansatz.g_apply)."""
    out: list[tuple] = []
    for num, a, b in euler_apply_in_c(k, terms):
        sq = C_MINUS_ONE * C_MINUS_ONE * num
        out += [(POLY_C * num, a, b + 1), (-num, a, b)]
        out += [(sq, a + j + 1, b + 1 - j) for j in range(b)]
    return terms_in_c(out)


def chain_in_c(r: int) -> Iterator[tuple[tuple, ...]]:
    """The operator-chain iterates of orders 0..r, in c."""
    s = ((POLY_C, 0, 1),)
    yield s
    for k in range(r):
        s = g_apply_in_c(k, s)
        yield s


def t_form(num, a: int) -> tuple[tuple[int, ...], int]:
    """num(c)/(2-c)^a as (P, e), P's coefficients low to high, with
    P(t)/(1+t)^e the same function.

    With X = 1+2t and Y = 1+t, c = X/Y and 1/(2-c) = Y, so the function
    is sum_k n_k X^k Y^(a-k), that is Y^(a-D) sum_k n_k X^k Y^(D-k) with
    D = deg num, summed by Horner's rule; e = max(0, D - a).  An int num
    is a constant.
    """
    ns = (num,) if isinstance(num, int) else num.coeffs
    if not any(ns):
        return (), 0
    acc, power = [ns[-1]], [1]  # of one length, low to high
    for n in reversed(ns[:-1]):
        power = [p + q for p, q in zip(power + [0], [0] + power)]  # * Y
        acc = [p + 2 * q + n * w
               for p, q, w in zip(acc + [0], [0] + acc, power)]  # * X + n Y^j
    d = len(ns) - 1
    return (PolyC(acc) * PolyC((1, 1)) ** max(a - d, 0)).coeffs, max(0, d - a)


def ansatz_from_c(terms: Iterable[tuple]) -> AnsatzSum:
    """The AnsatzSum of the c-basis triples (num, a, b), over the largest
    (1+t)^e any of them needs."""
    forms = [(*t_form(num, a), b) for num, a, b in terms]
    top = max((e for _, e, _ in forms), default=0)
    polys: dict[int, PolyC] = {}
    for p, e, b in forms:
        polys[b] = polys.get(b, PolyC()) + PolyC(p) * PolyC((1, 1)) ** (top - e)
    return AnsatzSum({b: p.coeffs for b, p in polys.items()}, top)


@lru_cache(maxsize=None)
def kernel_by_division(b: int) -> tuple[PolyC, ...]:
    """Numerators L_0, L_1, ... of the splitting kernel for (1-u)^-b.

    K = sum_j L_j v^j with v = 1-u is M(v) / (v - (2-c)), with
    M(v) = (c-1)^2 v^b - (1-v)^2 (2-c)^b, found by synthetic division of
    M's expanded coefficients; the division must leave no remainder.
    """
    two_b = TWO_MINUS_C ** b
    m: list[PolyC] = [PolyC()] * max(b + 1, 3)
    m[b] = C_MINUS_ONE * C_MINUS_ONE
    for j, w in enumerate((-1, 2, -1)):
        m[j] = m[j] + w * two_b
    deg = len(m) - 1
    k = [PolyC()] * deg
    k[deg - 1] = m[deg]
    for j in range(deg - 1, 0, -1):
        k[j - 1] = m[j] + TWO_MINUS_C * k[j]
    if m[0] + TWO_MINUS_C * k[0]:
        raise AssertionError("kernel bracket not divisible by c-1-u")
    return tuple(k)


def g_apply_by_division(k: int, s: AnsatzSum) -> AnsatzSum:
    """The k-th splitting operator through the divided kernel table: each
    Euler-operator term times each L_j, over (2-c)^(a+b) (1-u)^(b+1-j)."""
    return ansatz_from_c((num * lj, a + b, b + 1 - j)
                         for num, a, b in euler_apply(k, s)
                         for j, lj in enumerate(kernel_by_division(b)))


def chain_shape_violations_by_lifting(s: AnsatzSum, r: int) -> list[str]:
    """The closed-shape check with each term lifted to the shape's
    denominator (2-c)^(4r-1-i) before divisibility and degree are tested."""
    problems = []
    for num, a, b in s:
        i = b - 2
        if i < 0 or i > 2 * r - 1 or a > 4 * r - 1 - i:
            problems.append(f"term exponents (a={a}, b={b}) outside shape")
            continue
        lift = 4 * r - 1 - i - a
        lifted = num * TWO_MINUS_C ** lift if lift else num
        q, j = divide_out_root(lifted, 1, r)  # then c divides q iff q(0) = 0
        if j < r or q[0]:
            problems.append(f"numerator at b={b} not divisible by c(c-1)^{r}")
        elif q.degree - 1 > 2 * r - 1 - i:
            problems.append(f"cofactor degree {q.degree - 1} exceeds "
                            f"{2 * r - 1 - i} at b={b}")
    return problems


def random_poly(rng: Random, max_deg: int = 3) -> PolyC:
    deg = rng.randint(0, max_deg)
    return PolyC(rng.randint(-3, 3) for _ in range(deg + 1))


def random_ansatz_sum(rng: Random, max_b: int = 3) -> AnsatzSum:
    terms = []
    for _ in range(rng.randint(1, 3)):
        terms.append((random_poly(rng), rng.randint(0, 3),
                      rng.randint(0, max_b)))
    return ansatz_from_c(terms)


class UnbalancedPath(ValueError):
    """The path does not return to height zero."""


class LatticePath:
    """Nonnegative lattice path from height zero: steps of +1/-1."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[int]):
        ss = tuple(int(s) for s in steps)
        if any(s not in (1, -1) for s in ss):
            raise ValueError("steps must be +1 or -1")
        h = 0
        for s in ss:
            h += s
            if h < 0:
                raise ValueError("path dips below height zero")
        object.__setattr__(self, "steps", ss)

    def __setattr__(self, name, value):
        raise AttributeError("LatticePath is immutable")

    @classmethod
    def from_string(cls, word: str) -> "LatticePath":
        return cls(1 if ch == "U" else -1 for ch in word.upper())

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        if isinstance(other, LatticePath):
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.steps)

    @property
    def end_height(self) -> int:
        return sum(self.steps)

    def heights(self) -> list[int]:
        hs = [0]
        for s in self.steps:
            hs.append(hs[-1] + s)
        return hs

    def __repr__(self) -> str:
        return "".join("U" if s == 1 else "D" for s in self.steps) or "(empty)"


def iter_paths(length: int, start_height: int = 0,
               end_height: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield all nonnegative step sequences between the given heights."""

    def rec(remaining: int, h: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if h == end_height:
                yield tuple(acc)
            return
        if abs(end_height - h) > remaining:
            return
        acc.append(1)
        yield from rec(remaining - 1, h + 1, acc)
        acc.pop()
        if h > 0:
            acc.append(-1)
            yield from rec(remaining - 1, h - 1, acc)
            acc.pop()

    yield from rec(length, start_height, [])


def path_to_partition(p: LatticePath) -> tuple[int, ...]:
    """Row lengths of the partition cut out above a balanced path inside
    its bounding staircase.

    One part per down step: the number of up steps strictly to its right.
    Zero parts are dropped.
    """
    if p.end_height != 0:
        raise UnbalancedPath(f"path ends at height {p.end_height}")
    ups_after = 0
    parts_rev: list[int] = []
    for s in reversed(p.steps):
        if s == 1:
            ups_after += 1
        else:
            parts_rev.append(ups_after)
    return tuple(part for part in reversed(parts_rev) if part)


def marking_counts(p: LatticePath) -> dict[int, int]:
    """Number of markings of one path, per number of pairs.

    Forward sweep: a down step may open a pending pair; an up step may
    close any one pending pair.  Counting closures gives the tally.
    """
    states: dict[tuple[int, int], int] = {(0, 0): 1}  # (open, closed) -> ways
    for s in p.steps:
        nxt: dict[tuple[int, int], int] = {}
        for (open_, closed), w in states.items():
            if s == -1:
                for key in ((open_, closed), (open_ + 1, closed)):
                    nxt[key] = nxt.get(key, 0) + w
            else:
                nxt[(open_, closed)] = nxt.get((open_, closed), 0) + w
                if open_:
                    key = (open_ - 1, closed + 1)
                    nxt[key] = nxt.get(key, 0) + open_ * w
        states = nxt
    out: dict[int, int] = {}
    for (open_, closed), w in states.items():
        if open_ == 0:
            out[closed] = out.get(closed, 0) + w
    return out


def count_markings(p: LatticePath, g: int) -> int:
    """Number of markings of p with exactly g pairs."""
    if p.end_height != 0:
        raise UnbalancedPath(f"path ends at height {p.end_height}")
    if g < 0:
        raise ValueError("g must be nonnegative")
    return marking_counts(p).get(g, 0)


def brute_marking_count(path, g: int) -> int:
    """Count marked pair sets by explicit enumeration and injections."""
    downs = [i for i, s in enumerate(path.steps) if s == -1]
    ups = [i for i, s in enumerate(path.steps) if s == 1]
    total = 0
    for chosen in itertools.combinations(downs, g):

        def injections(i, used):
            if i == g:
                return 1
            count = 0
            for u in ups:
                if u > chosen[i] and u not in used:
                    used.add(u)
                    count += injections(i + 1, used)
                    used.discard(u)
            return count

        total += injections(0, set())
    return total


def conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Transposed diagram: column j's height is the number of parts >= j."""
    cols = [0] * max(shape, default=0)
    for p in shape:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def cells(shape: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """All diagram cells as 1-indexed (row, column)."""
    for i, p in enumerate(shape, start=1):
        for j in range(1, p + 1):
            yield i, j


def fits_staircase(shape: tuple[int, ...], k: int) -> bool:
    """Part i at most k - i: the diagram fits above a semilength-k path."""
    return all(p <= k - i for i, p in enumerate(shape, start=1))


class RookPlacement:
    """Non-attacking rooks on the cells of a partition diagram."""

    __slots__ = ("shape", "rooks")

    def __init__(self, shape: tuple[int, ...],
                 rooks: Iterable[tuple[int, int]]):
        rs = frozenset((int(r), int(c)) for r, c in rooks)
        for r, c in rs:
            if not (1 <= r <= len(shape) and 1 <= c <= shape[r - 1]):
                raise ValueError(f"cell ({r}, {c}) outside the diagram")
        rows = [r for r, _ in rs]
        cols = [c for _, c in rs]
        if len(set(rows)) != len(rs) or len(set(cols)) != len(rs):
            raise ValueError("two rooks share a row or column")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rooks", rs)

    def __setattr__(self, name, value):
        raise AttributeError("RookPlacement is immutable")

    def __len__(self) -> int:
        return len(self.rooks)

    def __eq__(self, other) -> bool:
        if isinstance(other, RookPlacement):
            return self.shape == other.shape and self.rooks == other.rooks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, self.rooks))


def iter_rook_placements(shape: tuple[int, ...],
                         g: int) -> Iterator[RookPlacement]:
    """Exhaustively yield all placements of g non-attacking rooks."""
    diagram = list(cells(shape))

    def rec(idx: int, chosen: list[tuple[int, int]],
            rows: set[int], cols: set[int]) -> Iterator[RookPlacement]:
        if len(chosen) == g:
            yield RookPlacement(shape, chosen)
            return
        if idx == len(diagram) or len(diagram) - idx < g - len(chosen):
            return
        r, c = diagram[idx]
        if r not in rows and c not in cols:
            chosen.append((r, c))
            rows.add(r)
            cols.add(c)
            yield from rec(idx + 1, chosen, rows, cols)
            chosen.pop()
            rows.discard(r)
            cols.discard(c)
        yield from rec(idx + 1, chosen, rows, cols)

    yield from rec(0, [], set(), set())


def rook_polynomial(shape: tuple[int, ...]) -> list[int]:
    """Counts of g-rook placements for g = 0, 1, ... on a partition diagram.

    Column-by-column recursion in increasing column height: a rook in a
    column of height h, with t rooks already placed in shorter columns,
    has h - t free rows.
    """
    heights = sorted(conjugate(shape))
    ways = [1]
    for h in heights:
        nxt = ways + [0]
        for t in range(len(ways)):
            free = h - t
            if free > 0:
                nxt[t + 1] += ways[t] * free
        ways = nxt
    while len(ways) > 1 and ways[-1] == 0:
        ways.pop()
    return ways


def count_rook_placements(shape: tuple[int, ...], g: int) -> int:
    poly = rook_polynomial(shape)
    return poly[g] if 0 <= g < len(poly) else 0


def staircase_partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Row lengths of all partitions with part i at most k - i."""

    def rec(i: int, cap: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(acc)
        top = min(cap, k - i)
        for part in range(top, 0, -1):
            acc.append(part)
            yield from rec(i + 1, part, acc)
            acc.pop()

    yield from rec(1, k - 1, [])


def partitions_of(total: int) -> Iterator[tuple[int, ...]]:
    """Row lengths of all partitions of the given size, largest first."""

    def rec(remaining: int, cap: int,
            acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(total, total, [])


def tableau_count(shape: tuple[int, ...]) -> int:
    """f^lambda, the number of standard tableaux, by the hook length formula."""
    cols = conjugate(shape)
    hooks = 1
    for i, j in cells(shape):
        hooks *= shape[i - 1] - j + cols[j - 1] - i + 1
    return factorial(sum(shape)) // hooks


def corner_contents(shape: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(addable, removable) contents j - i of shape's corners, descending.

    Read off the diagram's cells, not its row lengths: a cell (i, j)
    outside the diagram is addable when (i-1, j) and (i, j-1) are each
    inside it or off its edge (row or column 0), and a cell inside is
    removable when (i+1, j) and (i, j+1) are both outside.
    """
    inside = set(cells(shape))

    def filled(i: int, j: int) -> bool:
        return i == 0 or j == 0 or (i, j) in inside

    border = itertools.product(range(1, len(shape) + 2),
                               range(1, max(shape, default=0) + 2))
    addable = [j - i for i, j in border if not filled(i, j)
               and filled(i - 1, j) and filled(i, j - 1)]
    removable = [j - i for i, j in inside
                 if not filled(i + 1, j) and not filled(i, j + 1)]
    return sorted(addable, reverse=True), sorted(removable, reverse=True)


def corner_measure_by_partial_fractions(
        shape: tuple[int, ...]) -> tuple[list[int], list[Fraction], list[int]]:
    """(atoms, weights, lower) of the corner measure of shape.

    The atoms are the addable contents a_i, the lower contents are the
    removable ones b_j (corner_contents), and the weights are the partial
    fractions prod_j (a_i - b_j) / prod_(i' != i) (a_i - a_i') of
    prod_j (z - b_j) / prod_i (z - a_i).  This is the reference for the
    power-series division of sampler.corner_moments.
    """
    atoms, lower = corner_contents(shape)
    weights = []
    for i, a in enumerate(atoms):
        num = den = 1
        for b in lower:
            num *= a - b
        for j, other in enumerate(atoms):
            if j != i:
                den *= a - other
        weights.append(Fraction(num, den))
    return atoms, weights, lower


def corner_moment_rows(k_max: int) -> list[dict[int, int]]:
    """For k = 1..k_max, 1/n^g -> coefficient of the Poissonized
    Plancherel average of the 2k-th moment of Kerov's corner transition
    measure, by enumeration.

    The average over Plancherel(N), weights (f^lambda)^2/N!, is a
    polynomial of degree k in N.  Its forward differences at N = 0 give
    the coefficients a_j of the falling factorials N^(j); Poissonization
    sends N^(j) to n^j, so after scaling by n^k the 1/n^g row is a_(k-g).
    One point past degree k checks the fit.  Every row comes from one
    enumeration of the partitions of N <= k_max + 1, with one
    sampler.corner_moments call per shape.  The averages are kept as
    ints times (k_max+1)!, and each division back is checked to be exact.
    """
    scale = factorial(k_max + 1)
    values = []  # values[N][k]: (k_max+1)! times the average at size N
    for size in range(k_max + 2):
        sums = [0] * (k_max + 1)
        for lam in partitions_of(size):
            weight = tableau_count(lam) ** 2
            moments = sampler.corner_moments(lam, 2 * k_max)
            for k in range(k_max + 1):
                sums[k] += weight * moments[2 * k]
        values.append([v * (scale // factorial(size)) for v in sums])
    rows = []
    for k in range(1, k_max + 1):
        column = [at_size[k] for at_size in values[:k + 2]]
        diffs = []
        while column:
            diffs.append(column[0])
            column = [b - a for a, b in zip(column, column[1:])]
        if diffs[k + 1]:
            raise ValueError(f"the k={k} average is not of degree k in N")
        row = {}
        for j in range(k + 1):
            count, rest = divmod(diffs[j], scale * factorial(j))
            if rest:
                raise ValueError(
                    f"the k={k} coefficient of N^({j}) is not an int")
            if count:
                row[k - j] = count
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def rook_counts_exhaustive(k: int) -> tuple[int, ...]:
    """Rook counts per g summed over every staircase shape."""
    totals: list[int] = []
    for shape in staircase_partitions(k):
        for g, n in enumerate(rook_polynomial(shape)):
            if g == len(totals):
                totals.append(0)
            totals[g] += n
    return tuple(totals)


def rook_rows_reference(k_max: int) -> list[tuple[int, ...]]:
    """Rook counts per g for k = 1..k_max, one list of counts per state.

    A state (height, open pairs) holds a tally of closed pairs by their
    number.  A down step may open a pair; an up step may close one of
    the open pairs, which multiplies by their number.  This counts the
    rook placements on staircase shapes via the marking/rook
    correspondence, without enumerating paths.  The transitions do not
    depend on k, so the tally at (0, 0) after step 2k is row k; a state
    with fewer steps left than height + 2 * open is dropped.  Each tally
    is a list indexed by the number of closed pairs, grown as needed.
    """
    states: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    rows: list[tuple[int, ...]] = []
    left = 2 * k_max
    while left:
        left -= 1
        nxt: dict[tuple[int, int], list[int]] = {}

        def add(h, open_, tally, shift, factor):
            if h + 2 * open_ > left:
                return
            slot = nxt.setdefault((h, open_), [])
            if len(slot) < len(tally) + shift:
                slot.extend([0] * (len(tally) + shift - len(slot)))
            for closed, w in enumerate(tally, shift):
                slot[closed] += factor * w

        for (h, open_), tally in states.items():
            add(h + 1, open_, tally, 0, 1)
            if open_:
                add(h + 1, open_ - 1, tally, 1, open_)
            if h > 0:
                add(h - 1, open_, tally, 0, 1)
                add(h - 1, open_ + 1, tally, 0, 1)
        states = nxt
        if left % 2 == 0:
            rows.append(tuple(states.get((0, 0), ())))
    return rows


def dyck_words(k: int) -> Iterator[str]:
    """Yield the semilength-k nonnegative balanced paths as "u"/"d" words.

    A raising step is tried before a lowering one, the order of
    iter_paths; once every raising step is placed the word closes with
    the lowering steps it still needs.
    """

    def rec(word: str, ups: int, h: int) -> Iterator[str]:
        if ups == 0:
            yield word + "d" * h
            return
        yield from rec(word + "u", ups - 1, h + 1)
        if h > 0:
            yield from rec(word + "d", ups, h - 1)

    yield from rec("", k, 0)


def normal_order(word: str, memo: dict[str, dict[int, int]]) -> dict[int, int]:
    """Tally of commutator insertions needed to normal-order one word.

    A word spells raising steps as "u" and lowering steps as "d".  Scans
    for the first lowering step immediately left of a raising step and
    rewrites it as the swap plus the deletion weighted by one power of
    1/n; a fully ordered word evaluates to 1.  Leading raising and
    trailing lowering steps are never rewritten, so they are stripped
    before the lookup in memo, which the caller owns.
    """
    word = word.lstrip("u").rstrip("d")
    cached = memo.get(word)
    if cached is not None:
        return cached
    spot = word.find("du")
    if spot < 0:
        result = {0: 1}
    else:
        swapped = normal_order(word[:spot] + "ud" + word[spot + 2:], memo)
        dropped = normal_order(word[:spot] + word[spot + 2:], memo)
        result = dict(swapped)
        for g, n in dropped.items():
            result[g + 1] = result.get(g + 1, 0) + n
    memo[word] = result
    return result


def transformed_moment_reference(size: int, k: int) -> int:
    """transformed_moment by the path walk that prunes no state.

    Every height a path reaches is kept; a down step ending at h weighs
    size - h, and a zero weight is skipped.
    """
    ways = {0: 1}
    for _ in range(2 * k):
        nxt: dict[int, int] = {}
        for h, w in ways.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + w
            if h > 0 and size - (h - 1):
                nxt[h - 1] = nxt.get(h - 1, 0) + w * (size - (h - 1))
        ways = nxt
    return ways.get(0, 0)


def hermite_coeffs(n: int) -> list[int]:
    """Monic probabilists' Hermite polynomial, coefficients low to high."""
    prev, cur = [1], [0, 1]
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= k * v
        prev, cur = cur, nxt
    return cur


def power_sums(coeffs: list[int], upto: int) -> list[int]:
    """Power sums of the roots of a monic polynomial (Newton's identities)."""
    d = len(coeffs) - 1
    e = [(-1) ** i * coeffs[d - i] for i in range(d + 1)]
    p = [d]
    for k in range(1, upto + 1):
        s = 0
        for i in range(1, min(k - 1, d) + 1):
            s += (-1) ** (i - 1) * e[i] * p[k - i]
        if k <= d:
            s += (-1) ** (k - 1) * e[k] * k
        p.append(s)
    return p


def argparse_reference_parser() -> argparse.ArgumentParser:
    """The command line as argparse parsed it, with the same converters."""
    parser = argparse.ArgumentParser(prog="ppmoments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json",
                       dest="output_format")
        p.add_argument("--out", type=_path, default=None, metavar="FILE")

    p = sub.add_parser("theta")
    p.add_argument("--g-max", type=_positive, default=4)
    common(p)

    p = sub.add_parser("phi")
    p.add_argument("--g-max", type=_positive, default=4)
    p.add_argument("--dump-ansatz", action="store_true")
    common(p)

    p = sub.add_parser("moments")
    p.add_argument("--k-max", type=_positive, default=8)
    common(p)

    p = sub.add_parser("verify")
    p.add_argument("--g-max", type=_positive, default=4)
    p.add_argument("--k-max", type=_positive, default=8)
    common(p)

    p = sub.add_parser("sample")
    p.add_argument("--n", type=_poisson_mean, default=2)
    p.add_argument("--k", type=_positive, default=2)
    p.add_argument("--trials", type=_positive, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)

    return parser


def peak_sizes_reference(n: int, k: int) -> set[int]:
    """sampler._peak_sizes, its peak size found by a hand-written bisection.

    N ln(N/n) - k is < 0 at lo and taken to be >= 0 at hi throughout.
    """
    lo, hi = n, n + k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * log(mid / n) < k:
            lo = mid
        else:
            hi = mid
    window = sampler._WINDOW + 2 * isqrt(n)
    sizes = {*range(max(hi - window, 0), min(hi + window, 64 * k) + 1)}
    if n <= 64 * k:
        sizes.add(n)
    return sizes


def z_unsupported_by_walks(n: int, k: int, trials: int,
                           scaled_target: int) -> bool:
    """sampler._z_unsupported, each unseen moment walked, not read off a row.

    scaled_target is n**k times the target.  The window and the unseen
    test are the sampler's; each m_N is transformed_moment(N, k).
    """
    a, b = (v ** n for v in sampler._E_BELOW)
    unseen = {size: transformed_moment(size, k)
              for size in sampler._peak_sizes(n, k)
              if trials * n ** size * b < factorial(size) * a}
    total, scale = sampler._peak_terms(n, unseen)
    return 2 * total >= scale * scaled_target


def mc_moments_by_walks(n: int, ks: list[int], trials: int,
                        seed: int = DEFAULT_SEED) -> list[tuple[float, float]]:
    """sampler.mc_moments with each distinct drawn size's moment walked.

    The draws are the sampler's (_drawn_sizes); each moment is
    transformed_moment(size, k), not read off a row, and the exact sums
    and their one rounding each are those of sampler._moment_estimate.
    """
    if any(k < 0 for k in ks):
        raise ValueError("moment orders must be nonnegative")
    counts = sampler._drawn_sizes(n, trials, seed)
    estimates = []
    for k in ks:
        s1 = s2 = 0
        for size, count in counts.items():
            v = transformed_moment(size, k)
            s1 += count * v
            s2 += count * v * v
        scale = n ** k
        mean = s1 / (trials * scale)
        if trials == 1:
            estimates.append((mean, 0.0))
            continue
        var = trials * s2 - s1 * s1
        den = trials * trials * (trials - 1) * scale * scale
        try:
            estimates.append((mean, sqrt(var / den)))
        except OverflowError:  # the variance alone exceeds a double
            estimates.append((mean, float(isqrt(var // den))))
    return estimates
