"""Brute-force combinatorial ground truth for the moment expansion.

Three independent routes produce the same exact moment polynomials in
1/n, and the rest of the package is tested against them:

  * lattice paths with marked step pairs (count_markings),
  * non-attacking rook placements on staircase-bounded partitions
    (rook_counts / moment_polynomials),
  * normal ordering of raising/lowering operator words under the
    commutation rule LOWER*RAISE -> RAISE*LOWER + 1/n (word_moment).

Rook counts come from a transfer matrix over (height, open pairs): one
walk of 2k_max steps yields every row k = 1..k_max.  Exhaustive
enumeration of staircase shapes stays as the reference that the test
suite compares the transfer matrix against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

__all__ = [
    "DuplicateEntries",
    "LatticePath",
    "Marking",
    "MomentPolynomial",
    "Partition",
    "RookPlacement",
    "UnbalancedPath",
    "count_markings",
    "count_rook_placements",
    "enum_paths",
    "iter_paths",
    "iter_rook_placements",
    "marking_counts",
    "moment_polynomial",
    "moment_polynomials",
    "partitions_of",
    "path_to_partition",
    "rook_counts",
    "rook_polynomial",
    "staircase_partitions",
    "word_moment",
]

class UnbalancedPath(ValueError):
    """The path does not return to height zero."""


class DuplicateEntries(ValueError):
    """Insertion words must have pairwise distinct entries."""


class Partition:
    """Integer partition: weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts if p)
        if any(p < 0 for p in ps):
            raise ValueError("parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All diagram cells as 1-indexed (row, column)."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def fits_staircase(self, k: int) -> bool:
        """Part i at most k - i: the diagram fits above a semilength-k path."""
        return all(p <= k - i for i, p in enumerate(self.parts, start=1))

    def addable_contents(self) -> list[int]:
        """Contents (column - row) of cells that can be added, descending."""
        out = []
        prev = None
        for i, p in enumerate(self.parts, start=1):
            if prev is None or p < prev:
                out.append(p + 1 - i)
            prev = p
        out.append(-len(self.parts))
        return out

    def removable_contents(self) -> list[int]:
        """Contents of cells that can be removed, descending."""
        out = []
        parts = self.parts
        for i, p in enumerate(parts, start=1):
            if i == len(parts) or parts[i] < p:
                out.append(p - i)
        return out


def partitions_of(total: int) -> Iterator[Partition]:
    """All partitions of the given size."""

    def rec(remaining: int, cap: int, acc: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(total, total, [])


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


def enum_paths(length: int, start_height: int, end_height: int) -> int:
    """Count nonnegative paths of the given length between two heights."""
    if length < 0 or start_height < 0 or end_height < 0:
        raise ValueError("arguments must be nonnegative")
    ways = {start_height: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for h, w in ways.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + w
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + w
        ways = nxt
    return ways.get(end_height, 0)


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


def path_to_partition(p: LatticePath) -> Partition:
    """Partition cut out above a balanced path inside its bounding staircase.

    One part per down step: the number of up steps strictly to its right.
    Zero parts are dropped by canonicalization.
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
    return Partition(reversed(parts_rev))


class Marking:
    """Pairing of down steps with distinct later up steps of one path."""

    __slots__ = ("pairs",)

    def __init__(self, path: LatticePath, pairs: Iterable[tuple[int, int]]):
        ps = frozenset((int(d), int(u)) for d, u in pairs)
        downs = [d for d, _ in ps]
        ups = [u for _, u in ps]
        if len(set(downs)) != len(ps) or len(set(ups)) != len(ps):
            raise ValueError("marked steps must be distinct")
        for d, u in ps:
            if not (0 <= d < len(path) and 0 <= u < len(path)):
                raise ValueError("step index out of range")
            if path.steps[d] != -1 or path.steps[u] != 1:
                raise ValueError("pairs must join a down step to an up step")
            if u < d:
                raise ValueError("the up step must come after the down step")
        object.__setattr__(self, "pairs", ps)

    def __setattr__(self, name, value):
        raise AttributeError("Marking is immutable")

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Marking):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)


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


class RookPlacement:
    """Non-attacking rooks on the cells of a partition diagram."""

    __slots__ = ("shape", "rooks")

    def __init__(self, shape: Partition, rooks: Iterable[tuple[int, int]]):
        rs = frozenset((int(r), int(c)) for r, c in rooks)
        parts = shape.parts
        for r, c in rs:
            if not (1 <= r <= len(parts) and 1 <= c <= parts[r - 1]):
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


def iter_rook_placements(shape: Partition, g: int) -> Iterator[RookPlacement]:
    """Exhaustively yield all placements of g non-attacking rooks."""
    cells = list(shape.cells())

    def rec(idx: int, chosen: list[tuple[int, int]],
            rows: set[int], cols: set[int]) -> Iterator[RookPlacement]:
        if len(chosen) == g:
            yield RookPlacement(shape, chosen)
            return
        if idx == len(cells) or len(cells) - idx < g - len(chosen):
            return
        r, c = cells[idx]
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


def rook_polynomial(shape: Partition) -> list[int]:
    """Counts of g-rook placements for g = 0, 1, ... on a partition diagram.

    Column-by-column recursion in increasing column height: a rook in a
    column of height h, with t rooks already placed in shorter columns,
    has h - t free rows.
    """
    heights = sorted(shape.conjugate().parts)
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


def count_rook_placements(shape: Partition, g: int) -> int:
    poly = rook_polynomial(shape)
    return poly[g] if 0 <= g < len(poly) else 0


def staircase_partitions(k: int) -> Iterator[Partition]:
    """All partitions with part i at most k - i."""

    def rec(i: int, cap: int, acc: list[int]) -> Iterator[Partition]:
        yield Partition(acc)
        top = min(cap, k - i)
        for part in range(top, 0, -1):
            acc.append(part)
            yield from rec(i + 1, part, acc)
            acc.pop()

    yield from rec(1, k - 1, [])


@lru_cache(maxsize=None)
def _rook_counts_exhaustive(k: int) -> tuple[int, ...]:
    """Rook counts per g summed over every staircase shape (test reference)."""
    totals: list[int] = []
    for shape in staircase_partitions(k):
        for g, n in enumerate(rook_polynomial(shape)):
            if g == len(totals):
                totals.append(0)
            totals[g] += n
    return tuple(totals)


def _rook_rows(k_max: int) -> list[tuple[int, ...]]:
    """Rook counts per g for k = 1..k_max from one marked-path walk.

    State (height, open pairs) holds a tally of closed pairs, listed by
    their number.  A down step may open a pair; an up step may close one
    of the open pairs, which multiplies by their number.  Equivalent to
    the exhaustive count via the marking/rook correspondence, without
    enumerating paths.  The transitions do not depend on k, so the tally
    at (0, 0) after step 2k is row k.  A state needs at least
    height + 2 * open more steps to reach (0, 0); one with fewer steps
    left before the horizon 2 * k_max is dropped.
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


class MomentPolynomial:
    """Exact moment of order 2k as a polynomial in 1/n: g -> count."""

    __slots__ = ("k", "counts")

    def __init__(self, k: int, counts: Mapping[int, int]):
        if k < 1:
            raise ValueError("k must be positive")
        clean = {int(g): int(n) for g, n in counts.items() if n}
        if any(g < 0 or n < 0 for g, n in clean.items()):
            raise ValueError("counts must be nonnegative at nonnegative g")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "counts", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MomentPolynomial is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, MomentPolynomial):
            return self.k == other.k and self.counts == other.counts
        return NotImplemented

    def evaluate(self, n: int) -> Fraction:
        """Exact value at a concrete expansion parameter n."""
        return sum((Fraction(c, n ** g) for g, c in self.counts.items()),
                   Fraction(0))

    def to_json(self) -> dict:
        return {"k": self.k,
                "counts": {str(g): c for g, c in sorted(self.counts.items())}}

    def __repr__(self) -> str:
        terms = [f"{c}" if g == 0 else f"{c}/n^{g}" if g > 1 else f"{c}/n"
                 for g, c in sorted(self.counts.items())]
        return f"MomentPolynomial(k={self.k}: {' + '.join(terms) or '0'})"


def moment_polynomials(k_max: int) -> list[MomentPolynomial]:
    """Moments of orders 2, 4, ..., 2k_max from one rook transfer-matrix walk."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return [MomentPolynomial(k, dict(enumerate(row)))
            for k, row in enumerate(_rook_rows(k_max), start=1)]


def moment_polynomial(k: int) -> MomentPolynomial:
    """Moment of order 2k via rook counts on staircase shapes."""
    if k < 1:
        raise ValueError("k must be positive")
    return moment_polynomials(k)[-1]


def rook_counts(k: int, g: int) -> int:
    """Number of g-rook placements over all semilength-k staircase shapes."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    return moment_polynomial(k).counts.get(g, 0)


def _normal_order(word: str, memo: dict[str, dict[int, int]]) -> dict[int, int]:
    """Tally of commutator insertions needed to normal-order a word.

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
        swapped = _normal_order(word[:spot] + "ud" + word[spot + 2:], memo)
        dropped = _normal_order(word[:spot] + word[spot + 2:], memo)
        result = dict(swapped)
        for g, n in dropped.items():
            result[g + 1] = result.get(g + 1, 0) + n
    memo[word] = result
    return result


def _dyck_words(k: int) -> Iterator[str]:
    """Yield the semilength-k nonnegative balanced paths as "u"/"d" words.

    Same order as iter_paths(2 * k); once every raising step is placed
    the word closes with the lowering steps it still needs.
    """

    def rec(word: str, ups: int, h: int) -> Iterator[str]:
        if ups == 0:
            yield word + "d" * h
            return
        yield from rec(word + "u", ups - 1, h + 1)
        if h > 0:
            yield from rec(word + "d", ups, h - 1)

    yield from rec("", k, 0)


def word_moment(k: int) -> MomentPolynomial:
    """Moment of order 2k by normal-ordering operator words.

    Words are the step sequences of nonnegative balanced paths; each
    application of the commutation rule contributes one power of 1/n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    totals: dict[int, int] = {}
    memo: dict[str, dict[int, int]] = {}
    for word in _dyck_words(k):
        for g, n in _normal_order(word, memo).items():
            totals[g] = totals.get(g, 0) + n
    return MomentPolynomial(k, totals)
