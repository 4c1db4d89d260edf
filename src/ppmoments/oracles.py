"""Combinatorial routes to the exact moment polynomials in 1/n.

Three production routes feed the reports:

  * the rook transfer matrix (moment_polynomials): rook placements on
    staircase-bounded partitions, counted by one walk of 2k_max steps
    over (height, open pairs) that yields every row k = 1..k_max;
  * word normal ordering (word_moment): the sum of all raising/lowering
    operator words of length 2k, normal-ordered under [d, u] = 1/n by
    one walk over (height, pending lowering steps);
  * path_counts and enum_paths: nonnegative lattice paths between two
    heights.

The first two give the same moment polynomials independently, and the
closed forms are checked against them.  They are different recurrences
and share no code: the rook walk decides at a down step whether it opens
a pair and reads only state (0, 0), while the word walk keeps every
lowering step pending, contracts one at a raising step, and sums every
state at height 0.  The exhaustive references the test suite compares
these routes with (explicit lattice paths and their marked step pairs,
explicit rook placements on every staircase shape, per-word normal
ordering) live in tests/helpers.py, outside the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

__all__ = [
    "MomentPolynomial",
    "enum_paths",
    "moment_polynomial",
    "moment_polynomials",
    "path_counts",
    "word_moment",
]


def path_counts(start_height: int, max_length: int) -> list[dict[int, int]]:
    """Nonnegative paths from one height, by length and end height.

    Entry [length][end] counts the paths of that length from
    start_height to end; one walk yields every length up to max_length.
    """
    if start_height < 0 or max_length < 0:
        raise ValueError("arguments must be nonnegative")
    rows = [{start_height: 1}]
    for _ in range(max_length):
        nxt: dict[int, int] = {}
        for h, w in rows[-1].items():
            nxt[h + 1] = nxt.get(h + 1, 0) + w
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + w
        rows.append(nxt)
    return rows


def enum_paths(length: int, start_height: int, end_height: int) -> int:
    """Count nonnegative paths of the given length between two heights."""
    if end_height < 0:
        raise ValueError("arguments must be nonnegative")
    return path_counts(start_height, length)[length].get(end_height, 0)


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


def word_moment(k: int) -> MomentPolynomial:
    """Moment of order 2k by normal-ordering the sum of all operator words.

    The words are the step sequences of nonnegative balanced paths, with
    a raising step for up and a lowering step for down, and [d, u] = 1/n.
    One walk normal-orders all of them at once, letter by letter.  State
    (height, pending) holds a tally by power of 1/n, where pending counts
    the lowering steps that no raising step has passed yet.  A lowering
    step adds one pending.  A raising step passes them all, and by
    d^j u = u d^j + (j/n) d^(j-1) it may instead contract one of the j,
    with weight j and one more power of 1/n.  A state higher than the
    steps left cannot return to height 0 and is dropped.  Every ordered
    word counts 1, so the tallies left after step 2k sum to the moment.
    """
    if k < 1:
        raise ValueError("k must be positive")
    states: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    for left in reversed(range(2 * k)):
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (h, pending), tally in states.items():
            steps = [(h + 1, pending, 0, 1)]
            if pending:
                steps.append((h + 1, pending - 1, 1, pending))
            if h:
                steps.append((h - 1, pending + 1, 0, 1))
            for to_h, to_pending, extra, weight in steps:
                if to_h > left:
                    continue
                slot = nxt.setdefault((to_h, to_pending), {})
                for g, n in tally.items():
                    slot[g + extra] = slot.get(g + extra, 0) + weight * n
        states = nxt
    totals: dict[int, int] = {}
    for tally in states.values():
        for g, n in tally.items():
            totals[g] = totals.get(g, 0) + n
    return MomentPolynomial(k, totals)
