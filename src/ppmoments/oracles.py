"""Combinatorial routes to the exact moment polynomials in 1/n.

Three production routes feed the reports:

  * the rook transfer matrix (moment_polynomials): rook placements on
    staircase-bounded partitions, counted by one walk of 2k_max steps
    over (height, open pairs) that yields every row k = 1..k_max.  Each
    state's tally of closed pairs is one int with a fixed-width slot per
    count; the width is a bound on the counts proved ahead of the walk
    (see _rook_rows), so no slot carries into the next;
  * word normal ordering (word_moment, and _word_rows for every row):
    the sum of all raising/lowering operator words of length 2k,
    normal-ordered under [d, u] = 1/n by one walk of 2k_max letters over
    (height, pending lowering steps) that yields every row k = 1..k_max;
  * path_counts and enum_paths: nonnegative lattice paths between two
    heights.

The first two give the same moment polynomials independently, each
row a plain {g: count} dict with the count at 1/n**g, and the closed
forms are checked against them.  They are different recurrences
and share no code: the rook walk decides at a down step whether it opens
a pair and reads only state (0, 0), while the word walk keeps every
lowering step pending, contracts one at a raising step, and sums every
state at height 0.  The exhaustive references the test suite compares
these routes with (explicit lattice paths and their marked step pairs,
explicit rook placements on every staircase shape, per-word normal
ordering) live in tests/helpers.py, outside the package.
"""

from __future__ import annotations

from math import prod

__all__ = [
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


def _slot_width(k_max: int) -> int:
    """Bits per closed-pair count in a packed tally of _rook_rows(k_max)."""
    return prod(3 + min(s, 2 * k_max - s) // 2
                for s in range(2 * k_max)).bit_length() + 1


def _rook_rows(k_max: int) -> list[tuple[int, ...]]:
    """Rook counts per g for k = 1..k_max from one marked-path walk.

    State (height, open pairs) holds a tally of closed pairs by their
    number.  A down step may open a pair; an up step may close one of
    the open pairs, which multiplies by their number.  Equivalent to the
    exhaustive count via the marking/rook correspondence, without
    enumerating paths.  The transitions do not depend on k, so the tally
    at (0, 0) after step 2k is row k.  A state needs at least
    height + 2 * open more steps to reach (0, 0); one with fewer steps
    left before the horizon 2 * k_max is dropped.

    Each tally is one int: the count for c closed pairs sits at bits
    [c * w, (c + 1) * w), so a plain step adds the parent's int and a
    closing step adds open times it shifted up one slot.  The width
    w = _slot_width(k_max) is a proved bound, not a runtime check.  After
    s steps a state has open <= min(s, 2 * k_max - s) // 2: each open
    pair took a down step and a path has at most s // 2 of them, and the
    pruning leaves 2 * open <= 2 * k_max - s.  The weights a state sends
    out at step s + 1 sum to (3 + open) times its tally, so the sum of
    all counts of all states grows at most by 3 + min(s, 2 * k_max - s) // 2
    at that step.  Every count, even mid-step, is therefore at most the
    product of these factors over the 2 * k_max steps, which is below
    2 ** (w - 1).  The counts are nonnegative, so no slot ever carries
    into the next (w = 280 bits at k_max = 40, where the largest count
    has 175).
    """
    width = _slot_width(k_max)
    mask = (1 << width) - 1
    # layers[open][height] is the packed tally of that state, 0 if unreached;
    # after s steps only heights of the parity of s are reached
    layers = [[1]]
    rows: list[tuple[int, ...]] = []
    for step in range(1, 2 * k_max + 1):
        left = 2 * k_max - step
        nxt = [[0] * (min(step, left - 2 * open_) + 1)
               for open_ in range(min(step, left) // 2 + 1)]
        for open_, tallies in enumerate(layers):
            for h in range((step - 1) % 2, len(tallies), 2):
                tally = tallies[h]
                if not tally:
                    continue
                # closing and plain down steps keep h + 2 * open <= left;
                # the other two need one step of room
                if open_:
                    nxt[open_ - 1][h + 1] += (open_ * tally) << width
                if h + 2 * open_ < left:
                    nxt[open_][h + 1] += tally
                    if h:
                        nxt[open_ + 1][h - 1] += tally
                if h:
                    nxt[open_][h - 1] += tally
        layers = nxt
        if left % 2 == 0:
            packed, row = layers[0][0], []
            while packed:
                row.append(packed & mask)
                packed >>= width
            rows.append(tuple(row))
    return rows


def moment_polynomials(k_max: int) -> list[dict[int, int]]:
    """Moments of orders 2, 4, ..., 2k_max from one rook transfer-matrix walk.

    Row k - 1 is the moment of order 2k as {g: count}, the count at
    1/n**g; it holds the k positive counts at g = 0..k-1.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return [dict(enumerate(row)) for row in _rook_rows(k_max)]


def moment_polynomial(k: int) -> dict[int, int]:
    """Moment of order 2k via rook counts on staircase shapes."""
    if k < 1:
        raise ValueError("k must be positive")
    return moment_polynomials(k)[-1]


def _word_rows(k_max: int) -> list[dict[int, int]]:
    """Word-route moment rows, power of 1/n -> count, for k = 1..k_max.

    The words are the step sequences of nonnegative balanced paths, with
    a raising step for up and a lowering step for down, and [d, u] = 1/n.
    One walk of 2 * k_max letters normal-orders all of them at once.
    State (height, pending) holds a tally by power of 1/n, where pending
    counts the lowering steps that no raising step has passed yet.  A
    lowering step adds one pending.  A raising step passes them all, and
    by d^j u = u d^j + (j/n) d^(j-1) it may instead contract one of the
    j, with weight j and one more power of 1/n.  A state higher than the
    steps left before the horizon cannot return to height 0 and is
    dropped.  Every ordered word counts 1, so after step 2k the tallies
    of the states at height 0 sum to row k.
    """
    states: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    rows: list[dict[int, int]] = []
    for left in reversed(range(2 * k_max)):
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
        if left % 2 == 0:
            row: dict[int, int] = {}
            for (h, _), tally in states.items():
                if h == 0:
                    for g, n in tally.items():
                        row[g] = row.get(g, 0) + n
            rows.append(row)
    return rows


def word_moment(k: int) -> dict[int, int]:
    """Moment of order 2k by normal-ordering the sum of all operator words.

    The last row of one word walk (_word_rows) up to horizon 2k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _word_rows(k)[-1]
