"""Routes to the exact moment polynomials in 1/n.

Three production routes feed the reports:

  * the size walk (moment_polynomials): row k is a column of Newton
    differences at N = 0 of the 2k-th moment at size N
    (transformed_moment), a polynomial of degree k in N, read off one
    path walk per size N = 0..k_max (_size_moments);
  * word normal ordering (word_moment, and _word_rows for every row):
    the sum of all raising/lowering operator words of length 2k,
    normal-ordered under [d, u] = 1/n by one walk of 2k_max letters over
    (height, pending lowering steps) that yields every row k = 1..k_max;
  * path_counts and enum_paths: nonnegative lattice paths between two
    heights.

The first two give the same moment polynomials independently, each
row a plain {g: count} dict with the count at 1/n**g, and the closed
forms are checked against them.  They are different recurrences
and share no code: the size walk evaluates the operator word sum at one
finite size, weighing each down step by size - h, and reads the powers
of 1/n off its values at the sizes 0..k, while the word walk keeps
every lowering step pending, contracts one at a raising step, and sums
every state at height 0.  The exhaustive references the test suite
compares these routes with (explicit lattice paths and their marked
step pairs, explicit rook placements on every staircase shape, the rook
transfer matrix, per-word normal ordering) live in tests/helpers.py,
outside the package.
"""

from __future__ import annotations

from math import factorial

__all__ = [
    "enum_paths",
    "moment_polynomial",
    "moment_polynomials",
    "path_counts",
    "transformed_moment",
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


def _size_moments(size: int, k_max: int) -> list[int]:
    """Moments p_0..p_k_max of the size-only measure at one size.

    p_k is the sum over nonnegative balanced paths of length 2k of the
    product of (size - h) over the down steps ending at height h.  One
    walk of 2 * k_max steps keeps one weight per height; the transitions
    do not depend on k, so the weight at height 0 after step 2k is p_k.
    It drops every state that adds nothing: one higher than the steps
    left before the horizon cannot return to 0, and one above `size`
    must step down from size + 1 to size, weight 0.
    """
    ways = [1]  # ways[h]: weight of the paths so far that end at height h
    moments = [1]
    for left in reversed(range(2 * k_max)):
        top = min(len(ways), left, size)  # highest height kept
        nxt = [0] * (top + 1)
        # after an even number of steps only even heights are reached
        for h in range((left + 1) % 2, len(ways), 2):
            w = ways[h]
            if h < top:
                nxt[h + 1] += w
            if h:
                nxt[h - 1] += w * (size - h + 1)
        ways = nxt
        if left % 2 == 0:
            moments.append(ways[0])
    return moments


def transformed_moment(size: int, k: int) -> int:
    """Exact unscaled 2k-th moment of the transformed measure at a size.

    The last entry of _size_moments(size, k): the diagonal matrix element
    of the 2k-th power of the raising/lowering operator word sum at level
    `size`.  (size+1) times it is the 2k-th power sum of the roots of the
    monic degree-(size+1) probabilists' Hermite polynomial, i.e. the
    measure is uniform on those roots.  Its mass, mean and variance
    agree with the corner transition measure of any partition of the
    same size.
    """
    if size < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    return _size_moments(size, k)[-1]


def moment_polynomials(k_max: int) -> list[dict[int, int]]:
    """Moments of orders 2, 4, ..., 2k_max by Newton differences in the size.

    Row k - 1 is the moment of order 2k as {g: count}, the count at
    1/n**g; it holds the k positive counts at g = 0..k-1.  p_k(N), the
    2k-th moment at size N, is a polynomial of degree k in N, and
    Poissonization at mean n sends the falling factorial N(N-1)...(N-j+1)
    to n**j.  So the count at 1/n**(k-j) is the forward difference
    Delta**j p_k(0) / j!, an exact division.  It needs p_k at the sizes
    0..k; one size walk per size N = 0..k_max, each to horizon 2k_max,
    gives every row.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    values = [_size_moments(size, k_max) for size in range(k_max + 1)]
    rows = []
    for k in range(1, k_max + 1):
        diffs = [moments[k] for moments in values[:k + 1]]
        counts = []  # counts[j - 1] sits at 1/n**(k - j)
        for j in range(1, k + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            counts.append(diffs[0] // factorial(j))
        rows.append(dict(enumerate(reversed(counts))))
    return rows


def moment_polynomial(k: int) -> dict[int, int]:
    """Moment of order 2k, the last row of moment_polynomials(k)."""
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
