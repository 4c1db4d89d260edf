"""Monte Carlo side: Poissonized sizes, random partitions, corner measures.

The moment estimator needs only the size of each sampled partition: the
2k-th moment of the transformed measure of a partition depends on its
size alone.  So a trial draws a Poisson-distributed size and reads its
exact moment off the moment row of order 2k (_row_moment), which tests
the Poisson draw and the step from the row to the target, not the shape
sampler.  mc_moments and the sample command (_checked_estimate) share
one route: rows, an exact overflow test on the targets they give
(_target_rows), draws, exact sums.  The module uses the package's
DEFAULT_SEED and POISSON_MEAN_MAX and oracles' transformed_moment, and
does not export them again.

The shape sampler is separate.  sample_pp takes a
Poisson-distributed size, a uniform random permutation of that size, and
the insertion-tableau shape of the permutation, as the tuple of its row
lengths, largest first.  The corner (transition) measure of a partition
is the probability measure on the contents a_i of its addable corners
whose Cauchy transform is

    prod_j (z - b_j) / prod_i (z - a_i),

with b_j the contents of its removable corners.  Both products are
monic integer polynomials, so every moment is an int, and corner_moments
reads the contents off the row lengths and the moments off one
power-series division; positions rescaled by 1/sqrt(n) divide the k-th
moment by n**(k/2).  The corner measure has
the same mass, mean and variance as the transformed measure of a
partition of the same size.  Averaged over Poissonized Plancherel, its
sixth and eighth moments are larger; tests/test_sampler.py pins both
rows.

Randomness comes from a counter-based 64-bit generator that derives an
independent stream per trial index, so results are identical no matter
how trials are scheduled.  At means up to 30 a size is drawn by
inversion from the first output of its trial's stream alone, by
bisecting one list of integer thresholds per mean with that 64-bit
output; poisson_sample and every lane of the block kernel use this one
rule.  mc_moments makes
those outputs 256 trials at a time, as the 128-bit lanes of one int
read little-endian on every host, and reads each lane's draw off the
top two bytes of its output.  It maps each lane's top byte through a
256-byte table of draws and counts them 16 blocks at a time.  A lane
whose top-byte bucket holds a threshold maps its next byte through
that bucket's own table, and only a lane whose 2**48-wide sub-bucket
holds a threshold too bisects the same list (16 of 100,096 trials at
mean 2), so its tally is the one that per-trial poisson_sample calls
give.

A tally of 256 blocks or more is split into block-aligned ranges of
trials, one per CPU the process may run on, but never fewer than
_MIN_SHARE (128) blocks per range: forking a child and reaping it cost
about as much as 30 blocks.  The caller tallies the first range and a
forked child each other one, and a range whose child fails is tallied
by the caller; sample at its default 10,000 trials (40 blocks) never
forks.  Each lane's stream depends on (seed, t) alone and the counts
are exact ints, so the tally, and every report made from it, is the
same bytes at any CPU count.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from typing import BinaryIO, Iterable, Sequence

from . import DEFAULT_SEED, POISSON_MEAN_MAX
from .oracles import transformed_moment

__all__ = [
    "RngState",
    "corner_moments",
    "mc_moments",
    "poisson_sample",
    "rsk_shape",
    "sample_pp",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INVERSION_LIMIT = 30  # Poisson mean up to which plain inversion is used
_LANES = 256  # trials per block of the inversion kernel
# blocks a forked worker tallies at least: forking a child, reading its
# pipe and reaping it take about 1 ms, some 30 blocks' work
_MIN_SHARE = 128
_LANE_BITS = 128  # a 64-bit value and 64 zero bits of headroom
_MARKER = 255  # draw-table entry of a lane that is looked at more closely
_COUNTED_BLOCKS = 16  # blocks whose translated top bytes are counted at once


def _mix64_product(z: int, mask: int = _MASK64) -> int:
    """SplitMix64 finalizer up to its last product, which is not masked.

    The finalizer is this value's low 64 bits y, then y ^ (y >> 31); the
    xor leaves bits 33 to 63 of y alone, so bytes 6 and 7 of y are
    already the output's.  The product of a 64-bit value and a 64-bit
    constant is below 2**128, so in 128-bit lanes it stays in its lane.
    """
    z = (z ^ ((z >> 30) & mask)) * 0xBF58476D1CE4E5B9 & mask
    return (z ^ ((z >> 27) & mask)) * 0x94D049BB133111EB


def _mix64(z: int, mask: int = _MASK64) -> int:
    """SplitMix64 finalizer: bijective 64-bit avalanche.

    With a mask of 2**64 - 1 in each 128-bit lane, it mixes every lane of
    z at once: the mask clears what a shift moves into a lane's top half,
    so a lane times a 64-bit constant stays inside the lane.
    """
    z = _mix64_product(z, mask) & mask
    return z ^ ((z >> 31) & mask)


class RngState:
    """Counter-based 64-bit generator with per-index splitting.

    A stream walks the SplitMix64 sequence from its seed.  split(i)
    derives the seed of an independent child stream from (seed, i) only,
    so per-trial results do not depend on how work is interleaved.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._counter = self.seed

    def split(self, index: int) -> "RngState":
        if index < 0:
            raise ValueError("split index must be nonnegative")
        child = _mix64(self.seed ^ _mix64((index + 1) * _GOLDEN & _MASK64))
        return RngState(child)

    def next_u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK64
        return _mix64(self._counter)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        bits = n.bit_length()
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randbelow(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


@lru_cache(maxsize=64)  # bounded: callers may pass any float mean
def _inversion_thresholds(mean: float) -> tuple[int, ...]:
    """Integer thresholds X_k of the Poisson(mean) inversion draw.

    Inversion draws the first k with u <= cdf_k = P(X <= k), summed in
    doubles, or the count of cdf values if u exceeds them all; the sum
    stops once the pmf term underflows to 0, as rounding can leave the
    final cdf below u.  A draw reads one output x as u = a * 2**-53 with
    a = x >> 11; scaling by 2**53 is exact, so u > cdf_k exactly when
    a > cdf_k * 2**53, i.e. x >= X_k = (floor(cdf_k * 2**53) + 1) << 11,
    and the draw is the count of X_k at most x.  The X_k of 2**64 or
    more are never reached and are dropped.
    """
    thresholds = []
    p = cdf = math.exp(-mean)
    k = 0
    while p:
        x = int(cdf * 2.0 ** 53) + 1 << 11
        if x >> 64:
            break
        thresholds.append(x)
        k += 1
        p *= mean / k
        cdf += p
    return tuple(thresholds)


def _draw_row(thresholds: tuple[int, ...], lo: int, hi: int,
              shift: int) -> bytes:
    """Draws of the x in one bucket, by the byte of x at bit shift.

    thresholds[lo:hi] are the X_k of the bucket, and the lo before them
    lie below it.  The bucket is cut into 256 sub-buckets by
    the byte (x >> shift) & 255, and on a sub-bucket that holds no X_k
    the draw, the count of X_k at most x, is constant.  Entry s is that
    draw, or _MARKER where sub-bucket s holds an X_k or the draw is
    _MARKER or more, so no entry is a draw that some x of it does not
    make.  One pass over the bucket's X_k fills the row.
    """
    row = bytearray()
    for draw in range(lo, hi):
        s = thresholds[draw] >> shift & 255
        row += bytes((min(draw, _MARKER),)) * (s - len(row))
        if len(row) == s:
            row.append(_MARKER)
    row += bytes((min(hi, _MARKER),)) * (256 - len(row))
    return bytes(row)


@lru_cache(maxsize=64)  # bounded, as _inversion_thresholds is
def _inversion_tables(mean: float) -> tuple[bytes, tuple[bytes | None, ...]]:
    """Draw tables of the block kernel at a mean up to _INVERSION_LIMIT.

    The first maps the top byte b of an output x, its bucket
    [b << 56, (b + 1) << 56), to the draw of every x in it (_draw_row).
    Entry b of the second is, where b maps to _MARKER, the bucket's row
    over byte 6 of x, whose sub-buckets are 2**48 wide, else None.
    """
    thresholds = _inversion_thresholds(mean)
    top = _draw_row(thresholds, 0, len(thresholds), 56)
    rows = tuple(_draw_row(thresholds, bisect_left(thresholds, b << 56),
                           bisect_left(thresholds, b + 1 << 56), 48)
                 if draw == _MARKER else None
                 for b, draw in enumerate(top))
    return top, rows


def poisson_sample(mean: float, rng: RngState) -> int:
    """Draw a Poisson variate: inversion for small means, PTRS above.

    The transformed-rejection sampler follows Hormann's PTRS scheme,
    which is exact for means above 10; the inversion cutoff keeps well
    inside both methods' domains.  Means above POISSON_MEAN_MAX raise
    ValueError: a double can no longer hold every size near the mean.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if mean > POISSON_MEAN_MAX:
        raise ValueError(f"mean must be at most 2**53 = {POISSON_MEAN_MAX}")
    if mean <= _INVERSION_LIMIT:
        return bisect_right(_inversion_thresholds(mean), rng.next_u64())
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v * inv_alpha / (a / (us * us) + b))
                <= k * log_mean - mean - math.lgamma(k + 1.0)):
            return int(k)


def rsk_shape(word: Sequence[int]) -> tuple[int, ...]:
    """Row lengths of the row-insertion tableau of a word of distinct ints."""
    if len(set(word)) != len(word):
        raise ValueError("insertion word has repeated entries")
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            i = bisect_left(row, x)
            if i == len(row):
                row.append(x)
                break
            x, row[i] = row[i], x
        else:
            rows.append([x])
    return tuple(map(len, rows))


def sample_pp(n: int, rng: RngState) -> tuple[int, ...]:
    """One random partition's row lengths: Poisson(n) size, uniform
    permutation, shape."""
    if n < 1:
        raise ValueError("n must be positive")
    size = poisson_sample(n, rng)
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return rsk_shape(perm)


def corner_moments(shape: Sequence[int], order_max: int) -> list[int]:
    """Moments m_0..m_order_max of the corner measure of shape, unscaled.

    shape is a partition's row lengths, largest first.  Row i of
    (*shape, 0), of length r_i and counted from 0, ends in an addable
    cell of content r_i - i when i = 0 or r_i < r_(i-1), and then row
    i - 1 ends in a removable cell of content r_(i-1) - i.  With
    w = 1/z the Cauchy transform sum_k m_k z**(-k-1) is w P(w)/Q(w),
    P = prod_j (1 - b_j w) over the removable contents b_j and
    Q = prod_i (1 - a_i w) over the addable contents a_i, each built to
    its true degree.  Q(0) = 1, so m_k = P_k - sum_(i=1..min(k, deg Q))
    Q_i m_(k-i), in ints, with deg Q at most sqrt(2N) + 1 at size N.
    """
    if order_max < 0:
        raise ValueError("order_max must be nonnegative")

    def times(poly: list[int], content: int) -> list[int]:
        """poly times 1 - content w."""
        return [a - content * b for a, b in zip(poly + [0], [0] + poly)]

    rows = (*shape, 0)
    p, q = [1], [1]
    for i, length in enumerate(rows):
        if i == 0 or length < rows[i - 1]:
            q = times(q, length - i)
            if i:
                p = times(p, rows[i - 1] - i)
    moments: list[int] = []
    for k in range(order_max + 1):
        moments.append((p[k] if k < len(p) else 0)
                       - sum(a * m for a, m in zip(q[1:], reversed(moments))))
    return moments


def _tally_trials(mean: float, seed: int, first: int, last: int) -> list[int]:
    """Counts of the inversion draws of trials first..last-1, by size.

    Entry k counts the trials t that draw size k in
    poisson_sample(mean, RngState(seed).split(t)), for a mean at most
    _INVERSION_LIMIT: each trial's first output x draws the count of
    thresholds X_k of _inversion_thresholds(mean) at most x, so the list
    has one entry more than there are thresholds.  The outputs are made
    _LANES trials at a time: one int holds the trials of a block as
    128-bit lanes, each a 64-bit value over 64 zero bits, and each step
    of split(t) and next_u64 runs on every lane at once (see _mix64).
    Lane i of the first block starts from the counter
    (first + i + 1) * golden mod 2**64, trial first + i's own, so a range
    is tallied the same whichever process tallies it, wherever it starts.

    next_u64's round stops at its last product (_mix64_product), whose
    bytes 6 and 7 in each lane are already those of x, and the draw is
    read off them through the tables of _inversion_tables.  The lanes'
    top bytes, one slice of the block's bytes, are translated through
    the first table, and the translated bytes of _COUNTED_BLOCKS blocks,
    at most 4 KB, are counted per draw value at once.  A lane whose top
    byte maps to _MARKER reads byte 6 through its bucket's row, and only
    a lane whose sub-bucket maps to _MARKER there too finishes the
    round on its own 64-bit value y, x = y ^ (y >> 31), and bisects x.
    Neither table maps an x to a draw it does not make, so no lane is
    counted under a wrong draw.  At mean 2, 8 of the 256 buckets hold an
    X_k, and 11 of their 2,048 sub-buckets do: of the 100,096 trials of
    seed DEFAULT_SEED, 3,088 reach the second table and 16 are bisected.
    At mean 30 it is 30 buckets and 47 sub-buckets, 11,770 and 56 trials.
    """
    thresholds = _inversion_thresholds(mean)
    top, rows = _inversion_tables(mean)
    draws = set(top) - {_MARKER}
    width = _LANE_BITS // 8
    # ones and mask hold 1 and 2**64 - 1 in each lane, and lane i of
    # indices holds i
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * _LANES, "little")
    indices = bytearray(width * _LANES)
    indices[::width] = bytes(range(_LANES))
    mask = _MASK64 * ones
    seeds = (seed & _MASK64) * ones
    golden = _GOLDEN * ones
    step = _LANES * golden  # under 2**72 per lane: the headroom holds it
    # lane i holds (t + 1) * golden for the block's trial t = start + i
    z0 = (((first + 1) * _GOLDEN & _MASK64) * ones
          + _GOLDEN * int.from_bytes(indices, "little")) & mask
    tally = [0] * (len(thresholds) + 1)
    counted = _COUNTED_BLOCKS * _LANES
    for chunk in range(first, last, counted):
        tops = bytearray()
        for start in range(chunk, min(chunk + counted, last), _LANES):
            z = _mix64(_mix64(z0, mask) ^ seeds, mask)  # split(t)'s seed
            z = _mix64_product(z + golden & mask, mask)  # its next_u64
            z0 = z0 + step & mask
            lanes = z.to_bytes(width * _LANES, "little")
            # bytes 6 and 7 of a lane are those of its output
            sixes, sevens = lanes[6::width], lanes[7::width][:last - start]
            block = sevens.translate(top)
            i = block.find(_MARKER)
            while i >= 0:
                v = rows[sevens[i]][sixes[i]]
                if v == _MARKER:
                    y = int.from_bytes(lanes[i * width:i * width + 8],
                                       "little")
                    v = bisect_right(thresholds, y ^ y >> 31)
                tally[v] += 1
                i = block.find(_MARKER, i + 1)
            tops += block
        for v in draws:
            tally[v] += tops.count(v)
    return tally


def _fork_tally(mean: float, seed: int, first: int,
                last: int) -> tuple[int, BinaryIO]:
    """Start a child process that tallies trials first..last-1.

    Returns the child's pid and the read end of a pipe, as a binary
    file.  The child writes _tally_trials(mean, seed, first, last) to
    the pipe as decimal ints and leaves through os._exit whatever
    happens, with status 0 only once they are written: it never returns
    into its caller, so it cannot write a second report, and it flushes
    no stream and runs no exit handler of the parent.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            counts = _tally_trials(mean, seed, first, last)
            with open(write, "wb") as pipe:
                pipe.write(" ".join(map(str, counts)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _parsed_counts(payload: bytes, size: int,
                   trials: int) -> list[int] | None:
    """The size counts a child wrote, or None if they cannot be its tally.

    A tally holds size counts, none negative, of trials in all.
    """
    try:
        counts = [int(v) for v in payload.split()]
    except ValueError:
        return None
    if len(counts) != size or min(counts) < 0 or sum(counts) != trials:
        return None
    return counts


def _inversion_sizes(mean: float, seed: int, trials: int) -> dict[int, int]:
    """Tally {size: count} of the inversion draws of trials 0..trials-1.

    The counts are those of poisson_sample(mean, RngState(seed).split(t))
    for a mean at most _INVERSION_LIMIT, tallied by _tally_trials.  The
    trials are split into block-aligned ranges, one per available CPU
    (len(os.sched_getaffinity(0)) where the platform has it, else one),
    but no more ranges than leave each at least _MIN_SHARE blocks.  The
    caller tallies the first range and a forked child each other one
    (_fork_tally); the caller reads every pipe, reaps every child,
    whatever is raised meanwhile, and sums.  A range whose child exits
    with a nonzero status or writes counts that cannot be its tally
    (_parsed_counts), or that no child could be forked for, is tallied
    by the caller.  The kernel's tables (_inversion_tables) are built
    before any child is forked, so no child builds them again.  Each
    trial's draw depends on (seed, t) alone and the counts are ints, so
    the tally, and every report made from it, is the same at any CPU
    count.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if mean > _INVERSION_LIMIT:
        raise ValueError(f"mean must be at most {_INVERSION_LIMIT}: above "
                         f"it poisson_sample draws by rejection")
    affinity = getattr(os, "sched_getaffinity", None)
    blocks = -(-trials // _LANES)
    workers = max(1, min(len(affinity(0)) if affinity else 1,
                         blocks // _MIN_SHARE))
    edges = [min(blocks * w // workers * _LANES, trials)
             for w in range(workers + 1)]
    ranges = list(zip(edges, edges[1:]))
    _inversion_tables(mean)  # cached: every child inherits the tables
    children, payloads, statuses = [], [], []
    try:
        for first, last in ranges[1:]:
            try:
                children.append(_fork_tally(mean, seed, first, last))
            except OSError:  # no process or pipe to spare: tallied below
                break
        tally = _tally_trials(mean, seed, *ranges[0])
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for i, (first, last) in enumerate(ranges[1:]):
        counts = None
        if i < len(children) and statuses[i] == 0:
            counts = _parsed_counts(payloads[i], len(tally), last - first)
        if counts is None:
            counts = _tally_trials(mean, seed, first, last)
        tally = [a + b for a, b in zip(tally, counts)]
    return {size: count for size, count in enumerate(tally) if count}


def _drawn_sizes(n: int, trials: int, seed: int) -> dict[int, int]:
    """Tally {size: count} of the Poisson(n) sizes of trials 0..trials-1.

    Trial t draws poisson_sample(n, RngState(seed).split(t)).  For n up
    to 30 the sizes are tallied by _inversion_sizes, 256 trials at a
    time; above 30 the rejection sampler reads a varying number of
    uniforms, so the trials run one at a time.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    root = RngState(seed)
    if n <= _INVERSION_LIMIT:
        return _inversion_sizes(n, root.seed, trials)
    return Counter(poisson_sample(n, root.split(t)) for t in range(trials))


# e lies strictly between the (num, den) pairs _E_BELOW and _E_ABOVE:
# the Taylor sum of 1/j! for j <= _E_TERMS, and that sum plus
# 1/(_E_TERMS! _E_TERMS), which exceeds the rest of the series.  Their
# ratio is below 1 + 2**-66.
_E_TERMS = 20
_E_BELOW = (sum(math.factorial(_E_TERMS) // math.factorial(j)
                for j in range(_E_TERMS + 1)), math.factorial(_E_TERMS))
_E_ABOVE = (_E_BELOW[0] * _E_TERMS + 1, _E_BELOW[1] * _E_TERMS)
_WINDOW = 5  # sizes summed on either side of the peak, plus 2 isqrt(n)


def _peak(n: int, k: int) -> int:
    """The first N with N ln(N/n) >= k, near which the target's terms peak.

    It lies in n..n + k, since (n + k) ln(1 + k/n) >= k.
    """
    return bisect_left(range(n, n + k + 1), k,
                       key=lambda size: size * math.log(size / n)) + n


def _peak_sizes(n: int, k: int) -> set[int]:
    """The sizes N near the peak of the terms of the 2k-th moment's target.

    The terms peak near _peak(n, k), where their spread, like the
    Poisson one at N = n, grows with sqrt(n).  The sizes are that N with
    the _WINDOW + 2 isqrt(n) sizes on either side, and N = n, each only
    up to 64 k, which bounds the work by k, not by n.
    """
    peak = _peak(n, k)
    window = _WINDOW + 2 * math.isqrt(n)
    sizes = range(max(peak - window, 0), min(peak + window, 64 * k) + 1)
    return {*sizes, n} if n <= 64 * k else {*sizes}


def _peak_terms(n: int, moments: dict[int, int]) -> tuple[int, int]:
    """(total, scale): a lower bound total / scale on sum P(N) m_N.

    moments maps sizes N to m_N = transformed_moment(N, k), and the sum
    runs over them.  n**k times the target, the scaled 2k-th moment, is
    the sum of the terms P(N) m_N, P(N) = e**-n n**N / N!, over every
    size, none negative, so a sum over some sizes is a lower bound on
    it.  With c/d = _E_ABOVE > e, e**-n > (d/c)**n within a factor
    (1 + 2**-66)**n.  So with M the largest size, the terms sum to more
    than sum_N n**N m_N (M! / N!) d**n / (M! c**n), in integers.
    """
    if not moments:
        return 0, 1
    c, d = (v ** n for v in _E_ABOVE)
    top = math.factorial(max(moments))
    return (d * sum(n ** size * m * (top // math.factorial(size))
                    for size, m in moments.items()),
            c * top)


def _scaled_target(n: int, k: int, row: dict[int, int]) -> int:
    """n**k times the target, the row summed at 1/n**g: sum c_g n**(k-g)."""
    return sum(c * n ** (k - g) for g, c in row.items())


def _target_overflows(n: int, k: int) -> bool:
    """True only if the exact scaled 2k-th moment is at least 2**1024.

    A shortcut before the moment row, which decides exactly
    (_target_rows).  The row's counts are positive and sit at 1/n**g,
    so the target is largest at n = 1, where it is their sum, below
    2**1024 for every k <= 167; Catalan(k), the g = 0 count, is 2**1024
    or more from k = 520, at any n.  For 168 <= k < 520 the one peak
    size _peak(n, k), if at most 64 k, is walked (transformed_moment):
    its term alone is a lower bound (_peak_terms), as at (1000, 519).
    """
    if k < 168:
        return False
    if k >= 520:
        return True
    peak = _peak(n, k)
    if peak > 64 * k:
        return False
    total, scale = _peak_terms(n, {peak: transformed_moment(peak, k)})
    return total >= scale * n ** k << 1024


def _row_moment(row: dict[int, int], k: int, size: int) -> int:
    """transformed_moment(size, k), read off row = moment_polynomial(k).

    m_N = sum_g c_g N(N-1)...(N-k+g+1), the falling-factorial identity
    moment_polynomials is built on, summed by Horner's rule in O(k).
    """
    m = 0
    for g in range(k + 1):
        m = m * (size - k + g) + row.get(g, 0)
    return m


def _z_unsupported(n: int, k: int, trials: int, row: dict[int, int]) -> bool:
    """True only if half the target or more sits at sizes trials cannot see.

    row is moment_polynomial(k), {g: c_g}.  At the sizes N with
    trials * P(N) < 1 the trials are not expected to draw a single
    value, so their standard error says nothing about the distance to
    the terms there.  Of the sizes near the peak (_peak_sizes), those
    are the N with trials * n**N b**n < N! a**n, a/b = _E_BELOW < e.
    m_N is read off the row (_row_moment), and _peak_terms bounds their
    share of the target exactly from below, without drawing a trial.
    """
    sizes = _peak_sizes(n, k)
    if not sizes:
        return False
    a, b = (v ** n for v in _E_BELOW)
    unseen = {size: _row_moment(row, k, size) for size in sizes
              if trials * n ** size * b < math.factorial(size) * a}
    total, scale = _peak_terms(n, unseen)
    return 2 * total >= scale * _scaled_target(n, k, row)


def _target_rows(n: int, ks: Sequence[int]) -> list[dict[int, int]]:
    """The moment row of order 2k for each k, {0: 1} at k = 0, from one
    walk.  OverflowError if the exact target of any k is 2**1024 or
    more: before the walk where _target_overflows says so, else once
    the rows give each target exactly (_scaled_target)."""
    from .oracles import moment_polynomials

    if any(_target_overflows(n, k) for k in ks):
        raise OverflowError("the exact target exceeds the double range")
    rows = moment_polynomials(max(ks)) if any(ks) else []
    rows = [rows[k - 1] if k else {0: 1} for k in ks]
    if any(_scaled_target(n, k, row) >= n ** k << 1024
           for k, row in zip(ks, rows)):
        raise OverflowError("the exact target exceeds the double range")
    return rows


def _moment_estimate(n: int, k: int, counts: dict[int, int],
                     row: dict[int, int]) -> tuple[float, float]:
    """(mean, standard error) of the scaled 2k-th moment over drawn sizes.

    counts is a tally of _drawn_sizes, and each size's exact integer
    moment is read off row, the moment row of order 2k (_row_moment).
    The moments and their squares are summed exactly, and the mean and
    the variance of the mean are each rounded once, so the spread
    survives at any n where a float sum of squares would cancel.  A
    variance of the mean of 2**1024 or more has its root taken in
    integers, as its square root can still fit a double.
    """
    trials = s1 = s2 = 0
    for size, count in counts.items():
        v = _row_moment(row, k, size)
        trials += count
        s1 += count * v
        s2 += count * v * v
    scale = n ** k
    mean = s1 / (trials * scale)
    if trials == 1:
        return mean, 0.0
    var = trials * s2 - s1 * s1
    den = trials * trials * (trials - 1) * scale * scale
    try:
        return mean, math.sqrt(var / den)
    except OverflowError:  # the variance alone exceeds a double
        return mean, float(math.isqrt(var // den))


def mc_moments(n: int, ks: Iterable[int], trials: int,
               seed: int = DEFAULT_SEED) -> list[tuple[float, float]]:
    """Estimate scaled moments of orders 2k for each k, sharing the samples.

    Returns (mean, standard error) per k, in the order of ks, which is
    read once, so any iterable will do.  The mean n and trials must be
    ints: any other type raises TypeError before anything else is
    checked, and n < 1, trials < 1 or a negative k raises ValueError, so
    mc_moments(2, [], 0) raises too; an empty ks then returns [] before
    a trial is drawn.  Any k whose exact target is at least 2**1024
    raises OverflowError next, at n = 1 every k >= 168, before a trial
    is drawn (_target_rows).
    Each trial draws a Poisson(n) size from its own stream
    (_drawn_sizes), whose exact scaled 2k-th moment is read off the row
    of order 2k (_target_rows, one walk for every k), once per distinct
    size (_moment_estimate); no shape is sampled, since the moment does
    not depend on one.  Each trial's stream depends on (seed, t) alone,
    so the results do not depend on how many CPUs share the draws
    (_inversion_sizes).
    """
    if not isinstance(n, int):
        raise TypeError(f"the mean must be an int, not {type(n).__name__}")
    if not isinstance(trials, int):
        raise TypeError(f"trials must be an int, not {type(trials).__name__}")
    ks = list(ks)
    if n < 1 or trials < 1 or any(k < 0 for k in ks):
        raise ValueError("the mean and trials must be positive, each order "
                         "nonnegative")
    if not ks:
        return []
    rows = _target_rows(n, ks)
    counts = _drawn_sizes(n, trials, seed)
    return [_moment_estimate(n, k, counts, row) for k, row in zip(ks, rows)]


def _checked_estimate(n: int, k: int, trials: int, seed: int
                      ) -> tuple[float, float, int, int, float | None]:
    """(estimate, stderr, num, den, z) of the sample command.

    The estimate and stderr are mc_moments(n, [k], trials, seed)[0], and
    num/den is the target, the row summed over 1/n**g, reduced; the int
    division num / den rounds it as float(Fraction) does.  z is None if
    _z_unsupported proves, before sampling, that the trials cannot see
    half the target or more, or if a zero stderr (every trial gave the
    same value) meets an estimate whose as_integer_ratio() is not
    (num, den): no finite z-score describes that mismatch.
    """
    row, = _target_rows(n, [k])
    unsupported = _z_unsupported(n, k, trials, row)
    estimate, stderr = _moment_estimate(n, k, _drawn_sizes(n, trials, seed),
                                        row)
    num, den = _scaled_target(n, k, row), n ** k
    common = math.gcd(num, den)
    num, den = num // common, den // common
    if unsupported:
        z = None
    elif stderr > 0:
        z = (estimate - num / den) / stderr
    else:
        z = 0.0 if estimate.as_integer_ratio() == (num, den) else None
    return estimate, stderr, num, den, z
