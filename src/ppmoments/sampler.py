"""Monte Carlo side: Poissonized sizes, random partitions, corner measures.

The moment estimator needs only the size of each sampled partition: the
2k-th moment of the transformed measure of a partition depends on its
size alone (transformed_moment below).  So a trial draws a
Poisson-distributed size and looks up that exact moment; the estimator
exercises the Poisson draw and the exact lookup, not the shape sampler.

The shape sampler is separate.  sample_pp takes a
Poisson-distributed size, a uniform random permutation of that size, and
the insertion-tableau shape of the permutation, a Partition (defined
here, since only the shape side uses it).  The transition measure of a
partition is the discrete probability measure supported on the
contents of its addable corners, with weights given by the partial
fractions of

    prod_j (x - b_j) / prod_i (x - a_i)

over upper corner contents a_i and lower corner contents b_j.  Corner
arithmetic is exact; positions are rescaled by 1/sqrt(n), so even scaled
moments stay rational.  The corner measure has the same mass, mean and
variance as the transformed measure of a partition of the same size.
Averaged over Poissonized Plancherel, its sixth and eighth moments are
larger; tests/test_sampler.py pins both rows.

Randomness comes from a counter-based 64-bit generator that derives an
independent stream per trial index, so results are identical no matter
how trials are scheduled.  At means up to 30 a size is drawn by
inversion from the first output of its trial's stream alone, by
bisecting one list of integer thresholds per mean.  mc_moments makes
those outputs 256 trials at a time, as the 128-bit lanes of one int
read little-endian on every host.  It maps each lane's top byte through
a 256-byte table of draws and counts them per block, and bisects the
same list only for the lanes whose top-byte bucket holds a threshold,
so its tally is the one that per-trial poisson_sample calls give.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_SEED",
    "DuplicateEntries",
    "POISSON_MEAN_MAX",
    "Partition",
    "RngState",
    "TransitionMeasure",
    "mc_moment",
    "mc_moments",
    "poisson_sample",
    "rsk_shape",
    "sample_pp",
    "transformed_moment",
    "transition_measure",
]

DEFAULT_SEED = 8675309  # documented default; override with --seed / seed=

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INVERSION_LIMIT = 30  # Poisson mean up to which plain inversion is used
_LANES = 256  # trials per block of the inversion kernel
_LANE_BITS = 128  # a 64-bit value and 64 zero bits of headroom
_MARKER = 255  # top-byte table entry of a lane that is bisected in full
# The draw runs in double precision, which holds every integer up to 2**53.
POISSON_MEAN_MAX = 2 ** 53


def _mix64(z: int, mask: int = _MASK64) -> int:
    """SplitMix64 finalizer: bijective 64-bit avalanche.

    With a mask of 2**64 - 1 in each 128-bit lane, it mixes every lane of
    z at once: the mask clears what a shift moves into a lane's top half,
    so a lane times a 64-bit constant stays inside the lane.
    """
    z = (z ^ ((z >> 30) & mask)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ ((z >> 27) & mask)) * 0x94D049BB133111EB & mask
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


class DuplicateEntries(ValueError):
    """Insertion words must have pairwise distinct entries."""


class Partition:
    """Integer partition: weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        if any(p < 0 for p in ps):
            raise ValueError("parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing")
        # weakly decreasing, so the zero parts are the trailing ones
        object.__setattr__(self, "parts", tuple(p for p in ps if p))

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
        # random() is a multiple of 2**-53: this is its output, low bits 0
        x = int(rng.random() * 2.0 ** 53) << 11
        return bisect_right(_inversion_thresholds(mean), x)
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


def rsk_shape(word: Sequence[int]) -> Partition:
    """Shape of the row-insertion tableau of a word of distinct integers."""
    seen = set(word)
    if len(seen) != len(word):
        raise DuplicateEntries("insertion word has repeated entries")
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
    return Partition(len(r) for r in rows)


def sample_pp(n: int, rng: RngState) -> Partition:
    """One random partition: Poisson(n) size, uniform permutation, shape."""
    if n < 1:
        raise ValueError("n must be positive")
    size = poisson_sample(n, rng)
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return rsk_shape(perm)


class TransitionMeasure:
    """Corner measure of a partition, rescaled by 1/sqrt(n).

    Atoms are stored as the exact integer contents of the addable
    corners; the 1/sqrt(n) rescaling is applied symbolically, so every
    even scaled moment is an exact rational (content^2k / n^k) and the
    odd unscaled moments are exact as well.
    """

    __slots__ = ("atoms", "weights", "lower", "n")

    def __init__(self, atoms: Iterable[int], weights: Iterable[Fraction],
                 lower: Iterable[int], n: int):
        object.__setattr__(self, "atoms", tuple(int(a) for a in atoms))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in weights))
        object.__setattr__(self, "lower", tuple(int(b) for b in lower))
        object.__setattr__(self, "n", int(n))
        if len(self.atoms) != len(self.weights):
            raise ValueError("one weight per atom required")
        if n < 1:
            raise ValueError("n must be positive")

    def __setattr__(self, name, value):
        raise AttributeError("TransitionMeasure is immutable")

    def total_mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def unscaled_moment(self, order: int) -> Fraction:
        """Moment of the integer-content measure, before rescaling."""
        return sum((w * a ** order for a, w in zip(self.atoms, self.weights)),
                   Fraction(0))

    def moment(self, order: int) -> Fraction:
        """Exact scaled moment; defined for even orders (and zero)."""
        if order % 2:
            raise ValueError("scaled odd moments are irrational; "
                             "use unscaled_moment")
        return self.unscaled_moment(order) / Fraction(self.n) ** (order // 2)

    def to_json(self) -> dict:
        return {"n": self.n,
                "atoms": [str(a) for a in self.atoms],
                "weights": [str(w) for w in self.weights]}


def transition_measure(shape: Partition, n: int) -> TransitionMeasure:
    """Exact transition measure of a partition at poissonization n.

    Upper (addable) corner contents a_i carry the weights
    prod_j (a_i - b_j) / prod_{j != i} (a_i - a_j) over the lower
    (removable) corner contents b_j.
    """
    uppers = shape.addable_contents()
    lowers = shape.removable_contents()
    weights = []
    for i, a in enumerate(uppers):
        num = 1
        for b in lowers:
            num *= a - b
        den = 1
        for j, a2 in enumerate(uppers):
            if j != i:
                den *= a - a2
        weights.append(Fraction(num, den))
    return TransitionMeasure(uppers, weights, lowers, n)


def transformed_moment(size: int, k: int) -> int:
    """Exact unscaled 2k-th moment of the transformed measure at a size.

    Sum over nonnegative balanced paths of length 2k of the product of
    (size - h) over down steps ending at height h; this is the diagonal
    matrix element of the 2k-th power of the raising/lowering operator
    word sum at level `size`.  Equivalently, (size+1) times this value is
    the 2k-th power sum of the roots of the monic degree-(size+1)
    probabilists' Hermite polynomial, i.e. the measure is uniform on
    those roots.  Its mass, mean and variance agree with the corner
    transition measure of any partition of the same size.
    """
    if size < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    ways = {0: 1}
    for _ in range(2 * k):
        nxt: dict[int, int] = {}
        for h, w in ways.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + w
            if h > 0:
                f = size - (h - 1)
                if f:
                    nxt[h - 1] = nxt.get(h - 1, 0) + w * f
        ways = nxt
    return ways.get(0, 0)


def _inversion_sizes(mean: float, seed: int, trials: int) -> dict[int, int]:
    """Tally {size: count} of the inversion draws of trials 0..trials-1.

    The counts are those of poisson_sample(mean, RngState(seed).split(t))
    for a mean at most _INVERSION_LIMIT: each trial's first output x
    draws the count of thresholds X_k of _inversion_thresholds(mean) at
    most x.  The outputs are made _LANES trials at a time: one int holds
    the trials of a block as 128-bit lanes, each a 64-bit value over 64
    zero bits, and each step of split(t) and next_u64 runs on every lane
    at once (see _mix64).

    The draw is tallied from the top byte of x.  The x with top byte b
    form the bucket [b << 56, (b + 1) << 56), and on a bucket that holds
    no X_k the count of X_k at most x is constant: it is the count of
    X_k below b << 56.  So a 256-byte table maps each such bucket to that
    draw, and the lanes' top bytes, one slice of the block's bytes, are
    translated through it and counted per draw value.  Every other
    bucket maps to _MARKER, and a lane with that byte reads its full
    64-bit value and bisects it.  A draw of _MARKER or more would also
    map to _MARKER, so no lane is ever counted under a draw it did not
    make; at means up to 30 no threshold-free bucket reaches it (below
    255 << 56 the draw is at most 46, at mean 30).  At mean 2, 8 of the
    256 buckets hold an X_k.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if mean > _INVERSION_LIMIT:
        raise ValueError(f"mean must be at most {_INVERSION_LIMIT}: above "
                         f"it poisson_sample draws by rejection")
    thresholds = _inversion_thresholds(mean)
    edges = [bisect_left(thresholds, b << 56) for b in range(257)]
    table = bytes(lo if lo == hi and lo < _MARKER else _MARKER
                  for lo, hi in zip(edges, edges[1:]))
    draws = set(table) - {_MARKER}
    width = _LANE_BITS // 8
    # ones and mask hold 1 and 2**64 - 1 in each lane
    ones = ((1 << _LANE_BITS * _LANES) - 1) // ((1 << _LANE_BITS) - 1)
    mask = _MASK64 * ones
    seeds = (seed & _MASK64) * ones
    golden = _GOLDEN * ones
    step = _LANES * golden  # under 2**72 per lane: the headroom holds it
    # lane i holds (t + 1) * golden for the block's trial t = start + i
    z0 = int.from_bytes(b"".join(((i + 1) * _GOLDEN & _MASK64).to_bytes(
        width, "little") for i in range(_LANES)), "little")
    tally = [0] * (len(thresholds) + 1)
    for start in range(0, trials, _LANES):
        z = _mix64(_mix64(z0, mask) ^ seeds, mask)  # the seed of split(t)
        z = _mix64(z + golden & mask, mask)  # its first next_u64
        z0 = z0 + step & mask
        lanes = z.to_bytes(width * _LANES, "little")
        # byte 7 of a lane is the top byte of its 64-bit value
        tops = lanes[7::width][:trials - start].translate(table)
        for v in draws:
            tally[v] += tops.count(v)
        i = tops.find(_MARKER)
        while i >= 0:
            x = int.from_bytes(lanes[i * width:i * width + 8], "little")
            tally[bisect_right(thresholds, x)] += 1
            i = tops.find(_MARKER, i + 1)
    return {size: count for size, count in enumerate(tally) if count}


def mc_moments(n: int, ks: Sequence[int], trials: int,
               seed: int = DEFAULT_SEED) -> list[tuple[float, float]]:
    """Estimate scaled moments of orders 2k for each k, sharing the samples.

    Each trial draws a Poisson(n) size from its own stream and reads the
    exact scaled 2k-th moment of the transformed measure at that size,
    transformed_moment(size, k) / n^k, computed once per distinct size.
    The estimate thus tests the Poisson draw and the exact lookup; no
    shape is sampled, since the moment does not depend on one.  For n up
    to 30 the sizes are tallied by _inversion_sizes, 256 trials at a
    time; above 30 the rejection sampler reads a varying number of
    uniforms, so the trials run one at a time.  The integer moments and
    their squares are summed exactly, and the mean and the variance of
    the mean are each rounded once, so the spread survives at any n
    where a float sum of squares would cancel.
    Returns (mean, standard error) per requested k.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if any(k < 0 for k in ks):
        raise ValueError("moment orders must be nonnegative")
    root = RngState(seed)
    if n <= _INVERSION_LIMIT:
        counts = _inversion_sizes(n, root.seed, trials)
    else:
        counts = Counter(poisson_sample(n, root.split(t))
                         for t in range(trials))
    sums = [0] * len(ks)
    sq_sums = [0] * len(ks)
    for size, count in counts.items():
        for i, k in enumerate(ks):
            v = transformed_moment(size, k)
            sums[i] += count * v
            sq_sums[i] += count * v * v
    out = []
    for s1, s2, k in zip(sums, sq_sums, ks):
        scale = n ** k
        mean = s1 / (trials * scale)
        if trials == 1:
            se = 0.0
        else:
            se = math.sqrt((trials * s2 - s1 * s1)
                           / (trials * trials * (trials - 1) * scale * scale))
        out.append((mean, se))
    return out


def mc_moment(n: int, k: int, trials: int,
              seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Monte Carlo estimate and standard error of the scaled 2k-th moment."""
    return mc_moments(n, [k], trials, seed)[0]
