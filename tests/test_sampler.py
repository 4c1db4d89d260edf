import gc
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import ppmoments.oracles as oracles
import ppmoments.sampler as sampler
from ppmoments import DEFAULT_SEED
from ppmoments.algebra import PolyC
from ppmoments.cli import main, run_sample
from ppmoments.oracles import moment_polynomial, transformed_moment
from ppmoments.sampler import (
    RngState,
    corner_moments,
    mc_moments,
    poisson_sample,
    rsk_shape,
    sample_pp,
)

from helpers import (corner_measure_by_partial_fractions, corner_moment_rows,
                     hermite_coeffs, partitions_of, power_sums,
                     rook_rows_reference, tableau_count,
                     transformed_moment_reference)


def test_rng_is_deterministic():
    a = RngState(42)
    b = RngState(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert RngState(42).random() != RngState(43).random()


def test_rng_split_is_order_independent():
    root = RngState(7)
    first = root.split(3)
    _ = [root.split(i).next_u64() for i in range(3)]
    second = RngState(7).split(3)
    assert first.next_u64() == second.next_u64()
    streams = {RngState(7).split(i).next_u64() for i in range(100)}
    assert len(streams) == 100


def test_rng_randbelow_and_shuffle():
    rng = RngState(11)
    draws = [rng.randbelow(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10
    xs = list(range(20))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(20))
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_rng_uniform_range():
    rng = RngState(13)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_poisson_inversion_moments():
    rng = RngState(17)
    n, trials = 5, 20000
    draws = [poisson_sample(n, rng) for _ in range(trials)]
    mean = sum(draws) / trials
    assert abs(mean - n) < 4 * math.sqrt(n / trials)


def test_poisson_rejection_moments():
    rng = RngState(19)
    mean_target, trials = 60, 20000
    draws = [poisson_sample(mean_target, rng) for _ in range(trials)]
    mean = sum(draws) / trials
    var = sum((d - mean) ** 2 for d in draws) / (trials - 1)
    assert abs(mean - mean_target) < 4 * math.sqrt(mean_target / trials)
    assert abs(var - mean_target) < 8 * math.sqrt(2 * mean_target ** 2 / trials)
    with pytest.raises(ValueError):
        poisson_sample(0, rng)


def test_poisson_mean_is_bounded_by_double_precision():
    assert sampler.POISSON_MEAN_MAX == 2 ** 53
    assert poisson_sample(2 ** 53, RngState(3)) > 0
    for mean in (2 ** 53 + 1, 10 ** 100, 1e306):
        with pytest.raises(ValueError):
            poisson_sample(mean, RngState(3))


_TOP_UNIFORM_DRAWS = """
import ppmoments.sampler as sampler

class TopRng(sampler.RngState):
    def next_u64(self):
        return 2 ** 64 - 1  # the largest value RngState.next_u64 yields

print(*(sampler.poisson_sample(m, TopRng(0)) for m in range(1, 31)))
"""


def test_poisson_inversion_returns_at_the_largest_uniform():
    # rounding leaves the final inversion cdf below 1 - 2**-53 at some
    # means (4, 8, 12, 16, 17, 23, 24, 29); a hang shows as a timeout
    env = dict(os.environ,
               PYTHONPATH=str(Path(sampler.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _TOP_UNIFORM_DRAWS],
                         capture_output=True, text=True, env=env,
                         timeout=20, check=True).stdout.split()
    assert len(out) == 30
    assert all(int(k) > m for m, k in enumerate(out, start=1))


def test_rsk_shape_examples():
    assert rsk_shape((1, 2, 3)) == (3,)
    assert rsk_shape((2, 1)) == (1, 1)
    assert rsk_shape((1, 3, 2)) == (2, 1)
    assert rsk_shape(()) == ()
    with pytest.raises(ValueError, match="repeated entries"):
        rsk_shape((1, 1))


def test_rsk_first_row_is_longest_increasing_subsequence():
    # Schensted: the first row is the longest increasing subsequence and
    # the number of rows the longest decreasing one
    rng = RngState(23)
    for _ in range(50):
        size = 1 + rng.randbelow(8)
        perm = list(range(size))
        rng.shuffle(perm)
        shape = rsk_shape(perm)
        rising = falling = 0
        for mask in range(1 << size):
            sub = [perm[i] for i in range(size) if mask >> i & 1]
            if sub == sorted(sub):
                rising = max(rising, len(sub))
            if sub == sorted(sub, reverse=True):
                falling = max(falling, len(sub))
        assert shape[0] == rising
        assert len(shape) == falling
        assert sum(shape) == size


class _ZeroRng:
    def next_u64(self):
        return 0

    def shuffle(self, xs):
        pass


def test_sample_pp_forced_empty():
    assert sample_pp(5, _ZeroRng()) == ()


def test_sample_pp_size_distribution():
    trials, n = 4000, 5
    root = RngState(29)
    sizes = [sum(sample_pp(n, root.split(t))) for t in range(trials)]
    assert abs(sum(sizes) / trials - n) < 4 * math.sqrt(n / trials)


def test_sample_pp_shape_distribution_at_size_three():
    # conditioned on size 3 the shapes carry weights 1/6, 4/6, 1/6
    trials = 6000
    root = RngState(31)
    counts = {(3,): 0, (2, 1): 0, (1, 1, 1): 0}
    for t in range(trials):
        perm = [1, 2, 3]
        root.split(t).shuffle(perm)
        counts[rsk_shape(perm)] += 1
    for shape, p in (((3,), Fraction(1, 6)), ((2, 1), Fraction(4, 6)),
                     ((1, 1, 1), Fraction(1, 6))):
        sigma = math.sqrt(float(p) * (1 - float(p)) * trials)
        assert abs(counts[shape] - float(p) * trials) < 4 * sigma


def test_corner_measure_examples():
    assert corner_measure_by_partial_fractions(()) == ([0], [Fraction(1)], [])
    atoms, weights, _ = corner_measure_by_partial_fractions((1,))
    assert set(zip(atoms, weights)) == {(1, Fraction(1, 2)),
                                        (-1, Fraction(1, 2))}
    atoms, weights, _ = corner_measure_by_partial_fractions((2,))
    assert set(zip(atoms, weights)) == {(2, Fraction(1, 3)),
                                        (-1, Fraction(2, 3))}
    assert corner_moments((), 3) == [1, 0, 0, 0]
    assert corner_moments((2,), 3) == [1, 0, 2, 2]
    # atoms 2, 0, -2 with weights 3/8, 1/4, 3/8
    assert corner_moments((2, 1), 4) == [1, 0, 3, 0, 12]
    with pytest.raises(ValueError):
        corner_moments((1,), -1)


def test_corner_measure_exact_invariants():
    for size in range(7):
        for lam in partitions_of(size):
            atoms, weights, lower = corner_measure_by_partial_fractions(lam)
            assert all(w > 0 for w in weights)
            assert sum(weights) == 1
            assert sum(w * a for a, w in zip(atoms, weights)) == 0
            assert sum(w * a * a for a, w in zip(atoms, weights)) == size
            # atoms strictly interlace the lower corners
            seq = []
            for a, b in zip(atoms, lower + [None]):
                seq.append(a)
                if b is not None:
                    seq.append(b)
            assert all(x > y for x, y in zip(seq, seq[1:]))


def test_corner_measure_partial_fractions():
    # prod (x - lower) equals sum_i w_i prod_{j != i} (x - atom_j), exactly
    for size in range(7):
        for lam in partitions_of(size):
            atoms, weights, lower = corner_measure_by_partial_fractions(lam)
            lhs = PolyC((1,))
            for b in lower:
                lhs = lhs * PolyC((-b, 1))
            rhs = PolyC(())
            for i, w in enumerate(weights):
                term = PolyC((w,))
                for j, a in enumerate(atoms):
                    if j != i:
                        term = term * PolyC((-a, 1))
                rhs = rhs + term
            assert lhs == rhs


def test_corner_moments_match_the_partial_fractions():
    # one power-series division in ints gives sum_i w_i a_i**k, with the
    # atoms read off the diagram's cells, for every partition of N <= 12
    # (272 shapes) at every order k <= 12
    shapes = 0
    for size in range(13):
        for lam in partitions_of(size):
            atoms, weights, _ = corner_measure_by_partial_fractions(lam)
            moments = corner_moments(lam, 12)
            assert all(type(m) is int for m in moments)
            assert moments == [sum(w * a ** k for a, w in zip(atoms, weights))
                               for k in range(13)]
            shapes += 1
    assert shapes == 272


def test_tableau_count_is_plancherel():
    assert [tableau_count(lam) for lam in partitions_of(4)] == [1, 3, 2, 3, 1]
    for size in range(7):
        assert sum(tableau_count(lam) ** 2 for lam in partitions_of(size)) \
            == math.factorial(size)


# 1/n^g -> coefficient of the corner transition measure's 2k-th moment,
# averaged over Poissonized Plancherel, for k = 1..4
CORNER_ROWS = {1: {0: 1}, 2: {0: 2, 1: 1}, 3: {0: 5, 1: 10, 2: 1},
               4: {0: 14, 1: 70, 2: 42, 3: 1}}


def test_corner_measure_rows_differ_from_the_size_only_measure():
    # the package's tables are moments of the size-only measure (uniform
    # on the roots of He_(N+1)); the corner measure agrees for k <= 2 only
    assert corner_moment_rows(4) == [CORNER_ROWS[k] for k in range(1, 5)]
    for k in (1, 2):
        assert moment_polynomial(k) == CORNER_ROWS[k]
    assert moment_polynomial(3) == {0: 5, 1: 8, 2: 1}
    assert moment_polynomial(4) == {0: 14, 1: 47, 2: 26, 3: 1}
    for k in (3, 4):
        size_only = moment_polynomial(k)
        assert all(c >= size_only[g] for g, c in CORNER_ROWS[k].items())
        assert CORNER_ROWS[k] != size_only


def test_corner_rows_are_catalan_times_central_factorial_numbers():
    # R(k, g) = Catalan(k-g) T(2k, 2k-2g), with the central factorial
    # numbers T(2k, 2j) = j**2 T(2k-2, 2j) + T(2k-2, 2j-2), T(0, 0) = 1,
    # for k <= 22, from the 5,763 partitions of N <= 23
    rows = corner_moment_rows(22)
    assert len(rows) == 22
    t_row = [1]  # T(2k, 2j) for j = 0..k
    for k, row in enumerate(rows, start=1):
        t_row = [(j * j * t_row[j] if j < k else 0)
                 + (t_row[j - 1] if j else 0) for j in range(k + 1)]
        assert all(type(c) is int for c in row.values())
        assert row == {g: math.comb(2 * (k - g), k - g) // (k - g + 1)
                       * t_row[k - g] for g in range(k)}


def test_transformed_moment_base_cases():
    for size in range(6):
        assert transformed_moment(size, 0) == 1
        assert transformed_moment(size, 1) == size
    assert transformed_moment(0, 3) == 0
    with pytest.raises(ValueError):
        transformed_moment(-1, 2)


def test_transformed_moment_matches_rook_counts_via_falling_factorials():
    def falling(m, j):
        out = 1
        for i in range(j):
            out *= m - i
        return out

    # the rook rows of the reference walk: the package's rows are these
    # falling-factorial coefficients, so they would make the test circular
    rows = [dict(enumerate(r)) for r in rook_rows_reference(6)]
    for size in range(11):
        for k in range(1, 7):
            want = sum(rows[k - 1].get(g, 0) * falling(size, k - g)
                       for g in range(k + 1))
            assert transformed_moment(size, k) == want


def test_transformed_moment_pruned_walk_matches_the_full_walk():
    # the package drops states above the size or the steps left; the
    # reference keeps every height a path reaches
    for size in range(0, 24):
        for k in range(0, 26):
            assert transformed_moment(size, k) == \
                transformed_moment_reference(size, k), (size, k)
    for size, k in ((70, 120), (130, 90), (3, 150)):
        assert transformed_moment(size, k) == \
            transformed_moment_reference(size, k), (size, k)


def test_transformed_moment_is_uniform_on_hermite_roots():
    for size in range(9):
        p = power_sums(hermite_coeffs(size + 1), 12)
        for k in range(
                1, 7):
            assert (size + 1) * transformed_moment(size, k) == p[2 * k]


def test_mc_moments_zeroth_is_exact():
    (est, err), = mc_moments(2, [0], trials=500, seed=1)
    assert est == 1.0 and err == 0.0


def test_mc_moments_is_reproducible():
    a = mc_moments(2, [2], trials=2000, seed=12345)[0]
    b = mc_moments(2, [2], trials=2000, seed=12345)[0]
    assert a == b
    c = mc_moments(2, [2], trials=2000, seed=54321)[0]
    assert a != c
    # pinned floats; n = 2 draws by inversion, n = 50 by PTRS rejection
    assert mc_moments(2, [2, 3], 2000, seed=7) == [
        (2.50175, 0.08073475874358388), (9.488125, 0.5137418607914409)]
    assert mc_moments(50, [1, 4], 300, seed=3) == [
        (0.9911333333333333, 0.008130495511649783),
        (14.405136668266667, 0.4619811068139281)]


@pytest.mark.parametrize("seed", [0, -1, 2 ** 64 + 5, sampler.DEFAULT_SEED])
def test_inversion_kernel_tallies_the_per_trial_draws(seed):
    # blocks hold 256 trials: 255, 256 and 257 straddle the first block
    # edge and 1000 ends in a partial block; at one seed, 4097 runs one
    # trial past the first 16 blocks counted at once
    depths = (1, 255, 256, 257, 1000)
    if seed == sampler.DEFAULT_SEED:
        depths += (4097,)
    root = RngState(seed)
    for mean in range(1, 31):
        sizes = [poisson_sample(mean, root.split(t))
                 for t in range(depths[-1])]
        for trials in depths:
            expected = {}
            for size in sizes[:trials]:
                expected[size] = expected.get(size, 0) + 1
            assert sampler._inversion_sizes(mean, seed, trials) == expected


def _unmix64(z):
    # inverse of sampler._mix64: undo each odd multiply and xor-shift
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    mask = 2 ** 64 - 1
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2 ** 64) & mask
    return unshift(unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64)
                   & mask, 30)


def _seed_whose_trial_draws(x, t=0):
    # RngState(seed).split(t).next_u64() == x
    child = _unmix64(x) - sampler._GOLDEN & 2 ** 64 - 1
    return _unmix64(child) ^ sampler._mix64((t + 1) * sampler._GOLDEN
                                            & 2 ** 64 - 1)


def _float_cdfs(mean):
    # P(X <= k), k = 0, 1, ..., summed in doubles until the pmf term
    # underflows to 0
    p = math.exp(-mean)
    cdf, k = p, 0
    while p:
        yield cdf
        k += 1
        p *= mean / k
        cdf += p


def _float_inversion(cdfs, u):
    # the inversion rule in doubles: the first k with u <= cdf_k, or the
    # count of cdf values when u exceeds them all
    return next((k for k, cdf in enumerate(cdfs) if u <= cdf), len(cdfs))


class _FixedRng:
    def __init__(self, x):
        self.x = x

    def next_u64(self):
        return self.x


def test_inversion_kernel_at_each_cdf_boundary():
    # a random output lands next to a boundary with odds near 2**-53, so
    # outputs are placed on each side of each float cdf and seeds are
    # built whose one trial draws them; the sizes come from the float
    # rule; at means 4 and 29 the top output exceeds the final cdf
    assert RngState(_seed_whose_trial_draws(12345)).split(0)\
        .next_u64() == 12345
    for mean in range(1, 31):
        cdfs = list(_float_cdfs(mean))
        outputs = [0, 2 ** 64 - 1]
        for cdf in cdfs:
            edge = int(cdf * 2 ** 53) + 1 << 11  # least x with u > cdf
            outputs += [x for x in (edge - 1, edge) if x < 2 ** 64]
        for x in outputs:
            u = (x >> 11) * 2.0 ** -53  # RngState.random of output x
            size = _float_inversion(cdfs, u)
            assert poisson_sample(mean, _FixedRng(x)) == size
            seed = _seed_whose_trial_draws(x)
            assert poisson_sample(mean, RngState(seed).split(0)) == size
            assert sampler._inversion_sizes(mean, seed, 1) == {size: 1}


@pytest.mark.parametrize("mean", [1, 2, 17, 29, 30])
def test_inversion_kernel_at_each_top_byte_edge_away_from_lane_zero(mean):
    # the kernel tallies a lane by its top byte unless that byte's bucket
    # holds a threshold, and then by its second byte unless that
    # sub-bucket holds one too: each bucket edge, each edge between
    # sub-buckets of different entries and each threshold's neighbours
    # are placed at lane 1, at the last lane of the first block and in a
    # partial second block, the other lanes being whatever the seed draws
    thresholds = sampler._inversion_thresholds(mean)
    _, rows = sampler._inversion_tables(mean)
    outputs = {b << 56 for b in range(256)}
    outputs |= {(b << 56) - 1 for b in range(1, 257)}
    outputs |= {(b << 56 | s << 48) - d for b, row in enumerate(rows) if row
                for s in range(1, 256) if row[s] != row[s - 1]
                for d in (0, 1)}
    outputs |= {x + d for x in thresholds for d in (-1, 1)}
    for t in (1, 255, 256 + 7):
        assert RngState(_seed_whose_trial_draws(12345, t)).split(t)\
            .next_u64() == 12345
        for x in sorted(outputs):
            seed = _seed_whose_trial_draws(x, t)
            root = RngState(seed)
            expected = {}
            for i in range(t + 1):
                size = poisson_sample(mean, root.split(i))
                expected[size] = expected.get(size, 0) + 1
            assert sampler._inversion_sizes(mean, seed, t + 1) == expected


@pytest.mark.parametrize("mean", [1, 2, 17, 29, 30])
def test_inversion_kernel_at_each_second_byte_edge(monkeypatch, mean):
    # x = b << 56 | s << 48 and x - 1, for every s of each bucket b that
    # holds a threshold, and each threshold and the output below it,
    # which are bisected, each become the output of one lane: the last
    # round's product is replaced by lanes that finish as those outputs,
    # over a high half of ones as a product's may be, and the split's
    # rounds, which then feed nothing, by the identity.  The outputs
    # fill ranges of 264 trials, two blocks the second of which is
    # partial, in a shuffled order, so each lane, 1, 255 and 263 too,
    # holds many, and a lane read for its neighbour changes the tally
    thresholds = sampler._inversion_thresholds(mean)
    edges = [b << 56 | s << 48 for b in sorted({x >> 56 for x in thresholds})
             for s in range(256)] + list(thresholds)
    outputs = [x - d for x in edges for d in (0, 1) if x - d >= 0]
    random.Random(mean).shuffle(outputs)
    width = sampler._LANE_BITS // 8

    def lanes(xs):
        # y ^ (y >> 31) == x for the low half y of each lane
        return int.from_bytes(b"".join(
            (x ^ x >> 31 ^ x >> 62 | (2 ** 64 - 1) << 64).to_bytes(width,
                                                                "little")
            for x in xs), "little")

    ranges = [outputs[i:i + 264] for i in range(0, len(outputs), 264)]
    blocks = iter([lanes(xs[i:i + 256]) for xs in ranges
                   for i in range(0, len(xs), 256)])
    monkeypatch.setattr(sampler, "_mix64", lambda z, mask: z)
    monkeypatch.setattr(sampler, "_mix64_product",
                        lambda z, mask: next(blocks))
    for xs in ranges:
        expected = [0] * (len(thresholds) + 1)
        for x in xs:
            expected[poisson_sample(mean, _FixedRng(x))] += 1
        assert sampler._tally_trials(mean, 1, 0, len(xs)) == expected
    assert next(blocks, None) is None


@pytest.mark.parametrize("mean, most", [(2, 100), (30, 250)])
def test_inversion_kernel_bisects_few_lanes(monkeypatch, mean, most):
    # only a lane whose 2**48-wide sub-bucket holds a threshold is
    # bisected: 16 and 56 of these trials, of the 3,088 and 11,770 whose
    # top-byte bucket holds one
    expected = sampler._tally_trials(mean, DEFAULT_SEED, 0, 100_096)
    calls = []

    def counted(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(sampler, "bisect_right", counted)
    assert sampler._tally_trials(mean, DEFAULT_SEED, 0, 100_096) == expected
    assert len(calls) < most


def test_inversion_kernel_starts_at_any_trial():
    # lane i of the first block is trial first + i, whether or not first
    # is a multiple of the 256 lanes of a block
    root = RngState(DEFAULT_SEED)
    for mean in (1, 2, 17, 30):
        sizes = [poisson_sample(mean, root.split(t)) for t in range(1100)]
        for first, last in ((1, 2), (7, 300), (255, 1100), (300, 812)):
            expected = [0] * (len(sampler._inversion_thresholds(mean)) + 1)
            for size in sizes[first:last]:
                expected[size] += 1
            assert sampler._tally_trials(mean, DEFAULT_SEED, first,
                                         last) == expected


def test_inversion_tables_cache_is_bounded():
    # callers may pass any float mean
    for i in range(100):
        sampler._inversion_tables(1 + i / 128)
    assert sampler._inversion_tables.cache_info().currsize <= 64


def test_inversion_kernel_rejects_a_rejection_mean():
    # above the inversion limit poisson_sample draws by PTRS, whose
    # tally the kernel cannot give
    for mean in (30.5, 31, 50):
        with pytest.raises(ValueError):
            sampler._inversion_sizes(mean, 1, 10)


def _count_forks(monkeypatch, cpus):
    # the host's CPU count is replaced by cpus (None: no affinity call);
    # the list collects the pid of each child forked
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_range(mean, seed, trials):
    tally = sampler._tally_trials(mean, seed, 0, trials)
    return {size: count for size, count in enumerate(tally) if count}


@pytest.mark.parametrize("seed", [0, -1, DEFAULT_SEED])
@pytest.mark.parametrize("mean", [1, 2, 17, 30])
def test_split_tally_equals_the_one_range_tally(monkeypatch, mean, seed):
    # 257 blocks split into 2 ranges at block 128, and 385 blocks into 3
    # at blocks 128 and 256; both end in a partial block
    for cpus, trials in ((2, 257 * 256 - 255), (3, 385 * 256 - 179)):
        forks = _count_forks(monkeypatch, cpus)
        assert sampler._inversion_sizes(mean, seed, trials) == \
            _one_range(mean, seed, trials)
        assert len(forks) == cpus - 1
        _assert_no_child_left()


@pytest.mark.parametrize("failure", ["raises", "exits", "exits-after",
                                     "extra", "short", "negative",
                                     "garbage"])
def test_a_failed_child_range_is_tallied_by_the_parent(monkeypatch,
                                                        failure):
    parent = os.getpid()
    tally = sampler._tally_trials

    def failing(mean, seed, first, last):
        counts = tally(mean, seed, first, last)
        if os.getpid() == parent:
            return counts
        if failure == "raises":
            raise RuntimeError("child failed")
        if failure == "exits":
            os._exit(3)
        if failure == "exits-after":  # a well-formed tally, then status 3
            exit_now = os._exit
            os._exit = lambda status: exit_now(3)
            top = counts.index(max(counts))
            counts[0], counts[top] = counts[top], counts[0]
            return counts
        if failure == "extra":  # one trial too many
            counts[0] += 1
        elif failure == "short":  # a size left out, sum kept
            counts[-2] += counts.pop()
        elif failure == "negative":  # sum and length kept
            counts[0], counts[1] = -1, counts[0] + counts[1] + 1
        else:
            counts = ["x"]
        return counts

    monkeypatch.setattr(sampler, "_tally_trials", failing)
    forks = _count_forks(monkeypatch, 3)
    trials = 385 * 256 - 179
    assert sampler._inversion_sizes(30, 11, trials) == \
        _one_range(30, 11, trials)
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_range_no_child_could_be_forked_for_is_tallied_here(monkeypatch):
    # the second fork fails as at a process limit: the first child's
    # range comes back over its pipe, the third range is tallied here,
    # and the failed fork's pipe is closed
    forks = _count_forks(monkeypatch, 3)
    counted = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return counted()

    monkeypatch.setattr(os, "fork", second_fails)
    trials = 385 * 256 - 179
    open_fds = len(os.listdir("/dev/fd"))
    assert sampler._inversion_sizes(17, 3, trials) == \
        _one_range(17, 3, trials)
    assert len(forks) == 1
    assert len(os.listdir("/dev/fd")) == open_fds
    _assert_no_child_left()


def test_the_parent_reaps_its_children_when_interrupted(monkeypatch):
    parent = os.getpid()
    tally = sampler._tally_trials

    def interrupted(mean, seed, first, last):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return tally(mean, seed, first, last)

    monkeypatch.setattr(sampler, "_tally_trials", interrupted)
    forks = _count_forks(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        sampler._inversion_sizes(2, 5, 385 * 256)
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, trials, expected", [
    (None, 200_000, 0),  # no sched_getaffinity: one worker
    (1, 200_000, 0),
    (64, 10_000, 0),  # sample's default trials: 40 blocks
    (64, 128 * 256, 0),
    (64, 128 * 256 + 1, 0),
    (64, 256 * 256, 1),
    (64, 200_000, 5),  # 782 blocks: 6 shares of 128 or more
])
def test_each_worker_gets_its_minimum_share(monkeypatch, cpus, trials,
                                            expected):
    forks = _count_forks(monkeypatch, cpus)
    assert sum(sampler._inversion_sizes(2, 5, trials).values()) == trials
    assert len(forks) == expected
    _assert_no_child_left()


def test_sample_at_its_default_trials_never_forks(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch, 64)
    assert main(["sample", "--out", str(tmp_path / "sample.json")]) == 0
    assert forks == []


def test_inversion_kernel_holds_a_few_blocks(monkeypatch):
    # the tally is counted per block: no buffer grows with the trials
    sampler._inversion_sizes(2, 5, 1)  # fill the threshold cache
    forks = _count_forks(monkeypatch, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sizes = sampler._inversion_sizes(2, 5, 200_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(sizes.values()) == 200_000
    assert len(forks) == 1
    # about 16 ints of one block's 4096 bytes are alive at once, beside
    # the count buffer of 16 blocks' top bytes, 4096 bytes; a byte per
    # trial would add 200,000
    assert peak < 100_000


def test_mc_moments_never_samples_a_shape(monkeypatch):
    # a trial reads only the Poisson size, so the shape sampler never runs
    def boom(*args, **kwargs):
        raise AssertionError("shape sampler called by the estimator")

    monkeypatch.setattr(sampler.RngState, "shuffle", boom)
    monkeypatch.setattr(sampler, "rsk_shape", boom)
    monkeypatch.setattr(sampler, "sample_pp", boom)
    assert mc_moments(2, [2, 3], 2000, seed=7)[0] == (2.50175,
                                                       0.08073475874358388)


def test_mc_moments_consistency_with_exact_values():
    for n in (2, 3):
        targets = [sum(Fraction(c, n ** g)
                       for g, c in moment_polynomial(k).items())
                   for k in (1, 2, 3)]
        results = mc_moments(n, [1, 2, 3], trials=40000, seed=97)
        for (est, err), target in zip(results, targets):
            assert err > 0
            assert abs(est - float(target)) < 4 * err


def test_mc_standard_error_survives_large_n():
    # a float sum of squares cancels here: stderr read 0.0 at n = 2**53
    # and about twice the true value at n = 10**15
    result = run_sample(2 ** 53, 1, 20)["results"][0]
    assert result["stderr"] > 0 and result["z"] is not None
    n, trials = 10 ** 15, 200
    (_, err), = mc_moments(n, [1], trials)
    assert abs(err / math.sqrt(1 / (n * trials)) - 1) < 0.1


def test_mc_standard_error_whose_square_exceeds_a_double():
    # at n = 1, k = 140 the variance of the mean is about 2.5e314, past a
    # double, while the standard error itself is about 1.58e157
    k, trials = 140, 2000
    (_, err), = mc_moments(1, [k], trials)
    root = RngState(DEFAULT_SEED)
    sizes = Counter(poisson_sample(1, root.split(t)) for t in range(trials))
    s1 = sum(c * transformed_moment(size, k) for size, c in sizes.items())
    s2 = sum(c * transformed_moment(size, k) ** 2
             for size, c in sizes.items())
    var, den = trials * s2 - s1 * s1, trials * trials * (trials - 1)
    assert var // den >> 1024
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float((Decimal(var) / Decimal(den)).sqrt())
    assert math.isfinite(err)
    assert abs(err - exact) <= 1e-12 * exact


def test_mc_moments_releases_its_size_tally():
    # the exact moment is computed once per distinct size inside the
    # call; nothing may outlive it, though at n = 10**15 nearly every
    # one of the 20,000 sizes differs
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        (est, err), = mc_moments(10 ** 15, [3], 20000)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(est - 5) < 0.01 and err > 0
    assert held < 1_000_000


def test_mc_moments_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        mc_moments(2, [2], trials=0)
    with pytest.raises(ValueError):
        mc_moments(2, [-1], trials=10)
    for n in (0, -2):
        with pytest.raises(ValueError):
            mc_moments(n, [1], trials=10)
    # trials is checked at entry by the mean's rule, before the empty-ks
    # return, the guard, the rows and the draws: trials = 0 at k = 300
    # built the 1.4 s row at n = 1000 before the draws refused it, and a
    # float failed inside the kernel
    def forbidden(*args):
        raise AssertionError(f"built rows or drew trials: {args}")

    monkeypatch.setattr(oracles, "moment_polynomials", forbidden)
    monkeypatch.setattr(sampler, "_drawn_sizes", forbidden)
    for trials in (0, -1):
        for ks in ([300], []):
            with pytest.raises(ValueError, match="trials must be positive"):
                mc_moments(1000, ks, trials)
    for trials in (2.5, 2.0, "2", None):
        for ks in ([2], []):
            with pytest.raises(TypeError,
                               match="^trials must be an int, not "):
                mc_moments(2, ks, trials)


def test_mc_moments_reads_its_orders_once(monkeypatch):
    # a generator of orders was spent by the validity check, so the rows
    # and the estimates saw no order at all
    assert mc_moments(2, (k for k in [2, 3]), 100) == \
        mc_moments(2, [2, 3], 100)

    def forbidden(*args):
        raise AssertionError(f"drew trials for no order: {args}")

    monkeypatch.setattr(sampler, "_drawn_sizes", forbidden)
    assert mc_moments(2, [], 100) == []
    assert mc_moments(2, iter(()), 100) == []


@pytest.mark.parametrize("k", [600, 200000])
def test_mc_moments_overflowing_target_raises_before_the_rows(monkeypatch,
                                                               k):
    # the overflow guard of the sample command runs first: no row is
    # built (K = 519 alone takes about 16 s) and no trial is drawn
    def forbidden(*args):
        raise AssertionError(f"built rows or drew trials: {args}")

    monkeypatch.setattr(oracles, "moment_polynomials", forbidden)
    monkeypatch.setattr(sampler, "_drawn_sizes", forbidden)
    start = time.perf_counter()
    with pytest.raises(OverflowError):
        mc_moments(2, [1, k], 10)
    assert time.perf_counter() - start < 1.0


def test_mc_moments_shares_the_overflow_guard(monkeypatch):
    # at n = 1 the 600th moment is past 2**1024: the walked route gave a
    # finite mean of 10 draws, 4.03e219, for a target no double holds
    with pytest.raises(OverflowError):
        mc_moments(1, [300], 10)
    # the mean is an int, and any other type is refused at entry, before
    # any guard, row or draw: a float mean once worked below k = 168 and
    # raised from range() in the guard's window above it
    def forbidden(*args):
        raise AssertionError(f"guarded, built rows or drew trials: {args}")

    monkeypatch.setattr(sampler, "_target_overflows", forbidden)
    monkeypatch.setattr(oracles, "moment_polynomials", forbidden)
    monkeypatch.setattr(sampler, "_drawn_sizes", forbidden)
    for mean in (2.5, 2.0, "2", Fraction(2), None):
        for k in (2, 170):
            with pytest.raises(TypeError,
                               match="^the mean must be an int, not "):
                mc_moments(mean, [k], 100)

