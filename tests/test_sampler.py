import gc
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import ppmoments.sampler as sampler
from ppmoments import (
    DEFAULT_SEED,
    DuplicateEntries,
    Partition,
    PolyC,
    RngState,
    TransitionMeasure,
    mc_moment,
    mc_moments,
    moment_polynomial,
    poisson_sample,
    rsk_shape,
    sample_pp,
    transformed_moment,
    transition_measure,
)
from ppmoments.cli import run_sample

from helpers import (corner_moment_rows, hermite_coeffs, partitions_of,
                     power_sums, rook_rows_reference, tableau_count,
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
    assert rsk_shape((1, 2, 3)) == Partition((3,))
    assert rsk_shape((2, 1)) == Partition((1, 1))
    assert rsk_shape((1, 3, 2)) == Partition((2, 1))
    assert rsk_shape(()) == Partition(())
    with pytest.raises(DuplicateEntries):
        rsk_shape((1, 1))


def test_rsk_first_row_is_longest_increasing_subsequence():
    rng = RngState(23)
    for _ in range(50):
        size = 1 + rng.randbelow(8)
        perm = list(range(size))
        rng.shuffle(perm)
        shape = rsk_shape(perm)
        best = 0
        for mask in range(1 << size):
            sub = [perm[i] for i in range(size) if mask >> i & 1]
            if sub == sorted(sub):
                best = max(best, len(sub))
        assert shape.parts[0] == best
        assert shape.size == size


class _ZeroRng:
    def next_u64(self):
        return 0

    def shuffle(self, xs):
        pass


def test_sample_pp_forced_empty():
    assert sample_pp(5, _ZeroRng()) == Partition(())


def test_sample_pp_size_distribution():
    trials, n = 4000, 5
    root = RngState(29)
    sizes = [sample_pp(n, root.split(t)).size for t in range(trials)]
    assert abs(sum(sizes) / trials - n) < 4 * math.sqrt(n / trials)


def test_sample_pp_shape_distribution_at_size_three():
    # conditioned on size 3 the shapes carry weights 1/6, 4/6, 1/6
    trials = 6000
    root = RngState(31)
    counts = {Partition((3,)): 0, Partition((2, 1)): 0, Partition((1, 1, 1)): 0}
    for t in range(trials):
        perm = [1, 2, 3]
        root.split(t).shuffle(perm)
        counts[rsk_shape(perm)] += 1
    for shape, p in ((Partition((3,)), Fraction(1, 6)),
                     (Partition((2, 1)), Fraction(4, 6)),
                     (Partition((1, 1, 1)), Fraction(1, 6))):
        sigma = math.sqrt(float(p) * (1 - float(p)) * trials)
        assert abs(counts[shape] - float(p) * trials) < 4 * sigma


def test_transition_measure_examples():
    tm = transition_measure(Partition(()), 1)
    assert tm.atoms == (0,) and tm.weights == (Fraction(1),)
    tm = transition_measure(Partition((1,)), 1)
    assert set(zip(tm.atoms, tm.weights)) == {(1, Fraction(1, 2)),
                                              (-1, Fraction(1, 2))}
    tm = transition_measure(Partition((2,)), 1)
    assert set(zip(tm.atoms, tm.weights)) == {(2, Fraction(1, 3)),
                                              (-1, Fraction(2, 3))}


def test_transition_measure_stays_exact_from_int_weights():
    # the weights become Fractions, so no moment turns into a float
    tm = TransitionMeasure((1, -1), (1, 1), (0,), 2)
    assert tm.weights == (Fraction(1), Fraction(1))
    for value in (tm.total_mass(), tm.unscaled_moment(1), tm.moment(0),
                  tm.moment(2)):
        assert isinstance(value, Fraction)
    assert tm.moment(2) == 1
    with pytest.raises(ValueError):
        TransitionMeasure((), (), (), 1)


def test_transition_measure_exact_invariants():
    for size in range(7):
        for lam in partitions_of(size):
            tm = transition_measure(lam, 3)
            assert all(w > 0 for w in tm.weights)
            assert tm.total_mass() == 1
            assert tm.unscaled_moment(1) == 0
            assert tm.moment(2) == Fraction(size, 3)
            # atoms strictly interlace the lower corners
            seq = []
            for a, b in zip(tm.atoms, tm.lower + (None,)):
                seq.append(a)
                if b is not None:
                    seq.append(b)
            assert all(x > y for x, y in zip(seq, seq[1:]))


def test_transition_measure_partial_fractions():
    # prod (x - lower) equals sum_i w_i prod_{j != i} (x - atom_j), exactly
    for size in range(7):
        for lam in partitions_of(size):
            tm = transition_measure(lam, 1)
            lhs = PolyC((1,))
            for b in tm.lower:
                lhs = lhs * PolyC((-b, 1))
            rhs = PolyC(())
            for i, w in enumerate(tm.weights):
                term = PolyC((w,))
                for j, a in enumerate(tm.atoms):
                    if j != i:
                        term = term * PolyC((-a, 1))
                rhs = rhs + term
            assert lhs == rhs


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
    for k, row in CORNER_ROWS.items():
        assert corner_moment_rows(k) == row
    for k in (1, 2):
        assert moment_polynomial(k) == CORNER_ROWS[k]
    assert moment_polynomial(3) == {0: 5, 1: 8, 2: 1}
    assert moment_polynomial(4) == {0: 14, 1: 47, 2: 26, 3: 1}
    for k in (3, 4):
        size_only = moment_polynomial(k)
        assert all(c >= size_only[g] for g, c in CORNER_ROWS[k].items())
        assert CORNER_ROWS[k] != size_only


def test_transition_measure_scaled_moment_conventions():
    tm = transition_measure(Partition((2, 1)), 4)
    assert tm.moment(0) == 1
    assert tm.moment(2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        tm.moment(3)
    assert tm.to_json() == {"n": 4, "atoms": ["2", "0", "-2"],
                            "weights": ["3/8", "1/4", "3/8"]}


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


def test_mc_moment_zeroth_is_exact():
    est, err = mc_moment(2, 0, trials=500, seed=1)
    assert est == 1.0 and err == 0.0


def test_mc_moment_is_reproducible():
    a = mc_moment(2, 2, trials=2000, seed=12345)
    b = mc_moment(2, 2, trials=2000, seed=12345)
    assert a == b
    c = mc_moment(2, 2, trials=2000, seed=54321)
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
    # edge and 1000 ends in a partial block
    root = RngState(seed)
    for mean in range(1, 31):
        sizes = [poisson_sample(mean, root.split(t)) for t in range(1000)]
        for trials in (1, 255, 256, 257, 1000):
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
    # holds a threshold: each bucket edge and each threshold's neighbours
    # are placed at lane 1, at the last lane of the first block and in a
    # partial second block, the other lanes being whatever the seed draws
    thresholds = sampler._inversion_thresholds(mean)
    outputs = {b << 56 for b in range(256)}
    outputs |= {(b << 56) - 1 for b in range(1, 257)}
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


def test_inversion_kernel_rejects_a_rejection_mean():
    # above the inversion limit poisson_sample draws by PTRS, whose
    # tally the kernel cannot give
    for mean in (30.5, 31, 50):
        with pytest.raises(ValueError):
            sampler._inversion_sizes(mean, 1, 10)


def test_inversion_kernel_holds_a_few_blocks():
    # the tally is counted per block: no buffer grows with the trials
    sampler._inversion_sizes(2, 5, 1)  # fill the threshold cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sizes = sampler._inversion_sizes(2, 5, 200_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(sizes.values()) == 200_000
    # about 16 ints of one block's 4096 bytes are alive at once; a byte
    # per trial would add 200,000
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


def test_mc_moment_argument_validation():
    with pytest.raises(ValueError):
        mc_moment(2, 2, trials=0)
    with pytest.raises(ValueError):
        mc_moments(2, [-1], trials=10)
    for n in (0, -2):
        with pytest.raises(ValueError):
            mc_moments(n, [1], trials=10)
