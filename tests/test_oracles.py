import gc
import tracemalloc

import pytest

from ppmoments import (
    Partition,
    catalan_number,
    enum_paths,
    moment_polynomial,
    moment_polynomials,
    path_counts,
    word_moment,
)

from ppmoments.oracles import _word_rows

from helpers import (
    LatticePath,
    RookPlacement,
    UnbalancedPath,
    brute_marking_count,
    conjugate,
    count_markings,
    count_rook_placements,
    dyck_words,
    fits_staircase,
    iter_paths,
    iter_rook_placements,
    marking_counts,
    normal_order,
    partitions_of,
    path_to_partition,
    rook_counts_exhaustive,
    rook_polynomial,
    rook_rows_reference,
    staircase_partitions,
)

P = LatticePath.from_string


def test_partition_validation():
    assert Partition((3, 1, 0)).parts == (3, 1)
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    for parts in ((1, 2), (3, 0, 2), (0, 1), (2, -1)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Partition(()).size == 0
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert fits_staircase(Partition((2, 1)), 3)
    assert not fits_staircase(Partition((3,)), 3)


def test_partition_corner_contents():
    assert Partition(()).addable_contents() == [0]
    assert Partition(()).removable_contents() == []
    lam = Partition((2, 1))
    assert lam.addable_contents() == [2, 0, -2]
    assert lam.removable_contents() == [1, -1]


def test_partitions_of_counts():
    assert [sum(1 for _ in partitions_of(m)) for m in range(8)] == \
        [1, 1, 2, 3, 5, 7, 11, 15]


def test_lattice_path_validation():
    assert P("UUDD").steps == (1, 1, -1, -1)
    with pytest.raises(ValueError):
        LatticePath((1, -1, -1))
    with pytest.raises(ValueError):
        LatticePath((2,))
    assert P("UUD").end_height == 1
    assert P("UDUD").heights() == [0, 1, 0, 1, 0]


def test_enum_paths_examples():
    assert enum_paths(0, 3, 3) == 1
    assert enum_paths(4, 0, 0) == 2
    assert enum_paths(2, 1, 1) == 2
    with pytest.raises(ValueError):
        enum_paths(-1, 0, 0)
    with pytest.raises(ValueError):
        path_counts(-1, 3)


def test_enum_paths_catalan_row():
    for k in range(9):
        assert enum_paths(2 * k, 0, 0) == catalan_number(k)


def test_odd_length_balanced_paths_vanish():
    for length in (1, 3, 5, 7):
        assert enum_paths(length, 0, 0) == 0
        assert list(iter_paths(length)) == []


def test_iter_paths_agrees_with_enum():
    for start in range(3):
        rows = path_counts(start, 6)
        assert len(rows) == 7
        for length in range(7):
            for end in range(4):
                want = sum(1 for _ in iter_paths(length, start, end))
                assert enum_paths(length, start, end) == want
                assert rows[length].get(end, 0) == want


def test_dyck_words_spell_iter_paths():
    for k in range(1, 8):
        assert list(dyck_words(k)) == [
            "".join("u" if step > 0 else "d" for step in path)
            for path in iter_paths(2 * k)]


def test_path_to_partition_examples():
    assert path_to_partition(P("UUDD")) == Partition(())
    assert path_to_partition(P("UDUD")) == Partition((1,))
    assert path_to_partition(P("UDUDUD")) == Partition((2, 1))
    with pytest.raises(UnbalancedPath):
        path_to_partition(P("UUD"))


def test_path_to_partition_lands_in_staircase():
    for k in (2, 3, 4):
        seen = set()
        for steps in iter_paths(2 * k):
            lam = path_to_partition(LatticePath(steps))
            assert fits_staircase(lam, k)
            seen.add(lam)
        assert len(seen) == catalan_number(k)


def test_count_markings_examples():
    assert count_markings(P("UUDD"), 0) == 1
    assert count_markings(P("UUDD"), 1) == 0
    assert count_markings(P("UDUD"), 1) == 1
    with pytest.raises(UnbalancedPath):
        count_markings(P("UU"), 0)


def test_count_markings_brute_force_agreement():
    for k in (1, 2, 3, 4):
        for steps in iter_paths(2 * k):
            p = LatticePath(steps)
            tallies = marking_counts(p)
            for g in range(k + 1):
                assert tallies.get(g, 0) == brute_marking_count(p, g)


def test_rook_placement_validation():
    lam = Partition((2, 1))
    assert len(RookPlacement(lam, [(1, 2), (2, 1)])) == 2
    with pytest.raises(ValueError):
        RookPlacement(lam, [(2, 2)])  # outside the diagram
    with pytest.raises(ValueError):
        RookPlacement(lam, [(1, 1), (1, 2)])  # shared row
    with pytest.raises(ValueError):
        RookPlacement(lam, [(1, 1), (2, 1)])  # shared column


def test_rook_polynomial_against_enumeration():
    for lam in (Partition(()), Partition((1,)), Partition((2, 1)),
                Partition((3, 2, 1)), Partition((4, 2, 1)), Partition((2, 2))):
        poly = rook_polynomial(lam)
        for g in range(len(poly) + 1):
            explicit = sum(1 for _ in iter_rook_placements(lam, g))
            assert count_rook_placements(lam, g) == explicit
            if g < len(poly):
                assert poly[g] == explicit


def test_staircase_partition_counts():
    for k in range(1, 8):
        shapes = list(staircase_partitions(k))
        assert len(shapes) == catalan_number(k)
        assert all(fits_staircase(s, k) for s in shapes)


def test_rook_counts_examples():
    rows = moment_polynomials(3)
    assert rows[1].get(1, 0) == 1
    assert rows[1].get(0, 0) == 2
    assert rows[2].get(2, 0) == 1
    assert rows[0].get(1, 0) == 0
    with pytest.raises(ValueError):
        moment_polynomial(0)


def test_rook_counts_leading_is_catalan():
    for k, row in enumerate(moment_polynomials(9), start=1):
        assert row.get(0, 0) == catalan_number(k)


def test_rook_count_strategies_agree_on_overlap():
    rows = moment_polynomials(10)
    assert len(rows) == 10
    for k, row in enumerate(rows, start=1):
        assert row == dict(enumerate(rook_counts_exhaustive(k)))


def test_moment_rows_do_not_depend_on_the_horizon():
    # the walk drops states that cannot return to (0, 0) by step 2k_max;
    # every state that feeds an earlier row must survive
    rows = moment_polynomials(15)
    assert len(rows) == 15
    for k in range(1, 16):
        assert rows[k - 1] == moment_polynomial(k)


def test_moment_polynomials_needs_a_positive_horizon():
    with pytest.raises(ValueError):
        moment_polynomials(0)
    with pytest.raises(ValueError):
        moment_polynomials(-2)


def test_marking_rook_bijection_per_path():
    rows = moment_polynomials(5)
    for k in (2, 3, 4, 5):
        totals = {}
        for steps in iter_paths(2 * k):
            p = LatticePath(steps)
            lam = path_to_partition(p)
            for g in range(k):
                assert count_markings(p, g) == count_rook_placements(lam, g)
            for g, n in marking_counts(p).items():
                totals[g] = totals.get(g, 0) + n
        for g, n in totals.items():
            assert n == rows[k - 1].get(g, 0)


def test_moment_polynomial_small_values():
    assert moment_polynomial(1) == {0: 1}
    assert moment_polynomial(2) == {0: 2, 1: 1}
    assert moment_polynomial(3) == {0: 5, 1: 8, 2: 1}
    with pytest.raises(ValueError):
        moment_polynomial(0)


def test_moment_polynomial_invariants():
    for k in range(1, 9):
        row = moment_polynomial(k)
        assert row[0] == catalan_number(k)
        top = max(row)
        assert top <= max(k - 1, 0) or k == 1
        assert row.get(k, 0) == 0


def test_moment_polynomial_evaluate():
    from fractions import Fraction
    assert sum(Fraction(c, 2 ** g)
               for g, c in moment_polynomial(2).items()) == Fraction(5, 2)
    assert sum(Fraction(c, 2 ** g)
               for g, c in moment_polynomial(3).items()) == Fraction(37, 4)


def test_moment_polynomial_serialization():
    from ppmoments.cli import run_moments
    assert run_moments(2)["results"] == [{"k": 1, "counts": {"0": 1}},
                                         {"k": 2, "counts": {"0": 2, "1": 1}}]


def test_size_rows_match_the_rook_walk():
    # the Newton differences of the size walk against the rook transfer
    # matrix, which stays in tests/helpers.py as the reference
    for k_max in (1, 2, 3, 40):
        assert moment_polynomials(k_max) == \
            [dict(enumerate(r)) for r in rook_rows_reference(k_max)]


def test_size_and_word_walks_give_the_same_rows():
    # the two production routes, one pass of size walks of horizon 80
    # and one word walk, hand the reports one row type: row k holds the
    # k positive counts at g < k
    size = moment_polynomials(40)
    assert size == _word_rows(40)
    for k, row in enumerate(size, start=1):
        assert sorted(row) == list(range(k)), k
        assert all(n > 0 for n in row.values()), k


def test_word_moment_small_values():
    assert word_moment(1) == {0: 1}
    assert word_moment(2) == {0: 2, 1: 1}
    assert word_moment(3) == {0: 5, 1: 8, 2: 1}


def test_word_moment_matches_rook_route():
    for k, row in enumerate(moment_polynomials(24), start=1):
        assert word_moment(k) == row


def test_word_walk_matches_per_word_normal_order():
    # the walk's d^j u rule against the plain du -> ud + 1/n rewrite,
    # applied to each Dyck word on its own
    for k in range(1, 9):
        memo: dict[str, dict[int, int]] = {}
        totals: dict[int, int] = {}
        for word in dyck_words(k):
            for g, n in normal_order(word, memo).items():
                totals[g] = totals.get(g, 0) + n
        assert word_moment(k) == totals


def test_word_moment_releases_its_memo():
    # nothing the walk builds may outlive the call; the per-word
    # rewrite it replaced held megabytes of word tallies at k = 10
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = word_moment(10)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result == moment_polynomial(10)
    assert held < 2_000_000
