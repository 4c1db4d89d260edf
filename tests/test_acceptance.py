"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
All comparisons are exact except the Monte Carlo agreement, which uses a
4 standard error band at a fixed seed."""

import contextlib
from fractions import Fraction
from random import Random

from ppmoments import (
    DEFAULT_SEED,
    RationalFnC,
    ansatz_to_series,
    catalan_series,
    chain_shape_violations,
    enum_paths,
    expand_in_x,
    f_series,
    fine_structure_form,
    g_apply,
    euler_apply,
    g_series,
    mc_moments,
    moment_polynomial,
    operator_chain,
    phi,
    theta_support_window,
    transition_measure,
    word_moment,
    y0_coefficient,
)
from ppmoments.algebra import C_MINUS_ONE, POLY_C

from helpers import (
    direct_g_apply_grid,
    euler_grid,
    partitions_of,
    random_ansatz_sum,
)

# Pinned coefficient table for orders 1..4 (integer entries, exact).
THETA_TABLE = {
    1: {2: 1},
    2: {3: 1, 4: 14, 5: 15},
    3: {4: 1, 5: 64, 6: 565, 7: 1122, 8: 630},
    4: {5: 1, 6: 222, 7: 5820, 8: 42500, 9: 110670, 10: 118740, 11: 45045},
}


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_theta_table():
    with criterion(1, "theta table reproduction"):
        for g, row in THETA_TABLE.items():
            theta = fine_structure_form(phi(g), g)
            assert theta == {k: Fraction(v) for k, v in row.items()}


def test_criterion_2_first_correction_closed_form():
    with criterion(2, "first correction closed form"):
        expected = RationalFnC(POLY_C * C_MINUS_ONE ** 2, 3)
        assert phi(1) == expected


def test_criterion_3_leading_order_catalan():
    with criterion(3, "leading order is the Catalan series"):
        assert phi(0) == RationalFnC(POLY_C)
        series = expand_in_x(phi(0), 10)
        assert list(series) == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
        assert series == catalan_series(10)


def test_criterion_4_three_way_oracle_agreement():
    with criterion(4, "three-way oracle agreement k<=8, g<=4"):
        phi_series = {g: expand_in_x(phi(g), 16) for g in range(5)}
        for k in range(1, 9):
            rook = moment_polynomial(k)
            assert word_moment(k) == rook
            for g in range(5):
                assert phi_series[g].coefficient(2 * k) == rook.get(g, 0)
        assert moment_polynomial(2) == {0: 2, 1: 1}  # 2 + 1/n


def test_criterion_5_structural_invariants():
    with criterion(5, "operator-chain shape and support window g<=6"):
        for g in range(1, 7):
            chain = operator_chain(g)
            assert chain_shape_violations(chain, g) == []
            theta = fine_structure_form(y0_coefficient(chain), g)
            lo, hi = theta_support_window(g)
            assert theta  # nonempty
            assert all(lo <= k <= hi for k in theta)


def test_criterion_6_operator_series_equivalence():
    with criterion(6, "operator vs direct series application, 50 cases"):
        x_order, y_order = 16, 8
        rng = Random(20240501)
        g_grid = g_series(x_order, y_order, x_order + 1)
        for case in range(50):
            s = random_ansatz_sum(rng)
            r = rng.randint(0, 4)
            got = ansatz_to_series(euler_apply(r, s), x_order, y_order)
            want = euler_grid(r, ansatz_to_series(s, x_order, y_order))
            assert got == want, f"euler mismatch in case {case}"
            k = rng.randint(0, 3)
            got = ansatz_to_series(g_apply(k, s), x_order, y_order)
            want = direct_g_apply_grid(k, s, x_order, y_order, g_grid)
            assert got == want, f"splitting mismatch in case {case}"


def test_criterion_7_generating_function_checks():
    with criterion(7, "closed forms match path counts i<=12"):
        imax = 12
        fgrid = f_series(imax, imax)
        for i in range(imax + 1):
            for j in range(imax + 1):
                assert fgrid[i][j] == enum_paths(i, 0, j)
        ggrid = g_series(imax, imax, imax)
        for i in range(imax + 1):
            for j1 in range(imax + 1):
                for j2 in range(imax + 1):
                    assert ggrid[i][j1][j2] == enum_paths(i, j1, j2)


def test_criterion_8_transition_measure_exactness():
    with criterion(8, "transition measure exact on |shape| <= 6"):
        n = 5
        for size in range(7):
            for lam in partitions_of(size):
                tm = transition_measure(lam, n)
                assert all(w > 0 for w in tm.weights)
                assert tm.total_mass() == 1
                assert tm.unscaled_moment(1) == 0
                assert tm.moment(2) == Fraction(size, n)


def test_criterion_9_monte_carlo_agreement():
    with criterion(9, "Monte Carlo agreement at n=2, 1e6 trials"):
        n, trials = 2, 10 ** 6
        targets = {2: Fraction(5, 2), 3: Fraction(37, 4)}
        for k in (2, 3):
            assert sum(Fraction(c, n ** g) for g, c in
                       moment_polynomial(k).items()) == targets[k]
        results = mc_moments(n, [2, 3], trials, seed=DEFAULT_SEED)
        for (est, err), k in zip(results, (2, 3)):
            assert err > 0
            assert abs(est - float(targets[k])) < 4 * err, \
                f"order {2 * k}: {est} vs {float(targets[k])} (se {err})"
