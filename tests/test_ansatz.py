from fractions import Fraction
from math import comb
from random import Random

import pytest

from ppmoments import (
    AnsatzSum,
    PolyC,
    chain_iterates,
    RationalFnC,
    ansatz_to_series,
    chain_shape_violations,
    enum_paths,
    euler_apply,
    f_initial,
    f_series,
    fine_structure_form,
    g_apply,
    g_series,
    operator_chain,
    phi,
    y0_coefficient,
)
from ppmoments.algebra import C_MINUS_ONE, POLY_C, POLY_ONE, TWO_MINUS_C
from ppmoments.ansatz import _kernel

from helpers import direct_g_apply_grid, euler_grid, random_ansatz_sum

C = POLY_C


def test_f_initial_is_single_term():
    f = f_initial()
    assert len(f) == 1
    assert f.terms == ((C, 0, 1),)


def test_ansatz_sum_canonicalization():
    # sum the terms at each b, drop zeros, reduce numerator factors of (2-c)
    s = AnsatzSum([(C, 1, 1), (-C, 1, 1)])
    assert not s
    merged = AnsatzSum([(C, 1, 1), (C, 1, 1)])
    assert merged.terms == ((2 * C, 1, 1),)
    reduced = AnsatzSum([(TWO_MINUS_C * C, 1, 1)])
    assert reduced == AnsatzSum([(C, 0, 1)])
    for bad in ((C, -1, 0), (C, 0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            AnsatzSum([bad])


def test_equal_functions_compare_equal():
    # c/(2-c) - 1 = (2c-2)/(2-c): one function, one stored term at b = 1
    assert AnsatzSum([(C, 1, 1), (-1, 0, 1)]) == \
        AnsatzSum([(2 * C - 2, 1, 1)])


def test_chain_iterates_are_the_closed_shape():
    # iterate r holds the paper's 2r terms, at (a, b) = (4r-1-i, 2+i)
    for r, s in enumerate(chain_iterates(8)):
        if r:
            assert len(s) == 2 * r
            assert sorted((b, a) for _, a, b in s) == \
                [(2 + i, 4 * r - 1 - i) for i in range(2 * r)]


def test_ansatz_serialization():
    assert f_initial().to_json() == [{"num": ["0", "1"], "a": 0, "b": 1}]


def test_y0_coefficient_examples():
    assert y0_coefficient(AnsatzSum([(C, 0, 5)])) == RationalFnC(C)
    assert y0_coefficient(f_initial()) == RationalFnC(C)
    assert y0_coefficient(AnsatzSum()) == RationalFnC(PolyC(()))
    half_euler = euler_apply(0, f_initial())
    assert y0_coefficient(half_euler) == RationalFnC(C * C_MINUS_ONE, 1)


def test_euler_on_f_closed_form():
    assert euler_apply(0, f_initial()) == AnsatzSum([(C * C_MINUS_ONE, 1, 2)])


def test_euler_on_constant_in_u():
    s = AnsatzSum([(C, 0, 0)])
    assert euler_apply(0, s) == AnsatzSum([(C * C_MINUS_ONE, 1, 0)])


def test_euler_linearity_in_shift():
    rng = Random(3)
    for _ in range(10):
        s = random_ansatz_sum(rng)
        assert euler_apply(5, s) == AnsatzSum(
            (*euler_apply(0, s), *((-5 * num, a, b) for num, a, b in s)))


def test_euler_series_equivalence_randomized():
    rng = Random(5)
    for _ in range(20):
        s = random_ansatz_sum(rng)
        r = rng.randint(0, 3)
        got = ansatz_to_series(euler_apply(r, s), 10, 6)
        want = euler_grid(r, ansatz_to_series(s, 10, 6))
        assert got == want


def test_g_apply_zero_sum():
    assert g_apply(0, AnsatzSum()) == AnsatzSum()
    assert g_apply(3, AnsatzSum()) == AnsatzSum()


def test_g_apply_first_correction():
    out = y0_coefficient(g_apply(0, f_initial()))
    assert out == RationalFnC(C * C_MINUS_ONE ** 2, 3)


def test_g_apply_chained_gives_second_order_table():
    s = g_apply(1, g_apply(0, f_initial()))
    theta = fine_structure_form(y0_coefficient(s), 2)
    assert theta == {3: Fraction(1), 4: Fraction(14), 5: Fraction(15)}


def _u_poly(pairs):
    """Sum (power of u, coefficient in c) pairs; zero coefficients dropped."""
    acc = {}
    for s, p in pairs:
        acc[s] = acc.get(s, PolyC(())) + p
    return {s: p for s, p in acc.items() if p}


def test_kernel_is_in_the_one_minus_u_basis():
    # (c-1-u) sum_j L_j (1-u)^j = (c-1)^2 (1-u)^b - u^2 (2-c)^b,
    # compared coefficientwise in u; theta --g-max 7 reaches b = 14
    for b in range(17):
        kernel = _kernel(b)
        assert len(kernel) <= b + 2  # g_apply's (1-u) exponent b+1-j >= 0
        lhs = _u_poly((s + t, f * ((-1) ** s * comb(j, s)) * lj)
                      for j, lj in enumerate(kernel)
                      for s in range(j + 1)
                      for t, f in ((0, C_MINUS_ONE), (1, -POLY_ONE)))
        rhs = _u_poly([(s, (-1) ** s * comb(b, s) * C_MINUS_ONE ** 2)
                       for s in range(b + 1)] + [(2, -TWO_MINUS_C ** b)])
        assert lhs == rhs, b


def test_g_apply_series_equivalence_randomized():
    rng = Random(9)
    x_order, y_order = 10, 5
    g_grid = g_series(x_order, y_order, x_order + 1)
    for _ in range(12):
        s = random_ansatz_sum(rng)
        k = rng.randint(0, 2)
        got = ansatz_to_series(g_apply(k, s), x_order, y_order)
        want = direct_g_apply_grid(k, s, x_order, y_order, g_grid)
        assert got == want


def test_phi_low_orders():
    assert phi(0) == RationalFnC(C)
    assert phi(1) == RationalFnC(C * C_MINUS_ONE ** 2, 3)
    with pytest.raises(ValueError):
        phi(-1)


def test_phi_round_trips_through_normal_form():
    from ppmoments import fine_structure_to_rational
    for g in (1, 2, 3):
        f = phi(g)
        assert fine_structure_to_rational(fine_structure_form(f, g), g) == f


def test_phi_fourth_order_coefficients():
    theta = fine_structure_form(phi(4), 4)
    assert theta == {5: Fraction(1), 6: Fraction(222), 7: Fraction(5820),
                     8: Fraction(42500), 9: Fraction(110670),
                     10: Fraction(118740), 11: Fraction(45045)}


def test_operator_chain_shape():
    for r in range(1, 5):
        assert chain_shape_violations(operator_chain(r), r) == []
    with pytest.raises(ValueError):
        chain_shape_violations(f_initial(), 0)


def test_chain_shape_violations_name_each_break():
    # one extra term per case on the r = 2 iterate, whose shape holds
    s = operator_chain(2)
    cases = [
        ((C, 0, 1), "term exponents (a=0, b=1) outside shape"),
        ((C, 8, 2), "term exponents (a=8, b=2) outside shape"),
        ((POLY_ONE, 0, 2), "numerator at b=2 not divisible by c(c-1)^2"),
        ((C * C_MINUS_ONE, 0, 2),  # c divides, (c-1)^2 does not
         "numerator at b=2 not divisible by c(c-1)^2"),
        ((C_MINUS_ONE ** 2, 0, 2),  # (c-1)^2 divides, c does not
         "numerator at b=2 not divisible by c(c-1)^2"),
        ((C * C * C_MINUS_ONE ** 2, 4, 5), "cofactor degree 1 exceeds 0 at b=5"),
    ]
    for extra, message in cases:
        assert chain_shape_violations(AnsatzSum((*s, extra)), 2) == [message]


def test_chain_iterates_apply_each_order_once():
    s = f_initial()
    iterates = list(chain_iterates(5))
    assert len(iterates) == 6 and iterates[0] == s
    for g, got in enumerate(iterates[1:], start=1):
        s = g_apply(g - 1, s)
        assert got == s
        assert all(type(c) is int for num, _, _ in got for c in num.coeffs)
    assert operator_chain(5) == iterates[-1]
    assert operator_chain(0) == f_initial()


def test_ansatz_to_series_zero_and_units():
    grid = ansatz_to_series(AnsatzSum(), 4, 4)
    assert all(v == 0 for row in grid for v in row)
    fgrid = ansatz_to_series(f_initial(), 4, 4)
    assert fgrid[2][0] == 1  # single length-2 balanced path
    assert fgrid[3][1] == 2  # two length-3 paths reaching height 1
    assert fgrid[0][0] == 1  # empty path


def test_f_series_matches_path_counts():
    grid = f_series(8, 8)
    for i in range(9):
        for j in range(9):
            assert grid[i][j] == enum_paths(i, 0, j)


# the asymmetric case reads F past both the x and the y order
@pytest.mark.parametrize("x_order, y_order, z_order", [(8, 8, 8), (9, 4, 7)])
def test_g_series_matches_path_counts(x_order, y_order, z_order):
    grid = g_series(x_order, y_order, z_order)
    assert len(grid) == x_order + 1
    for i in range(x_order + 1):
        assert len(grid[i]) == y_order + 1
        for j1 in range(y_order + 1):
            assert len(grid[i][j1]) == z_order + 1
            for j2 in range(z_order + 1):
                assert grid[i][j1][j2] == enum_paths(i, j1, j2)
