from fractions import Fraction
from math import comb
from random import Random

import pytest

from ppmoments.algebra import (
    POLY_C,
    PolyC,
    RationalFnC,
    fine_structure_form,
    fine_structure_to_rational,
)
from ppmoments.ansatz import (
    _F,
    AnsatzSum,
    ansatz_to_series,
    chain_iterates,
    chain_shape_violations,
    euler_apply,
    f_series,
    g_apply,
    g_series,
    operator_chain,
    phi,
    y0_coefficient,
)
from ppmoments.oracles import enum_paths

from helpers import (C_MINUS_ONE, TWO_MINUS_C, ansatz_from_c, chain_in_c,
                     chain_shape_violations_by_lifting, direct_g_apply_grid,
                     euler_grid, g_apply_by_division, kernel_by_division,
                     random_ansatz_sum, random_poly, sum_over_two_minus_c)

C = POLY_C
ONE = PolyC((1,))


def test_f_initial_is_single_term():
    # c/(1-u) is (1+2t)/((1+t)(1-u)) in t
    assert len(_F) == 1
    assert (_F.polys, _F.e) == (((1, (1, 2)),), 1)
    assert tuple(_F) == ((C, 0, 1),)
    assert _F == ansatz_from_c([(C, 0, 1)])


def test_ansatz_sum_canonicalization():
    # sum the terms at each b, drop zeros, reduce numerator factors of (2-c)
    s = ansatz_from_c([(C, 1, 1), (-C, 1, 1)])
    assert not s and (s.polys, s.e) == ((), 0)
    merged = ansatz_from_c([(C, 1, 1), (C, 1, 1)])
    assert tuple(merged) == ((2 * C, 1, 1),)
    reduced = ansatz_from_c([(TWO_MINUS_C * C, 1, 1)])
    assert reduced == ansatz_from_c([(C, 0, 1)])
    # in t: 1+t is divided out while it divides every P_b, and trailing
    # zeros and zero P_b are dropped
    assert AnsatzSum({1: (1, 2, 1, 0), 3: (-1, -1)}, 2) == \
        AnsatzSum({1: (1, 1), 3: (-1,)}, 1)
    assert AnsatzSum({0: (), 1: (1, 2)}, 1) == _F
    assert AnsatzSum({0: (0, 0)}, 3) == AnsatzSum()
    for polys, e in (({0: (1,)}, -1), ({-1: (1,)}, 0)):
        with pytest.raises(ValueError, match="nonnegative"):
            AnsatzSum(polys, e)


def test_equal_functions_compare_equal():
    # c/(2-c) - 1 = (2c-2)/(2-c): one function, one stored term at b = 1
    assert ansatz_from_c([(C, 1, 1), (-1, 0, 1)]) == \
        ansatz_from_c([(2 * C - 2, 1, 1)])


def test_chain_iterates_are_the_closed_shape():
    # iterate r holds the paper's 2r terms, at (a, b) = (4r-1-i, 2+i)
    for r, s in enumerate(chain_iterates(8)):
        if r:
            assert len(s) == 2 * r
            assert sorted((b, a) for _, a, b in s) == \
                [(2 + i, 4 * r - 1 - i) for i in range(2 * r)]


def test_ansatz_serialization():
    assert _F.to_json() == [{"num": ["0", "1"], "a": 0, "b": 1}]


def test_y0_coefficient_examples():
    assert y0_coefficient(ansatz_from_c([(C, 0, 5)])) == RationalFnC(C)
    assert y0_coefficient(_F) == RationalFnC(C)
    assert y0_coefficient(AnsatzSum()) == RationalFnC(PolyC(()))
    half_euler = euler_apply(0, _F)
    assert y0_coefficient(half_euler) == RationalFnC(C * C_MINUS_ONE, 1)


def test_euler_on_f_closed_form():
    assert euler_apply(0, _F) == ansatz_from_c([(C * C_MINUS_ONE, 1, 2)])


def test_euler_on_constant_in_u():
    s = ansatz_from_c([(C, 0, 0)])
    assert euler_apply(0, s) == ansatz_from_c([(C * C_MINUS_ONE, 1, 0)])


def test_euler_linearity_in_shift():
    rng = Random(3)
    for _ in range(10):
        s = random_ansatz_sum(rng)
        assert euler_apply(5, s) == ansatz_from_c(
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
    out = y0_coefficient(g_apply(0, _F))
    assert out == RationalFnC(C * C_MINUS_ONE ** 2, 3)


def test_g_apply_chained_gives_second_order_table():
    s = g_apply(1, g_apply(0, _F))
    theta = fine_structure_form(y0_coefficient(s), 2)
    assert theta == {3: Fraction(1), 4: Fraction(14), 5: Fraction(15)}


def _closed_form_kernel(b):
    """Numerators L_j of K = sum_j L_j (1-u)^j as g_apply sums them:
    (c-1)^2 (2-c)^(b-1-j) at j < b, plus c (2-c)^b at j = 0 and
    -(2-c)^b at j = 1."""
    w = [TWO_MINUS_C ** i for i in range(b + 1)]
    kernel = [C_MINUS_ONE ** 2 * w[b - 1 - j] for j in range(b)]
    kernel += [PolyC(())] * (2 - b)
    kernel[0] += C * w[b]
    kernel[1] -= w[b]
    return kernel


def _times_x_minus_u(coeffs, x):
    """Multiply coefficients in u, low to high, by x - u."""
    zero = PolyC(())
    return [x * p - q for p, q in zip(coeffs + [zero], [zero] + coeffs)]


def test_kernel_is_in_the_one_minus_u_basis():
    # (c-1-u) sum_j L_j (1-u)^j = (c-1)^2 (1-u)^b - u^2 (2-c)^b,
    # compared coefficientwise in u
    for b in range(41):
        kernel = _closed_form_kernel(b)
        assert tuple(kernel) == kernel_by_division(b), b
        in_u = [kernel[-1]]  # Horner's rule in 1-u
        for lj in reversed(kernel[:-1]):
            in_u = _times_x_minus_u(in_u, ONE)
            in_u[0] += lj
        rhs = [(-1) ** s * comb(b, s) * C_MINUS_ONE ** 2
               for s in range(max(b + 1, 3))]
        rhs[2] -= TWO_MINUS_C ** b
        assert _times_x_minus_u(in_u, C_MINUS_ONE) == rhs, b


def test_g_apply_matches_the_division_reference():
    rng = Random(26)
    for _ in range(300):
        s = random_ansatz_sum(rng, max_b=6)
        k = rng.randint(0, 5)
        assert g_apply(k, s) == g_apply_by_division(k, s)
    iterates = list(chain_iterates(12))
    for g in range(1, 13):
        assert g_apply_by_division(g - 1, iterates[g - 1]) == iterates[g], g


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
        chain_shape_violations(_F, 0)


def test_chain_shape_violations_name_each_break():
    # one extra term per case on the r = 2 iterate, whose shape holds
    s = operator_chain(2)
    cases = [
        ((C, 0, 1), "term exponents (a=0, b=1) outside shape"),
        ((C, 8, 2), "term exponents (a=8, b=2) outside shape"),
        ((ONE, 0, 2), "numerator at b=2 not divisible by c(c-1)^2"),
        ((C * C_MINUS_ONE, 0, 2),  # c divides, (c-1)^2 does not
         "numerator at b=2 not divisible by c(c-1)^2"),
        ((C_MINUS_ONE ** 2, 0, 2),  # (c-1)^2 divides, c does not
         "numerator at b=2 not divisible by c(c-1)^2"),
        ((C * C * C_MINUS_ONE ** 2, 4, 5), "cofactor degree 1 exceeds 0 at b=5"),
        # cancels the stored 3c(c-1)^2 at (a=4, b=5) and leaves
        # c(c-1)^2/(2-c)^2: within degree as it stands, but the lift by
        # (2-c)^2 to the shape's a = 4 gives the cofactor (2-c)^2
        ((C * C_MINUS_ONE ** 2 * (TWO_MINUS_C ** 2 - 3), 4, 5),
         "cofactor degree 2 exceeds 0 at b=5"),
    ]
    for extra, message in cases:
        assert chain_shape_violations(ansatz_from_c((*s, extra)), 2) == \
            [message]


def _perturbed(rng, s, g):
    # s with one term replaced by a lower-a one, or one random term added
    terms = tuple(s)
    num, a, b = rng.choice(terms)
    k = rng.randint(1, min(a, 3))
    lower = C * C_MINUS_ONE ** rng.randint(g - 1, g) * random_poly(rng, 2 * g)
    yield ansatz_from_c((*terms, (lower * TWO_MINUS_C ** k - num, a, b)))
    yield ansatz_from_c((*terms, (random_poly(rng), rng.randint(0, 4 * g),
                                  rng.randint(0, 2 * g + 2))))


def test_sum_and_shape_check_match_lifting_on_the_chain():
    # the sum in t, turned into c once, is the reference sum in c
    rng = Random(59)
    iterates = list(chain_iterates(12))
    for g, s in enumerate(iterates):
        terms = (*s, *iterates[min(g + 1, 12)])
        assert y0_coefficient(ansatz_from_c(terms)) == RationalFnC(
            *sum_over_two_minus_c((num, a) for num, a, _ in terms))
        if not g:
            continue
        assert chain_shape_violations(s, g) == []
        assert chain_shape_violations_by_lifting(s, g) == []
        for _ in range(4):
            for t in _perturbed(rng, s, g):
                assert chain_shape_violations(t, g) == \
                    chain_shape_violations_by_lifting(t, g)


def test_chain_in_t_matches_the_reference_chain_in_c():
    # every iterate reports the reduced c terms the chain in c computes
    for g, (s, ref) in enumerate(zip(chain_iterates(12), chain_in_c(12))):
        assert s.to_json() == [{"num": num.to_json(), "a": a, "b": b}
                               for num, a, b in ref], g


def test_chain_iterates_apply_each_order_once():
    s = _F
    iterates = list(chain_iterates(5))
    assert len(iterates) == 6 and iterates[0] == s
    for g, got in enumerate(iterates[1:], start=1):
        s = g_apply(g - 1, s)
        assert got == s
        assert all(type(c) is int for num, _, _ in got for c in num.coeffs)
        assert got.e == 0
        assert all(type(c) is int for _, p in got.polys for c in p)
    assert operator_chain(5) == iterates[-1]
    assert operator_chain(0) == _F


def test_ansatz_to_series_zero_and_units():
    grid = ansatz_to_series(AnsatzSum(), 4, 4)
    assert all(v == 0 for row in grid for v in row)
    fgrid = ansatz_to_series(_F, 4, 4)
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
