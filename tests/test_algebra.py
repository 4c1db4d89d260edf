from random import Random

import pytest

from ppmoments import (
    NotFineStructure,
    Partition,
    PolyC,
    RationalFnC,
    SeriesX,
    catalan_number,
    catalan_series,
    chain_iterates,
    expand_in_x,
    fine_structure_form,
    fine_structure_to_rational,
    moment_polynomials,
    theta_support_window,
    transition_measure,
    y0_coefficient,
)
from ppmoments.algebra import (
    C_MINUS_ONE,
    POLY_C,
    POLY_ONE,
    TWO_MINUS_C,
    divide_out_root,
    sum_over_two_minus_c,
    theta_from_rows,
)
from ppmoments.cli import REFERENCE_THETA, _rook_column, run_sample

from helpers import sum_over_two_minus_c_by_lifting

C = POLY_C
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_rationals_are_canonical():
    # the package renders an exact rational reduced, as "p/q" or "p"
    assert run_sample(2, 3, 1)["results"][0]["predicted"] == "37/4"
    assert run_sample(2, 1, 1)["results"][0]["predicted"] == "1"
    tm = transition_measure(Partition((2,)), 1)
    assert tm.atoms == (2, -1)
    assert tm.to_json()["weights"] == ["1/3", "2/3"]
    tm = transition_measure(Partition((2, 1)), 4)
    assert tm.to_json()["weights"] == ["3/8", "1/4", "3/8"]  # 2/8 reduced


def test_poly_construction_trims_and_indexes():
    p = PolyC((1, 2, 0, 0))
    assert p.degree == 1 and p.coeffs == (1, 2)
    assert p[0] == 1 and p[5] == 0
    assert not PolyC((0, 0))
    assert PolyC(()).degree == -1
    # equality is within one class, so equal values hash equally
    assert PolyC((5,)) != 5 and {PolyC((5,)): 1}.get(5) is None
    assert PolyC((5, 0)) == PolyC((5,))
    assert hash(PolyC((5, 0))) == hash(PolyC((5,)))
    assert SeriesX(2, (1,)) != SeriesX(3, (1,))
    assert SeriesX(2, (1, 0, 0, 0)) == SeriesX(2, (1,))
    assert hash(SeriesX(2, (1, 0, 0, 0))) == hash(SeriesX(2, (1,)))


def test_poly_ring_laws_randomized():
    rng = Random(7)

    def rand_poly():
        return PolyC(rng.randint(-5, 5) for _ in range(rng.randint(0, 5)))

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == PolyC(())


def test_divide_out_root():
    rng = Random(11)
    for root in (-1, 0, 1, 2):
        factor = PolyC((-root, 1))  # c - root
        for _ in range(30):
            core = PolyC(rng.randint(-4, 4) for _ in range(rng.randint(1, 6)))
            if not sum(c * root ** i for i, c in enumerate(core.coeffs)):
                continue  # core(root) = 0: c - root divides the core
            j = rng.randint(0, 4)
            p = core * factor ** j
            q, got = divide_out_root(p, root, j + 2)
            assert (q, got) == (core, j)
            assert all(type(c) is int for c in q.coeffs)
            if j:
                q, got = divide_out_root(p, root, j - 1)  # stops at most
                assert (q, got) == (core * factor, j - 1)
    assert divide_out_root(PolyC(()), 2, 3) == (PolyC(()), 3)


def test_integral_coefficients_are_ints():
    p, q = PolyC((3, -1, 4)), PolyC((2, 0, -5, 1))
    for r in (p + q, p - q, p * q, 3 * p, p ** 3, p.derivative()):
        assert all(type(c) is int for c in r.coeffs), r
    s = SeriesX(6, (1, 2, 3))
    for r in (s + s, s * s, 2 - s, s.inverse(), s ** 3, s.derivative(),
              (-s).inverse()):
        assert all(type(c) is int for c in r.coeffs), r
    assert (-s).inverse() == -s.inverse()


def test_pipeline_coefficients_are_ints():
    values = []
    for g, s in enumerate(chain_iterates(6)):
        for num, _, _ in s:
            values += num.coeffs
        if g:
            f = y0_coefficient(s)
            values += f.num.coeffs
            values += fine_structure_form(f, g).values()
            values += expand_in_x(f, 20).coeffs
    assert values and all(type(v) is int for v in values)


def test_non_unit_divisors_raise():
    with pytest.raises(ValueError, match="constant term"):
        SeriesX(4, (2, 1)).inverse()


def test_two_minus_c_reduction_is_canonical():
    rng = Random(29)
    for _ in range(30):
        core = PolyC(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
        if not core:
            continue
        j, a = rng.randint(0, 3), rng.randint(0, 5)
        num = core * TWO_MINUS_C ** j
        f = RationalFnC(num, a)
        assert f.a <= a
        assert f.num * TWO_MINUS_C ** (a - f.a) == num  # the same function
        # c - 2 is the only factor of (2-c)^a, so this is coprimality
        assert f.a == 0 or divide_out_root(f.num, 2, 1)[1] == 0
        assert f == RationalFnC(f.num, f.a)
        # reports render it over the monic (c-2)^a
        shown = f.to_json()
        rn, rd = PolyC(map(int, shown["num"])), PolyC(map(int, shown["den"]))
        assert rd.coeffs[-1] == 1 and rd.degree == f.a
        assert rn * TWO_MINUS_C ** f.a == f.num * rd
    assert RationalFnC(PolyC(()), 3) == RationalFnC(PolyC(()))


def test_sum_over_two_minus_c():
    rng = Random(31)
    for _ in range(40):
        pairs = [(PolyC(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
                  * TWO_MINUS_C ** rng.randint(0, 2), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 5))]
        num, a = sum_over_two_minus_c(pairs)
        top = max(ai for _, ai in pairs)
        assert num * TWO_MINUS_C ** (top - a) == sum(
            (n * TWO_MINUS_C ** (top - ai) for n, ai in pairs), PolyC(()))
        assert a == 0 or divide_out_root(num, 2, 1)[1] == 0
        assert all(type(c) is int for c in num.coeffs)
    assert sum_over_two_minus_c([]) == (PolyC(()), 0)
    assert sum_over_two_minus_c([(C, 3), (-C, 3)]) == (PolyC(()), 0)
    assert sum_over_two_minus_c([(2 * POLY_ONE, 2), (-C, 2)]) == (POLY_ONE, 1)


def _random_pairs(rng, n, a_max=6):
    # pairs (num, a) in no order, a repeated, some num divisible by 2-c
    return [(PolyC(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
             * TWO_MINUS_C ** rng.randint(0, 2), rng.randint(0, a_max))
            for _ in range(n)]


def test_sum_over_two_minus_c_matches_lifting():
    rng = Random(47)
    for _ in range(60):
        pairs = _random_pairs(rng, rng.randint(1, 8))
        negated = [(-num, a) for num, a in pairs]
        # the same fractions again, one power of 2-c higher up
        raised = [(-num * TWO_MINUS_C, a + 1) for num, a in pairs]
        high = [(num, a + 8) for num, a in _random_pairs(rng, 3)]
        for case in (
            pairs,
            pairs + high + negated,  # zero before the first high a
            high + raised + pairs,  # zero before the high a, each a moved
            rng.sample(pairs + negated, 2 * len(pairs)),  # zero in full
            raised + pairs,  # zero in full, at a different a than it began
        ):
            assert sum_over_two_minus_c(case) == \
                sum_over_two_minus_c_by_lifting(case)
    assert sum_over_two_minus_c([]) == sum_over_two_minus_c_by_lifting([]) \
        == (PolyC(()), 0)


def test_sum_over_two_minus_c_forms_no_power(monkeypatch):
    # Horner's rule lifts by the two-term 2-c alone, never by a power
    pairs = [(PolyC((a + 1, -a, 1)), a) for a in (6, 0, 3, 1, 5, 2, 4)]
    expected = sum_over_two_minus_c_by_lifting(pairs)

    def no_power(self, n):
        raise AssertionError(f"a polynomial was raised to the power {n}")

    monkeypatch.setattr(PolyC, "__pow__", no_power)
    assert sum_over_two_minus_c(pairs) == expected


def test_poly_derivative_and_eval():
    p = PolyC((3, 0, 1))  # 3 + c^2
    assert p.derivative() == PolyC((0, 2))
    assert p.eval_series(SeriesX(3, (0, 1))) == SeriesX(3, (3, 0, 1))
    assert p ** 0 == POLY_ONE
    assert (C + 1) ** 2 == PolyC((1, 2, 1))


def test_rational_fn_canonical_form():
    f = RationalFnC(C * TWO_MINUS_C, 2)
    assert f == RationalFnC(C, 1)
    assert (f.num, f.a) == (C, 1)
    zero = RationalFnC(PolyC(()), 2)
    assert (zero.num, zero.a) == (PolyC(()), 0)
    # reports render over the monic (c-2)^a, flipping num's sign for odd a
    for h in (f, RationalFnC(C, 1)):
        assert h.to_json() == {"num": ["0", "-1"], "den": ["-2", "1"]}
        assert repr(h) == "(-c) / (-2 + c)"
    assert RationalFnC(C, 2).to_json() == {"num": ["0", "1"],
                                           "den": ["4", "-4", "1"]}
    assert repr(RationalFnC(C, 0)) == "c"
    with pytest.raises(ValueError):
        RationalFnC(C, -1)


def test_series_truncation_semantics():
    s = SeriesX(4, (1, 2, 3))
    assert s.coeffs == (1, 2, 3, 0, 0)
    assert s.coefficient(4) == 0
    with pytest.raises(IndexError):
        s.coefficient(5)
    t = SeriesX(2, (1, 1, 1))
    assert (s * t).order == 2
    assert (s + t).order == 2
    # each operation is the polynomial one cut at the smaller order
    rng = Random(13)

    def rand_poly():
        return PolyC(rng.randint(-5, 5) for _ in range(rng.randint(0, 7)))

    for _ in range(60):
        p, q, k = rand_poly(), rand_poly(), rng.randint(0, 4)
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        sp, sq = SeriesX(n, p.coeffs), SeriesX(n, q.coeffs)
        assert sp + sq == SeriesX(n, (p + q).coeffs)
        assert sp - sq == SeriesX(n, (p - q).coeffs)
        assert sp * sq == SeriesX(n, (p * q).coeffs)
        assert sp ** k == SeriesX(n, (p ** k).coeffs)
        assert k - sp * k == SeriesX(n, (k - p * k).coeffs)
        lo, sm = min(n, m), SeriesX(m, q.coeffs)
        for got, exact in ((sp + sm, p + q), (sm - sp, q - p),
                           (sp * sm, p * q), (sm * sp, p * q)):
            assert got.order == lo and got == SeriesX(lo, exact.coeffs)


def test_series_inverse_division_pow():
    s = SeriesX(6, (1, 1))
    inv = s.inverse()
    assert (s * inv).coeffs == (1, 0, 0, 0, 0, 0, 0)
    assert inv.coeffs == (1, -1, 1, -1, 1, -1, 1)
    with pytest.raises(ZeroDivisionError):
        SeriesX(3, (0, 1)).inverse()
    assert (s ** 3).coeffs == (1, 3, 3, 1, 0, 0, 0)
    assert s.derivative().coeffs == (1, 0, 0, 0, 0, 0)


def test_catalan_series_values():
    assert list(catalan_series(10)) == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    assert list(catalan_series(0)) == [1]
    assert [catalan_number(k) for k in range(11)] == CATALAN


def test_catalan_quadratic_identity():
    for order in (0, 1, 10, 17):
        s = catalan_series(order)
        x2 = SeriesX(order, (0, 0, 1))
        assert s == 1 + x2 * s * s


def test_catalan_derivative_identity():
    for order in (3, 8, 12):
        a = SeriesX(order, (catalan_number(i) for i in range(order + 1)))
        lhs = a.derivative() * (2 - a)
        cube = a * a * a
        assert lhs == SeriesX(order - 1, cube.coeffs[:order])


def test_expand_in_x_basics():
    assert expand_in_x(RationalFnC(C), 10) == catalan_series(10)
    assert list(expand_in_x(RationalFnC(POLY_ONE), 5)) == [1, 0, 0, 0, 0, 0]


def test_expand_in_x_first_correction_matches_rook_counts():
    f = RationalFnC(C * C_MINUS_ONE ** 2, 3)
    # frozen from the rook oracle: one placement at semilength 2, eight at 3
    rows = moment_polynomials(3)
    assert rows[1].get(1, 0) == 1 and rows[2].get(1, 0) == 8
    assert list(expand_in_x(f, 6)) == [0, 0, 0, 0, 1, 0, 8]


def test_expand_in_x_is_ring_homomorphism():
    rng = Random(17)
    for _ in range(15):
        num1 = PolyC(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
        num2 = PolyC(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
        a1, a2 = rng.randint(0, 2), rng.randint(0, 2)
        f, h = RationalFnC(num1, a1), RationalFnC(num2, a2)
        product = RationalFnC(num1 * num2, a1 + a2)
        total = RationalFnC(num1 * TWO_MINUS_C ** a2 + num2 * TWO_MINUS_C ** a1,
                            a1 + a2)
        order = 9
        assert expand_in_x(product, order) == expand_in_x(f, order) * expand_in_x(h, order)
        assert expand_in_x(total, order) == expand_in_x(f, order) + expand_in_x(h, order)


def test_fine_structure_form_basics():
    f = RationalFnC(C * C_MINUS_ONE ** 2, 3)
    assert fine_structure_form(f, 1) == {2: 1}
    assert fine_structure_form(RationalFnC(PolyC(())), 3) == {}
    with pytest.raises(ValueError):
        fine_structure_form(f, 0)


def test_fine_structure_form_rejects_non_polynomial():
    with pytest.raises(NotFineStructure):
        fine_structure_form(RationalFnC(POLY_ONE), 1)
    with pytest.raises(NotFineStructure):  # c divides, but deg 3 > a - g
        fine_structure_form(RationalFnC(POLY_C * C_MINUS_ONE ** 3, 2), 1)


def test_fine_structure_round_trip_randomized():
    rng = Random(23)
    for _ in range(25):
        g = rng.randint(1, 4)
        lo, hi = theta_support_window(g)
        theta = {k: rng.randint(-6, 6) for k in range(lo, hi + 1)}
        f = fine_structure_to_rational(theta, g)
        back = fine_structure_form(f, g)
        assert back == {k: v for k, v in theta.items() if v}
        assert fine_structure_to_rational(back, g) == f


def test_fine_structure_form_drops_zeros():
    f = fine_structure_to_rational({3: 1, 4: 0, 5: -2}, 2)
    assert fine_structure_to_rational({3: 1, 5: -2}, 2) == f
    assert fine_structure_form(f, 2) == {3: 1, 5: -2}


def test_fine_structure_to_rational_rejects_negative_powers():
    with pytest.raises(ValueError):
        fine_structure_to_rational({-1: 1, 2: 1}, 1)
    assert fine_structure_to_rational({2: 0}, 1) == RationalFnC(PolyC(()))


def test_theta_from_rows_matches_the_operator_chain():
    # the rows route and the chain's closed forms give the same table
    rows = moment_polynomials(3 * 15 + 2)
    for g, s in enumerate(chain_iterates(15)):
        if g:
            want = fine_structure_form(y0_coefficient(s), g)
            assert theta_from_rows(_rook_column(rows, g), g) == want, g


def test_theta_from_rows_round_trip_randomized():
    # any table in the window, expanded in y = x^2, solves back to itself
    rng = Random(29)
    for _ in range(12):
        g = rng.randint(1, 5)
        lo, hi = theta_support_window(g)
        theta = {k: rng.randint(-9, 9) for k in range(lo, hi + 1)}
        series = expand_in_x(fine_structure_to_rational(theta, g), 6 * g + 4)
        column = [series.coefficient(2 * k) for k in range(3 * g + 3)]
        assert theta_from_rows(column, g) == {k: v for k, v in theta.items()
                                              if v}


def test_theta_from_rows_checks_the_residual_rows():
    rows = moment_polynomials(3 * 6 + 2)
    for g in range(1, 7):
        column = _rook_column(rows, g)
        if g in REFERENCE_THETA:  # rows past 3g+2 are not read
            assert theta_from_rows(column + [1, 2, 3], g) == REFERENCE_THETA[g]
        for k in range(3 * g, 3 * g + 3):
            bad = list(column)
            bad[k] += 1
            with pytest.raises(NotFineStructure):
                theta_from_rows(bad, g)
    with pytest.raises(ValueError):
        theta_from_rows(_rook_column(rows, 2)[:8], 2)  # rows k <= 8 needed
    with pytest.raises(ValueError):
        theta_from_rows([0] * 10, 0)


def test_theta_support_window():
    assert theta_support_window(1) == (2, 2)
    assert theta_support_window(4) == (5, 11)
