import random

import pytest
from hypothesis import given, settings, strategies as st

from mockingbird.sequences import GOLDEN_PREFIXES, SEQUENCE_NAMES
from mockingbird.series import (
    LazySeries,
    SeriesError,
    TruncSeries,
    interval_levels,
    polynomial,
    solve_equation,
    solve_interval_family,
    upset_size_distributions,
)
from tests_util import (
    WholeSeries,
    constant,
    hadamard,
    interval_family_recursive,
    interval_levels_literal,
    max_product,
    one,
    series_arith,
    substitute_z2,
    z,
    zero,
)


def S(*coeffs):
    return WholeSeries(tuple(coeffs))


class TestArith:
    def test_mul(self):
        assert series_arith("mul", S(1, 1, 0), S(1, 1, 0)) == S(1, 2, 1)

    def test_sub_to_zero(self):
        assert series_arith("sub", S(1, 1), S(1, 1)) == S(0, 0)

    def test_mul_truncates(self):
        assert series_arith("mul", S(0, 1), S(0, 1)) == S(0, 0)

    def test_order_mismatch(self):
        with pytest.raises(SeriesError):
            series_arith("add", S(1, 1), S(1, 1, 1))

    def test_unknown_op(self):
        with pytest.raises(SeriesError):
            series_arith("div", S(1), S(1))


class TestHadamard:
    def test_pointwise(self):
        assert hadamard(S(1, 2), S(3, 4)) == S(3, 8)

    def test_all_ones_identity(self):
        a = S(5, -2, 7)
        assert hadamard(a, S(1, 1, 1)) == a

    def test_disjoint_monomials(self):
        assert hadamard(S(0, 1, 0), S(0, 0, 1)) == S(0, 0, 0)


class TestMaxProduct:
    def test_small_expansion(self):
        assert max_product(S(1, 1), S(1, 1)) == S(1, 3)

    def test_monomial_rule(self):
        assert max_product(S(0, 1, 0), S(0, 0, 1)) == S(0, 0, 1)

    def test_zero_annihilates(self):
        assert max_product(S(3, 1, 4), zero(2)) == zero(2)

    def test_commutative_associative_random(self):
        rng = random.Random(1234)
        for _ in range(100):
            a, b, c = (S(*(rng.randint(-5, 5) for _ in range(6)))
                       for _ in range(3))
            assert max_product(a, b) == max_product(b, a)
            assert max_product(max_product(a, b), c) == \
                max_product(a, max_product(b, c))
            assert hadamard(a, b) == hadamard(b, a)
            assert hadamard(hadamard(a, b), c) == hadamard(a, hadamard(b, c))
            assert a * (b + c) == a * b + a * c


class TestSubstituteZ2:
    def test_spreads_coefficients(self):
        assert substitute_z2(S(1, 1, 1, 0, 0)) == S(1, 0, 1, 0, 1)

    def test_constant(self):
        assert substitute_z2(constant(1, 3)) == constant(1, 3)

    def test_truncates(self):
        assert substitute_z2(S(0, 1)) == S(0, 0)


def _lazy_and_whole(a, b, c):
    """Pairs of a lazy series and the whole series it must equal."""
    la, lb = polynomial(*a.coefficients), polynomial(*b.coefficients)
    s = la + lb  # keeps no coefficients, so s * s wraps it once to square
    return [
        (la, a),
        (la + lb, a + b),
        (la - lb, a - b),
        (la.scale(c), a.scale(c)),
        (la.shift(), a.shift()),
        (la * lb, a * b),
        (la * la, a * a),
        (s * s, (a + b) * (a + b)),
        (la.hadamard(lb), hadamard(a, b)),
        (la.max_product(lb), max_product(a, b)),
        (la.max_product(la), max_product(a, a)),
        (s.max_product(s), max_product(a + b, a + b)),
        (la.substitute_z2(), substitute_z2(a)),
        # products of series that keep no coefficients of their own
        (((la + lb) * lb.shift()).max_product(la.substitute_z2() - lb),
         max_product((a + b) * b.shift(), substitute_z2(a) - b)),
    ]


@st.composite
def series_cases(draw):
    order = draw(st.integers(0, 30))
    coefficients = st.lists(st.integers(-2 ** 70, 2 ** 70),
                            min_size=order + 1, max_size=order + 1)
    return (S(*draw(coefficients)), S(*draw(coefficients)),
            draw(st.integers(-9, 9)))


class TestLazy:
    @settings(max_examples=200, deadline=None)
    @given(series_cases())
    def test_coefficients_match_whole_series(self, case):
        a, b, c = case
        for lazy, whole in _lazy_and_whole(a, b, c):
            assert lazy.truncate(a.order).coefficients == whole.coefficients
        # read from the top down: each series computes what it needs
        for lazy, whole in _lazy_and_whole(a, b, c):
            top_down = [lazy[r] for r in range(a.order, -1, -1)]
            assert top_down[::-1] == list(whole.coefficients)

    def test_square_reads_each_coefficient_once(self):
        reads = []
        s = LazySeries(lambda r: reads.append(r) or r + 1)
        for square in (s * s, s.max_product(s)):
            reads.clear()
            square.truncate(6)
            assert reads == list(range(7))


class TestSolve:
    def test_motzkin_prefix(self):
        assert solve_equation("motzkin", 7).coefficients == \
            (1, 1, 1, 2, 4, 9, 21, 51)

    def test_classes_prefix(self):
        assert solve_equation("classes", 5).coefficients == \
            (1, 1, 2, 10, 170, 33490)

    def test_sizes_prefix_ladder_indexed(self):
        assert solve_equation("sizes", 5).coefficients == \
            (1, 2, 6, 42, 1806, 3263442)

    def test_min_prefix(self):
        assert solve_equation("min", 7).coefficients == \
            (1, 1, 2, 4, 12, 34, 108, 344)

    def test_edges_prefix_ladder_indexed(self):
        assert solve_equation("edges", 5).coefficients == \
            (0, 1, 7, 97, 8287, 29942737)

    def test_intervals_returns_family(self):
        assert solve_equation("intervals", 3).coefficients == (1, 3, 17, 371)
        family = solve_interval_family(3)
        assert family[2][0] == 1
        assert family[2][1] == 5  # a_2(1)

    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_every_equation_returns_a_series(self, name):
        for order in range(4):
            solution = solve_equation(name, order)
            assert isinstance(solution, TruncSeries)
            assert len(solution.coefficients) == order + 1

    def test_unknown_name(self):
        with pytest.raises(SeriesError):
            solve_equation("fibonacci", 5)


def _residual(name, f, order):
    f = WholeSeries(f.coefficients)
    o = one(order)
    zz = z(order)
    if name == "motzkin":
        return o + zz + (f * f).shift() - f.shift() - f
    if name == "min":
        return o + zz + (f * f).shift() - substitute_z2(f).shift() - f
    if name == "classes":
        return o + zz + max_product(f, f).shift() - f.shift() - f
    if name == "sizes":
        return o + f.shift() + hadamard(f, f).shift() - f
    raise AssertionError(name)


class TestResiduals:
    def test_solutions_satisfy_their_equations(self):
        order = 12
        for name in ("motzkin", "min", "classes", "sizes"):
            f = solve_equation(name, order)
            assert _residual(name, f, order) == zero(order)

    def test_edges_residual(self):
        order = 12
        g = WholeSeries(solve_equation("sizes", order).coefficients)
        f = WholeSeries(solve_equation("edges", order).coefficients)
        rhs = f.shift() + g.shift() + hadamard(f, g).scale(2).shift()
        assert rhs == f

    def test_interval_family_matches_recurrence(self):
        order = 8
        family = solve_interval_family(order)
        assert sorted(family) == list(range(1, (1 << order) + 1))
        memo = {}
        for k, series in family.items():
            for d, c in enumerate(series.coefficients):
                demanded = d == 0 or k <= 1 << (order - d)
                want = interval_family_recursive(k, d, memo) if demanded else 0
                assert c == want, (k, d)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_interval_levels_apply_the_literal_rule(self, data):
        order = data.draw(st.integers(0, 7), label="order")
        given_rows = data.draw(st.integers(1, order + 1), label="start rows")
        start = [data.draw(st.lists(st.integers(0, 9),
                                    min_size=1 << (order - d),
                                    max_size=1 << (order - d)), label=f"row {d}")
                 for d in range(given_rows)]
        assert interval_levels(order, start) == \
            interval_levels_literal(order, start)

    def test_upset_size_moments_are_the_golden_prefix(self):
        moments = [sum(m * v for v, m in dist.items())
                   for dist in upset_size_distributions(6)]
        assert moments == GOLDEN_PREFIXES["intervals"][1:]

    def test_interval_family_residual(self):
        from math import comb

        order = 6
        family = solve_interval_family(order)
        # coefficient d of F_k is reliable for k <= 2^(order - d)
        for k in (1, 2, 4):
            for d in range(1, order + 1):
                if k > 1 << (order - d):
                    continue
                lhs = family[k][d]
                rhs = family[k][d - 1] ** 2 + sum(
                    comb(k, i) * family[k + i][d - 1] for i in range(k + 1))
                assert lhs == rhs
