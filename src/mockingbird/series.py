"""Truncated power series over exact integers, the Hadamard and max
products, and fixpoint solving of the six counting equations.

Every equation has the shape F = Phi(F) where each nonconstant term of Phi
carries a factor z, so Phi is a contraction in the z-adic metric: coefficient
r of Phi(F) depends only on the coefficients of F below r.  Solvers run N+1
rounds of growing order: round r works at truncation order r, on a series
whose coefficients 0..r-1 are already exact, and fixes coefficient r.

The catalytic interval family is solved differently at its low levels:
coefficient d of F_k is the k-th moment of the upset sizes of the d-ladder
upset, read off their exact distribution for d <= 4; the family's fixpoint
runs only above that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TruncSeries:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise SeriesError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise SeriesError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a + b for a, b in
                                 zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a - b for a, b in
                                 zip(self.coefficients, other.coefficients)))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        a, b = self.coefficients, other.coefficients
        n = len(a)
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    out[i + j] += ai * b[j]
        return TruncSeries(tuple(out))

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries(tuple(c * a for a in self.coefficients))

    def shift(self) -> "TruncSeries":
        """Multiply by z (truncated)."""
        return TruncSeries((0,) + self.coefficients[:-1])


def constant(c: int, order: int) -> TruncSeries:
    return TruncSeries((c,) + (0,) * order)


def zero(order: int) -> TruncSeries:
    return constant(0, order)


def one(order: int) -> TruncSeries:
    return constant(1, order)


def z(order: int) -> TruncSeries:
    if order < 1:
        return zero(order)
    return TruncSeries((0, 1) + (0,) * (order - 1))


def series_arith(op: str, a: TruncSeries, b: TruncSeries) -> TruncSeries:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise SeriesError(f"unknown operation {op!r}")


def hadamard(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Coefficientwise product."""
    a._check(b)
    return TruncSeries(tuple(x * y for x, y in
                             zip(a.coefficients, b.coefficients)))


def max_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Bilinear extension of the monomial rule z^i * z^j = z^max(i,j):
    coefficient n is a_n * (sum of b below n) + b_n * (sum of a below n)
    + a_n * b_n."""
    a._check(b)
    out = []
    sum_a = 0
    sum_b = 0
    for an, bn in zip(a.coefficients, b.coefficients):
        out.append(an * sum_b + bn * sum_a + an * bn)
        sum_a += an
        sum_b += bn
    return TruncSeries(tuple(out))


def substitute_z2(a: TruncSeries) -> TruncSeries:
    """Substitute z := z^2, truncated at the same order."""
    n = a.order
    out = [0] * (n + 1)
    for i, c in enumerate(a.coefficients):
        if 2 * i > n:
            break
        out[2 * i] = c
    return TruncSeries(tuple(out))


# ---------------------------------------------------------------------------
# The six equations.
#
# All solutions are ladder-indexed: coefficient d counts the upset of the
# d-ladder (or, for motzkin/min, combinators of degree d; for classes,
# equivalence classes of height d).  The sequence layer re-exposes the
# conventional indexing.


def _fixpoint(phi: Callable[[TruncSeries], TruncSeries], order: int) -> TruncSeries:
    """Iterate F = Phi(F) from zero with round r at truncation order r.

    ``phi`` builds its constants at the order of the series it is given."""
    coefficients: tuple[int, ...] = ()
    for _ in range(order + 1):
        coefficients = phi(TruncSeries(coefficients + (0,))).coefficients
    return TruncSeries(coefficients)


def _solve_sizes(order: int) -> TruncSeries:
    return _fixpoint(
        lambda f: one(f.order) + f.shift() + hadamard(f, f).shift(), order)


def _solve_edges(order: int) -> TruncSeries:
    # every sizes term carries a factor z, so only its coefficients below
    # `order` are read
    g = _solve_sizes(max(order - 1, 0))

    def phi(f: TruncSeries) -> TruncSeries:
        zf = f.shift()
        zg = TruncSeries((0,) + g.coefficients[:f.order])
        return zf + zg + hadamard(zf, zg).scale(2)

    return _fixpoint(phi, order)


def _solve_motzkin(order: int) -> TruncSeries:
    return _fixpoint(
        lambda f: one(f.order) + z(f.order) + (f * f).shift() - f.shift(),
        order)


def _solve_min(order: int) -> TruncSeries:
    return _fixpoint(
        lambda f: one(f.order) + z(f.order) + (f * f).shift()
        - substitute_z2(f).shift(), order)


def _solve_classes(order: int) -> TruncSeries:
    return _fixpoint(
        lambda f: one(f.order) + z(f.order) + max_product(f, f).shift()
        - f.shift(), order)


# Levels of the interval family filled from upset-size moments.  The
# distribution of P_4 has 52 distinct sizes, P_5 575; at orders 11 to 13,
# four levels ran faster than three or five.
_MOMENT_LEVELS = 4


def _upset_size_distributions(levels: int) -> list[dict[int, int]]:
    """For d = 0..levels, the multiset {|up x| : x in P_d} as a map from
    size to multiplicity, where P_d is the upset of the d-ladder.

    P_d consists of w(g) and b(g g') for g, g' in P_{d-1}, with
    |up w(g)| = w_g (1 + w_g) and |up b(g g')| = w_g w_g', where w_g is
    |up g|."""
    dists = [{1: 1}]
    for _ in range(levels):
        prev = dists[-1]
        dist: dict[int, int] = {}
        for v, m in prev.items():
            dist[v * (1 + v)] = dist.get(v * (1 + v), 0) + m
            for v2, m2 in prev.items():
                dist[v * v2] = dist.get(v * v2, 0) + m * m2
        dists.append(dist)
    return dists


def solve_interval_family(order: int) -> dict[int, TruncSeries]:
    """Joint solution of the catalytic family F_k = 1 + z(F_k (.) F_k)
    + z * sum over i in [0..k] of C(k,i) F_{k+i}, for k <= 2^order.

    Coefficient d of F_k depends on coefficients d-1 of F_k .. F_{2k}, so
    level d only needs the series with k <= 2^(order - d); coefficients
    beyond that demand are never touched and stay zero.

    Coefficient d of F_k is a_k(d) = sum over x in P_d of |up x|^k, where
    P_d is the upset of the d-ladder.  Levels d <= 4 are these moments,
    summed over the exact upset-size distribution of P_d; each level above
    is one round of the family's fixpoint, from the level below.
    """
    kmax = 1 << order
    coeffs: dict[int, list[int]] = {
        k: [0] * (order + 1) for k in range(1, kmax + 1)}
    moment_levels = min(order, _MOMENT_LEVELS)
    for d, dist in enumerate(_upset_size_distributions(moment_levels)):
        limit = 1 << (order - d)
        for v, m in dist.items():
            term = m
            for k in range(1, limit + 1):
                term *= v
                coeffs[k][d] += term
    for d in range(moment_levels + 1, order + 1):
        for k in range(1, (1 << (order - d)) + 1):
            prev = coeffs[k][d - 1]
            total = prev * prev
            binom = 1  # C(k, i), updated incrementally
            for i in range(k + 1):
                total += binom * coeffs[k + i][d - 1]
                binom = binom * (k - i) // (i + 1)
            coeffs[k][d] = total
    return {k: TruncSeries(tuple(v)) for k, v in coeffs.items()}


def solve_equation(name: str, order: int):
    """Solve one of the named equations to the given truncation order.

    Returns a TruncSeries, except for ``intervals`` which returns the pair
    (F_1, family table keyed by k).
    """
    if order < 0:
        raise SeriesError("order must be >= 0")
    if name == "sizes":
        return _solve_sizes(order)
    if name == "edges":
        return _solve_edges(order)
    if name == "motzkin":
        return _solve_motzkin(order)
    if name == "min":
        return _solve_min(order)
    if name == "classes":
        return _solve_classes(order)
    if name == "intervals":
        family = solve_interval_family(order)
        return family[1], family
    raise SeriesError(f"unknown equation {name!r}")
