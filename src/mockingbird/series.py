"""Truncated power series over exact integers, and the solutions of the
six counting equations.

Five equations have the shape F = Phi(F), one entry ``name: Phi`` each in
the table ``_EQUATIONS``, where each nonconstant term of Phi carries a
factor z, so Phi is a contraction in the z-adic metric: coefficient r of
Phi(F) depends only on the coefficients of F below r.  Phi is built from
lazy series, each of which computes its coefficient r on demand and reads
only the coefficients of its operands that r needs.  One ``_fixpoint``
makes F the lazy series whose coefficient r is that of Phi(F), kept once
computed, and ``solve_equation`` reads F's coefficients 0..N in order, so
each is computed once, from coefficients already known: the lazy scheme of
van der Hoeven, "Relax, but don't be too lazy" (2002).  A product is the
naive sum over pairs, but a square F^2 reads each pair F_i F_(r-i) with
i < r - i once and doubles it, so it makes about half the big-integer
products.  The sizes and edges equations count the ladders apart from
forests.wrap_size and wrap_edges; the edges Phi reads the sizes G as zG.

The sixth, the catalytic interval family, is one level loop,
``interval_levels``, run from two sets of start rows: the recurrence of
``sequences`` gives levels 0 and 1 in closed form, and the series solver
gives levels d <= 4 as moments of the exact upset-size distributions of
the ladder upsets.  The loop's binomial sum, sum over i of C(k,i)
a_{k+i}, is coefficient 0 of T^k a for (T a)_j = a_{j+1} + a_{j+2},
because T^k = E^k (1+E)^k for the shift E: it takes additions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
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


class LazySeries:
    """A power series whose coefficient r is ``coefficient(r)``, computed
    when it is read.  The operators build new lazy series and compute
    nothing.  A product reads each coefficient of its operands many times,
    so its operands keep theirs (``_Kept``); other series keep none."""

    def __init__(self, coefficient: Callable[[int], int]):
        self.coefficient = coefficient

    def __getitem__(self, r: int) -> int:
        return self.coefficient(r)

    def truncate(self, order: int) -> TruncSeries:
        return TruncSeries(tuple(self[r] for r in range(order + 1)))

    def __add__(self, other: LazySeries) -> LazySeries:
        return LazySeries(lambda r: self[r] + other[r])

    def __sub__(self, other: LazySeries) -> LazySeries:
        return LazySeries(lambda r: self[r] - other[r])

    def scale(self, c: int) -> LazySeries:
        return LazySeries(lambda r: c * self[r])

    def shift(self) -> LazySeries:
        """Multiply by z."""
        return LazySeries(lambda r: self[r - 1] if r else 0)

    def hadamard(self, other: LazySeries) -> LazySeries:
        """Coefficientwise product."""
        return LazySeries(lambda r: self[r] * other[r])

    def substitute_z2(self) -> LazySeries:
        """Substitute z := z^2."""
        return LazySeries(lambda r: 0 if r % 2 else self[r // 2])

    def __mul__(self, other: LazySeries) -> LazySeries:
        """Cauchy product.  A square reads each pair i < r - i once and
        doubles it, plus the middle square."""
        if other is self:
            a = _kept(self)

            def coefficient(r: int) -> int:
                known = a.upto(r)
                middle = known[r // 2] ** 2 if r % 2 == 0 else 0
                return 2 * sum(map(mul, known[:(r + 1) // 2],
                                   known[r:r // 2:-1])) + middle
        else:
            a, b = _kept(self), _kept(other)

            def coefficient(r: int) -> int:
                return sum(map(mul, a.upto(r)[:r + 1], b.upto(r)[r::-1]))

        return LazySeries(coefficient)

    def max_product(self, other: LazySeries) -> LazySeries:
        """Bilinear extension of the monomial rule z^i * z^j = z^max(i,j):
        coefficient r is a_r * (sum of b below r) + b_r * (sum of a below r)
        + a_r * b_r, and a_r * (2 * (sum of a below r) + a_r) when b is a."""
        a = _kept(self)
        b = a if other is self else _kept(other)
        below = [0, 0, 0]  # n, sum of a below n, sum of b below n

        def coefficient(r: int) -> int:
            n, sum_a, sum_b = below if below[0] <= r else (0, 0, 0)
            for i in range(n, r):
                sum_a += a[i]
                sum_b += b[i]
            below[:] = r, sum_a, sum_b
            ar, br = a[r], b[r]
            if b is a:
                return ar * (2 * sum_a + ar)
            return ar * sum_b + br * sum_a + ar * br

        return LazySeries(coefficient)


class _Kept(LazySeries):
    """A lazy series that keeps its coefficients: read in any order, each
    is computed once, after all the ones below it."""

    def __init__(self, coefficient: Callable[[int], int]):
        super().__init__(coefficient)
        self.known: list[int] = []

    def __getitem__(self, r: int) -> int:
        return self.upto(r)[r]

    def upto(self, r: int) -> list[int]:
        """The coefficients computed so far, at least those up to r."""
        known = self.known
        while len(known) <= r:
            known.append(self.coefficient(len(known)))
        return known


def _kept(a: LazySeries) -> _Kept:
    """The operand of a product, whose coefficients are read many times."""
    return a if isinstance(a, _Kept) else _Kept(a.__getitem__)


def polynomial(*coefficients: int) -> LazySeries:
    """The series with these coefficients, then zeros."""
    return LazySeries(
        lambda r: coefficients[r] if r < len(coefficients) else 0)


# ---------------------------------------------------------------------------
# The six equations.
#
# All solutions are ladder-indexed: coefficient d counts the upset of the
# d-ladder (or, for motzkin/min, combinators of degree d; for classes,
# equivalence classes of height d).  The sequence layer re-exposes the
# conventional indexing.


def _fixpoint(phi: Callable[[LazySeries], LazySeries]) -> _Kept:
    """The F with F = Phi(F), keeping its coefficients."""
    f = _Kept(lambda r: equation[r])
    equation = phi(f)
    return f


def _sizes(f: LazySeries) -> LazySeries:
    return polynomial(1) + f.shift() + f.hadamard(f).shift()


def _edges(f: LazySeries) -> LazySeries:
    # zG, for G the sizes solution, is read as lazily as F
    zf, zg = f.shift(), _fixpoint(_sizes).shift()
    return zf + zg + zf.hadamard(zg).scale(2)


# Phi of each equation F = Phi(F) but the catalytic interval family.
_EQUATIONS = {
    "sizes": _sizes,
    "edges": _edges,
    "motzkin": lambda f: polynomial(1, 1) + (f * f).shift() - f.shift(),
    "min": lambda f: polynomial(1, 1) + (f * f).shift()
    - f.substitute_z2().shift(),
    "classes": lambda f: polynomial(1, 1) + f.max_product(f).shift()
    - f.shift(),
}


# Levels of the interval family filled from upset-size moments.  The
# distribution of P_4 has 52 distinct sizes, P_5 575; at orders 11 to 13,
# four levels ran faster than three or five.
_MOMENT_LEVELS = 4


def upset_size_distributions(levels: int) -> list[dict[int, int]]:
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


def interval_levels(order: int, start: list[list[int]]) -> list[list[int]]:
    """Rows 0..order of the catalytic interval family, from the first rows
    ``start``: entry k-1 of row d is a_k(d) = a_k(d-1)^2 + sum over i in
    [0..k] of C(k,i) a_{k+i}(d-1), for k up to its demand bound 2^(order-d).

    The binomial sum is (T^k a)_0 for the operator (T a)_j = a_{j+1} +
    a_{j+2} on a_j = a_j(d-1), since T^k = E^k (1+E)^k for the shift E.  So
    each row applies T once per k, by additions alone."""
    rows = list(start)
    for d in range(len(rows), order + 1):
        prev = rows[-1]
        width = 1 << (order - d)
        level = [0] + prev[:2 * width]  # level[j] = a_j(d-1); a_0 is never read
        row = []
        for a in prev[:width]:
            level = list(map(add, level[1:], level[2:]))
            row.append(a * a + level[0])
        rows.append(row)
    return rows


def solve_interval_family(order: int) -> dict[int, TruncSeries]:
    """Joint solution of the catalytic family F_k = 1 + z(F_k (.) F_k)
    + z * sum over i in [0..k] of C(k,i) F_{k+i}, for k <= 2^order.

    Coefficient d of F_k is a_k(d) = sum over x in P_d of |up x|^k, where
    P_d is the upset of the d-ladder: levels d <= 4 are these moments, and
    ``interval_levels`` fills the rest to its demand bound, past which
    coefficients stay zero."""
    dists = upset_size_distributions(min(order, _MOMENT_LEVELS))
    start = [[0] * (1 << (order - d)) for d in range(len(dists))]
    for row, dist in zip(start, dists):
        for v, m in dist.items():
            term = m
            for i in range(len(row)):
                term *= v
                row[i] += term
    padded = [row + [0] * ((1 << order) - len(row))
              for row in interval_levels(order, start)]
    return {k: TruncSeries(column) for k, column in enumerate(zip(*padded), 1)}


def solve_equation(name: str, order: int) -> TruncSeries:
    """Coefficients 0..order of the solution of the named equation: for
    ``intervals``, of F_1 of ``solve_interval_family``."""
    if order < 0:
        raise SeriesError("order must be >= 0")
    if name == "intervals":
        return solve_interval_family(order)[1]
    if name not in _EQUATIONS:
        raise SeriesError(f"unknown equation {name!r}")
    return _fixpoint(_EQUATIONS[name]).truncate(order)
