"""Shared helpers for the test suite, and reference implementations that
the library's code is compared against: the recursive term parser, the
rewrite step on Term objects with its substitution, pattern matching and
full rendering, the forest step on nested tuples, the M step by redex
paths, the recursive fr, the combinators of a degree built as terms, the
whole-series operators on truncated series, and the recursive catalytic
interval rule."""

from dataclasses import dataclass
from math import comb

from mockingbird import sequences
from mockingbird.forests import BLACK, EMPTY, WHITE
from mockingbird.posets import explore
from mockingbird.series import SeriesError, TruncSeries
from mockingbird.terms import (
    Application,
    Basic,
    Term,
    TermError,
    TermParseError,
    Variable,
    app,
    basic,
    var,
)

_M = basic("M")


def random_m_term(rng, degree, variables=0):
    """A uniform-ish random binary tree with the given number of
    applications; its leaves are M, or with `variables` > 0 drawn
    uniformly from M, x1, ..., x<variables>."""
    if degree == 0:
        if variables:
            index = rng.randint(0, variables)
            return var(index) if index else _M
        return _M
    left_degree = rng.randint(0, degree - 1)
    return app(random_m_term(rng, left_degree, variables),
               random_m_term(rng, degree - 1 - left_degree, variables))


def all_combinators_nested(degree):
    """All binary application trees with the given number of applications
    over the single leaf M, built as terms level by level: the reference
    for the order of ``oracle.all_combinators``."""
    levels = [[_M]]
    for d in range(1, degree + 1):
        levels.append([
            app(left, right)
            for i in range(d)
            for left in levels[i]
            for right in levels[d - 1 - i]
        ])
    return levels[degree]


@dataclass(frozen=True)
class TermMetrics:
    degree: int
    height: int


def term_metrics(t: Term) -> TermMetrics:
    """Degree = number of application nodes, height = maximal leaf depth."""
    return TermMetrics(degree=t.degree, height=t.height)


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for step in path:
        if not isinstance(t, Application):
            raise TermError("path goes below a leaf")
        t = t.left if step == 0 else t.right
    return t


# ---------------------------------------------------------------------------
# The term parser by recursive descent


def forbid_sequence_solvers(monkeypatch):
    """Make every solver behind the sequence methods fail if it is called:
    the recurrences, the series fixpoint and both oracle entry points."""
    def fail(*args, **kwargs):
        raise AssertionError("a sequence solver ran")

    for name in sequences._LADDER_RECURRENCES:
        monkeypatch.setitem(sequences._LADDER_RECURRENCES, name, fail)
    monkeypatch.setattr(sequences.serieslib, "solve_equation", fail)
    monkeypatch.setattr(sequences, "oracle_poset_counts", fail)
    monkeypatch.setattr(sequences, "oracle_extremal_census", fail)


def parse_term_recursive(text, alphabet):
    """The term parser as a recursive descent over the grammar in
    ``terms``: the reference for the one-pass ``parse_term``."""
    names = sorted(alphabet, key=len, reverse=True)
    for name in names:
        if not name or not name[0].isupper():
            raise TermError(f"invalid combinator name in alphabet: {name!r}")
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= n:
            return None
        c = text[pos]
        if c == "(":
            open_pos = pos
            pos += 1
            inner = parse_seq()
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise TermParseError("unbalanced parenthesis", open_pos)
            pos += 1
            return inner
        if c == "x":
            start = pos
            pos += 1
            digits = ""
            while pos < n and "0" <= text[pos] <= "9":
                digits += text[pos]
                pos += 1
            if not digits:
                raise TermParseError("expected digits after 'x'", start)
            index = int(digits)
            if index == 0:
                raise TermParseError("variable index 0 is not allowed", start)
            return var(index)
        if c.isupper():
            for name in names:
                if text.startswith(name, pos):
                    pos += len(name)
                    return basic(name)
            raise TermParseError(f"unknown combinator starting with {c!r}", pos)
        if c == ")":
            return None
        raise TermParseError(f"unexpected character {c!r}", pos)

    def parse_seq():
        nonlocal pos
        first = parse_atom()
        if first is None:
            raise TermParseError("expected a term", pos)
        result = first
        while True:
            mark = pos
            nxt = parse_atom()
            if nxt is None:
                pos = mark
                return result
            result = app(result, nxt)

    result = parse_seq()
    skip_ws()
    if pos != n:
        raise TermParseError("trailing input", pos)
    return result


# ---------------------------------------------------------------------------
# The rewrite step on Term objects, by recursion over the term


def render_full(t):
    """Every application parenthesized and spaced: ``((M M) M)``."""
    if isinstance(t, Application):
        return f"({render_full(t.left)} {render_full(t.right)})"
    return str(t)


def compose(t, args):
    """Replace every x_i (i <= len(args)) in t by args[i-1], simultaneously."""
    if isinstance(t, Variable):
        if t.index <= len(args):
            return args[t.index - 1]
        return t
    if isinstance(t, Basic):
        return t
    left = compose(t.left, args)
    right = compose(t.right, args)
    if left is t.left and right is t.right:
        return t
    return app(left, right)


def match_pattern(pattern, subject, bindings):
    """Match pattern against subject at the root, extending bindings.
    Repeated pattern variables must bind equal subterms."""
    if isinstance(pattern, Variable):
        bound = bindings.get(pattern.index)
        if bound is None:
            bindings[pattern.index] = subject
            return True
        return bound == subject
    if isinstance(pattern, Basic):
        return pattern == subject
    if not isinstance(subject, Application):
        return False
    mark = dict(bindings)
    if match_pattern(pattern.left, subject.left, bindings) and \
            match_pattern(pattern.right, subject.right, bindings):
        return True
    bindings.clear()
    bindings.update(mark)
    return False


def replace_at(t, path, replacement):
    if not path:
        return replacement
    if not isinstance(t, Application):
        raise TermError("path goes below a leaf")
    if path[0] == 0:
        return app(replace_at(t.left, path[1:], replacement), t.right)
    return app(t.left, replace_at(t.right, path[1:], replacement))


def _spine(t):
    """Decompose t as head applied to a list of arguments (left spine)."""
    args = []
    while isinstance(t, Application):
        args.append(t.right)
        t = t.left
    args.reverse()
    return t, args


def successor_list(system, t):
    """One-step rewrites of t: the redex at the root, then those in the
    left and in the right subterm."""
    if not isinstance(t, Application):
        return []
    out = []
    head, args = _spine(t)
    if isinstance(head, Basic) and system.rules[head.name].order == len(args):
        out.append(compose(system.rules[head.name].rhs, args))
    for left2 in successor_list(system, t.left):
        out.append(app(left2, t.right))
    for right2 in successor_list(system, t.right):
        out.append(app(t.left, right2))
    return out


def subterm_paths(t, path=()):
    """(path, subterm) pairs in pre-order; path entries are 0 (left) or 1
    (right)."""
    yield path, t
    if isinstance(t, Application):
        yield from subterm_paths(t.left, path + (0,))
        yield from subterm_paths(t.right, path + (1,))


def predecessor_set(system, t):
    """All s with s => t, by matching each rhs against every subterm of t
    (for systems whose right-hand sides mention every variable)."""
    out = set()
    for path, u in subterm_paths(t):
        for name, rule in system.rules.items():
            bindings = {}
            if match_pattern(rule.rhs, u, bindings):
                redex = basic(name)
                for i in range(1, rule.order + 1):
                    redex = app(redex, bindings[i])
                out.add(replace_at(t, path, redex))
    return out


def explore_reference(system, t, direction, budget):
    """explore_component by the Term step, nodes sorted by render_full."""
    predecessors = None
    if direction == "class":
        predecessors = lambda u: predecessor_set(system, u)
    return explore(t, lambda u: successor_list(system, u), budget=budget,
                   sort_key=render_full, predecessors=predecessors)


# ---------------------------------------------------------------------------
# The duplication step on nested tuples


def _tree_successors(t):
    color, children = t
    if color == WHITE:
        yield (BLACK, children + children)
    for g in _forest_successors(children):
        yield (color, g)


def _forest_successors(f):
    for i, t in enumerate(f):
        for t2 in _tree_successors(t):
            yield f[:i] + (t2,) + f[i + 1:]


def forest_step_successors(f):
    """One result per white node: recolor it black and duplicate its child
    forest in place (g becomes g followed by a copy of g)."""
    return set(_forest_successors(f))


# ---------------------------------------------------------------------------
# The term side of fr, on Term objects


def fr_map_recursive(t):
    """Forest translation of a term over {M}, by structural recursion."""
    if isinstance(t, Variable):
        return EMPTY
    if isinstance(t, Basic):
        if t.name != "M":
            raise TermError(f"foreign combinator {t.name} (alphabet is {{M}})")
        return EMPTY
    left, right = t.left, t.right
    if isinstance(left, Application):
        return fr_map_recursive(left) + fr_map_recursive(right)
    if isinstance(left, Variable):
        return fr_map_recursive(right)
    if left.name != "M":
        raise TermError(f"foreign combinator {left.name} (alphabet is {{M}})")
    if isinstance(right, Application):
        return ((WHITE, fr_map_recursive(right)),)
    if isinstance(right, Basic) and right.name != "M":
        raise TermError(f"foreign combinator {right.name} (alphabet is {{M}})")
    if isinstance(right, Variable):
        return ((WHITE, EMPTY),)
    return EMPTY  # M M


def progressing_redexes(t):
    """Paths of the subterms M s with s != M, listed in the order in which
    the forest translation creates white nodes.

    Firing one of these is exactly the non-loop part of the step relation
    (M M only rewrites to itself), and distinct paths always give distinct
    results.
    """
    out = []

    def scan(u, path):
        if not isinstance(u, Application):
            return
        left, right = u.left, u.right
        if isinstance(left, Application):
            scan(left, path + (0,))
            scan(right, path + (1,))
            return
        if isinstance(left, Variable):
            scan(right, path + (1,))
            return
        # left is the combinator M
        if isinstance(right, Variable):
            out.append(path)
        elif isinstance(right, Application):
            out.append(path)
            scan(right, path + (1,))
        # right = M: the redex M M only loops and creates no white node

    scan(t, ())
    return out


def fire_redex(t, path):
    """Rewrite the redex M s at the path into s s."""
    s = subterm_at(t, path).right
    return replace_at(t, path, app(s, s))


# ---------------------------------------------------------------------------
# Whole-series operators: each computes every coefficient up to the order.
# They are the reference for the lazy series that ``series`` solves with.


class WholeSeries(TruncSeries):
    def _check(self, other: "WholeSeries") -> None:
        if self.order != other.order:
            raise SeriesError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "WholeSeries") -> "WholeSeries":
        self._check(other)
        return WholeSeries(tuple(a + b for a, b in
                                 zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "WholeSeries") -> "WholeSeries":
        self._check(other)
        return WholeSeries(tuple(a - b for a, b in
                                 zip(self.coefficients, other.coefficients)))

    def __mul__(self, other: "WholeSeries") -> "WholeSeries":
        self._check(other)
        a, b = self.coefficients, other.coefficients
        n = len(a)
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    out[i + j] += ai * b[j]
        return WholeSeries(tuple(out))

    def scale(self, c: int) -> "WholeSeries":
        return WholeSeries(tuple(c * a for a in self.coefficients))

    def shift(self) -> "WholeSeries":
        """Multiply by z (truncated)."""
        return WholeSeries((0,) + self.coefficients[:-1])


def constant(c: int, order: int) -> WholeSeries:
    return WholeSeries((c,) + (0,) * order)


def zero(order: int) -> WholeSeries:
    return constant(0, order)


def one(order: int) -> WholeSeries:
    return constant(1, order)


def z(order: int) -> WholeSeries:
    if order < 1:
        return zero(order)
    return WholeSeries((0, 1) + (0,) * (order - 1))


def series_arith(op: str, a: WholeSeries, b: WholeSeries) -> WholeSeries:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise SeriesError(f"unknown operation {op!r}")


def hadamard(a: WholeSeries, b: WholeSeries) -> WholeSeries:
    """Coefficientwise product."""
    a._check(b)
    return WholeSeries(tuple(x * y for x, y in
                             zip(a.coefficients, b.coefficients)))


def max_product(a: WholeSeries, b: WholeSeries) -> WholeSeries:
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
    return WholeSeries(tuple(out))


def substitute_z2(a: WholeSeries) -> WholeSeries:
    """Substitute z := z^2, truncated at the same order."""
    n = a.order
    out = [0] * (n + 1)
    for i, c in enumerate(a.coefficients):
        if 2 * i > n:
            break
        out[2 * i] = c
    return WholeSeries(tuple(out))


# ---------------------------------------------------------------------------
# The catalytic interval rule by recursion


def interval_family_recursive(k, d, memo):
    """a_k(0) = 1 and a_k(d) = a_k(d-1)^2 + sum over i in [0..k] of
    C(k,i) a_{k+i}(d-1), recursively, memoised in ``memo`` (a dict the
    caller owns): the reference for the level loop of
    ``series.interval_levels``."""
    if (k, d) not in memo:
        if d == 0:
            memo[k, d] = 1
        else:
            prev = interval_family_recursive(k, d - 1, memo)
            memo[k, d] = prev * prev + sum(
                comb(k, i) * interval_family_recursive(k + i, d - 1, memo)
                for i in range(k + 1))
    return memo[k, d]
