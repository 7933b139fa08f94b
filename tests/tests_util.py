"""Shared helpers for the test suite, and reference implementations that
the library's code is compared against: the recursive term parser, the
rewrite step on Term objects with its substitution, pattern matching and
full rendering, the two-pass breadth-first closure, the confluence probe
by pairwise upset walks, the forest step on nested tuples, the M step by
redex paths, the recursive fr, black erasure and the fr-transport on
whole keys, the combinators of a degree built as terms (decoded from
their keys, and level by level), the whole-series operators on
truncated series, the catalytic interval rule by recursion and by its
literal binomial sum, the census and class recurrences with every product
formed, forest meet and join by the recursive rule with
fresh tuples, and least upper and greatest lower bounds from explicit
reachability.  Also the library's key step decoded to a set of terms, the
right combs, the forest metrics, and the brute-force in-degree, down-set
size and meet-decomposition counts of a forest upset."""

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, product
from math import comb

from mockingbird import sequences
from mockingbird.bridge import IsoReport, fr_key
from mockingbird.forests import (BLACK, EMPTY, WHITE, DupForest, IncompatibleForests,
                                 compact_key, forest_upset, key_successors, meet,
                                 render_forest)
from mockingbird.mterms import encode_term, key_redex_successors
from mockingbird.oracle import OracleError, combinator_keys
from mockingbird.posets import ExplorationError, ExploredPoset, down_sets, poset_analysis
from mockingbird.rewrite import ConfluenceReport, _KeyRules
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
    decode_term,
    render_term,
    subterms_preorder,
    var,
)

_M = basic("M")

# pieces of text that reach every branch and every error of the parser
FUZZ_PIECES = list("MKSI x0123()") + ["\t", "x1", "x12", "KS", "\u00e9",
                                      "\u00b2", "\u0663"]


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


def all_combinators(degree):
    """The terms of oracle.combinator_keys(degree), in order, sharing
    subterms."""
    leaves, shared = {"M": basic("M")}, {}
    return [decode_term(key, leaves, shared) for key in combinator_keys(degree)]


def all_combinators_nested(degree):
    """All binary application trees with the given number of applications
    over the single leaf M, built as terms level by level: the reference
    for the order of ``all_combinators``."""
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
    nodes = list(subterms_preorder(t))
    return TermMetrics(
        degree=sum(isinstance(u, Application) for _, u in nodes),
        height=max(depth for depth, _ in nodes))


def right_comb(d: int) -> Term:
    """M applied to itself d times, associated to the right: r_d = M r_{d-1}."""
    if d < 0:
        raise TermError("right comb index must be >= 0")
    t: Term = _M
    for _ in range(d):
        t = app(_M, t)
    return t


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


def step_successors(system, t):
    """All one-step rewrites of t under context closure (self-loops kept),
    by the library's step on prefix keys."""
    rules = _KeyRules(system, t)
    return {rules.decode(key) for key in rules.successors(rules.start)}


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


def two_pass_explore(start, successors, budget, sort_key=None):
    """Reference closure for posets.explore: discover with a queue, each
    node's successors in sort_key order, then record the edges.  Returns
    the nodes, the step edges and whether the closure is complete."""
    index = {start: 0}
    nodes = [start]
    queue = deque([start])
    complete = True
    while queue:
        u = queue.popleft()
        for v in sorted(set(successors(u)), key=sort_key):
            if v not in index:
                if len(nodes) >= budget:
                    complete = False
                    continue
                index[v] = len(nodes)
                nodes.append(v)
                queue.append(v)
    edges = {(i, index[v]) for u, i in index.items()
             for v in successors(u) if v in index}
    return nodes, edges, complete


def explore_reference(system, t, budget):
    """explore_component by the Term step and the two-pass closure, nodes
    sorted by render_full."""
    return two_pass_explore(t, lambda u: successor_list(system, u), budget,
                            sort_key=render_full)


def _walk_up(successors, key, budget, goal=frozenset()):
    """Breadth-first walk of the upset of a key that keeps at most budget
    nodes, following successors in redex order.

    Returns the kept nodes and a status: ``found`` as soon as the key or a
    successor lies in goal, ``truncated`` when a new node would pass the
    budget, else ``complete``."""
    seen = {key}
    if key in goal:
        return seen, "found"
    queue = [key]
    for u in queue:
        for v in successors(u):
            if v in goal:
                return seen, "found"
            if v not in seen:
                if len(seen) >= budget:
                    return seen, "truncated"
                seen.add(v)
                queue.append(v)
    return seen, "complete"


def probe_reference(system, t, join_budget=100_000):
    """local_confluence_probe by walks of its own: the upset of each first
    successor, then for each pair a walk from the second successor that
    stops at the first node of the first's upset.  Each walk keeps at most
    join_budget nodes."""
    rules = _KeyRules(system, t)
    succs = sorted(set(rules.successors(rules.start)) - {rules.start})
    report = ConfluenceReport(term=t, pairs_checked=0, joinable_pairs=0)
    for i, t1 in enumerate(succs[:-1]):
        up1, status1 = _walk_up(rules.successors, t1, join_budget)
        for t2 in succs[i + 1:]:
            report.pairs_checked += 1
            _, status = _walk_up(rules.successors, t2, join_budget, up1)
            if status == "found":
                report.joinable_pairs += 1
            elif "truncated" in (status, status1):
                report.inconclusive.append((rules.decode(t1), rules.decode(t2)))
            else:
                report.failures.append((rules.decode(t1), rules.decode(t2)))
    return report


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


def erase_black(key: str) -> str:
    """Compact forest key with every black node spliced out: its children
    take its place among its siblings, and a white node left without
    children renders as a plain w."""
    out: list[str] = []
    black_parens: list[bool] = []
    for i, c in enumerate(key):
        if c == "(":
            black_parens.append(key[i - 1] == BLACK)
            if not black_parens[-1]:
                out.append(c)
        elif c == ")":
            if not black_parens.pop():
                out.append(c)
        elif c == WHITE:
            out.append(c)
    return "".join(out).replace("()", "")


def fr_transport_flat(t, budget):
    """verify_fr_isomorphism on whole keys: each upset element is its prefix
    key, stepped by key_redex_successors, and its transported forest is its
    compact key, stepped by key_successors.  The reference for the
    transport by sides; it raises ExplorationError where that does.  It
    reads literal fr as each transported forest with its black nodes
    erased, where the library reads it off the term keys by fr_key."""
    start, leaves = encode_term(t)
    if start[0] != ".":
        return IsoReport(t, term_count=1, forest_count=1, fr_injective_on_upset=True,
                         cover_preserving=True, method="fr-transport", verdict="isomorphic")
    start_key = fr_key(start)
    consistent = True
    detail = ""
    queue = deque([start])
    assignment = {start: start_key}
    forest_keys = {start_key}

    def name(u):
        return render_term(decode_term(u, leaves))

    while queue and not detail:
        u = queue.popleft()
        fired = key_redex_successors(u)
        blackenings = key_successors(assignment[u])
        if len(fired) != len(blackenings):
            consistent = False
            detail = f"out-degree mismatch at {name(u)}"
        for v, key2 in zip(fired, blackenings):
            seen_key = assignment.get(v)
            if seen_key is not None:
                if seen_key != key2:
                    consistent = False
                    detail = f"transport conflict at {name(v)}"
                    break
                continue
            if key2 in forest_keys:
                detail = f"forest collision at {name(v)}"
                break
            if len(assignment) >= budget:
                raise ExplorationError("budget exhausted during verification")
            assignment[v] = key2
            forest_keys.add(key2)
            queue.append(v)

    images = [erase_black(key) for key in assignment.values()]
    return IsoReport(
        term=t, term_count=len(assignment), forest_count=len(forest_keys),
        fr_injective_on_upset=not detail and len(set(images)) == len(images),
        cover_preserving=consistent,
        method="fr-transport",
        verdict=f"inconclusive({detail})" if detail else "isomorphic")


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


def interval_levels_literal(order, start):
    """Rows 0..order from the first rows ``start``, each entry of row d
    filled exactly as the rule reads: a_k(d) = a_k(d-1)^2 + sum over i in
    [0..k] of comb(k, i) a_{k+i}(d-1), for k <= 2^(order-d).  The reference
    for the shift-add loop of ``series.interval_levels`` on any start rows."""
    rows = [list(row) for row in start]
    for d in range(len(rows), order + 1):
        prev = rows[-1]
        rows.append([
            prev[k - 1] ** 2 + sum(comb(k, i) * prev[k + i - 1]
                                   for i in range(k + 1))
            for k in range(1, (1 << (order - d)) + 1)])
    return rows


# ---------------------------------------------------------------------------
# The census and class recurrences with every product formed


def motzkin_by_degree_full(count):
    """Maximal combinators by degree, each convolution summed over every
    ordered pair: the reference for the squaring recurrence."""
    out = [1, 1]
    for d in range(2, count):
        conv = sum(out[i] * out[d - 1 - i] for i in range(d))
        out.append(conv - out[d - 1])
    return out[:count]


def min_by_degree_full(count):
    """Minimal combinators by degree, each convolution summed over every
    ordered pair: the reference for the squaring recurrence."""
    out = [1, 1]
    for d in range(2, count):
        conv = sum(out[i] * out[d - 1 - i] for i in range(d))
        squares = out[(d - 1) // 2] if (d - 1) % 2 == 0 else 0
        out.append(conv - squares)
    return out[:count]


def classes_by_height_full(count):
    """Classes by height, from the expanded rule prev^2 - prev + 2 prev
    running: the reference for the one-product recurrence."""
    out = [1, 1]
    running = 0  # sum of out[0..h-2] while computing out[h]
    for h in range(2, count):
        prev = out[h - 1]
        running += out[h - 2]
        out.append(prev * prev - prev + 2 * prev * running)
    return out[:count]


# ---------------------------------------------------------------------------
# Bounds by the recursive rule and from explicit reachability


def brute_lub(g, a, b):
    """Unique least upper bound of nodes a, b from explicit reachability,
    or None if it does not exist. Requires prior poset_analysis."""
    if g.reach is None:
        raise ExplorationError("run poset_analysis first")
    common = g.reach[a] & g.reach[b]
    if common == 0:
        return None
    # the LUB, if any, is the x in common whose whole up-set equals common
    for x in _bits(common):
        if g.reach[x] == common:
            return x
    return None


def brute_glb(g, a, b):
    """Unique greatest lower bound of nodes a, b from explicit reachability,
    or None if it does not exist. Requires prior poset_analysis."""
    if g.reach is None:
        raise ExplorationError("run poset_analysis first")
    both = 1 << a | 1 << b
    lower = [x for x, r in enumerate(g.reach) if r & both == both]
    # the GLB, if any, is the common lower bound every other one reaches
    for x in lower:
        bit = 1 << x
        if all(g.reach[y] & bit for y in lower):
            return x
    return None


def bound_reference(f1, f2, color):
    """forests.meet (color WHITE) or join (color BLACK) by the recursive rule
    that builds every result from fresh tuples: trees of one color bound
    their children, and w(g) with b(g' g'') meet in w(g ∧ g' ∧ g'') and
    join in b(g∨g' g∨g'') = b(g g ∨ g' g'')."""
    if len(f1) != len(f2):
        raise IncompatibleForests(
            f"forest length mismatch: {render_forest(f1)!r} vs {render_forest(f2)!r}")
    out = []
    for (c1, g1), (c2, g2) in zip(f1, f2):
        if c1 == c2:
            out.append((c1, bound_reference(g1, g2, color)))
            continue
        if c1 == BLACK:
            g1, g2 = g2, g1
        if len(g2) % 2:
            raise IncompatibleForests(
                f"black node with odd child count: {render_forest(g2)!r}")
        half = len(g2) // 2
        if color == WHITE:
            out.append((WHITE, bound_reference(bound_reference(g1, g2[:half], WHITE),
                                               g2[half:], WHITE)))
        else:
            out.append((BLACK, bound_reference(g1 + g1, g2, BLACK)))
    return tuple(out)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Forest metrics, read off the compact key


def forest_height(f: DupForest) -> int:
    """Number of nodes on a longest root-to-leaf chain; height(ladder(d)) = d."""
    # one more than the deepest parenthesis nesting; 0 for the empty forest
    depths = accumulate((c == "(") - (c == ")") for c in compact_key(f))
    return max(depths, default=-1) + 1


def node_count(f: DupForest) -> int:
    key = compact_key(f)
    return len(key) - 2 * key.count("(")


def black_count(f: DupForest) -> int:
    return compact_key(f).count(BLACK)


def white_count(f: DupForest) -> int:
    return compact_key(f).count(WHITE)


def is_white_only(f: DupForest) -> bool:
    return BLACK not in compact_key(f)


# ---------------------------------------------------------------------------
# In-degrees, down-set sizes and meet decompositions in a forest upset


def _analyzed_upset(f: DupForest) -> ExploredPoset:
    return poset_analysis(forest_upset(f), check_lattice=False)


def oracle_ni(f: DupForest) -> dict[DupForest, int]:
    """In-degree of every element of the upset of f under the single-step
    relation: the number of forests each element covers.  Zero entries are
    omitted."""
    g = _analyzed_upset(f)
    counts: dict[DupForest, int] = {}
    for succs in g.succ:
        for j in succs:
            target = g.nodes[j]
            counts[target] = counts.get(target, 0) + 1
    return counts


def oracle_ns(f: DupForest) -> dict[DupForest, int]:
    """Down-set size of every element within the upset of f: the number of
    elements g with f <= g <= f'."""
    g = _analyzed_upset(f)
    down = down_sets(g)
    return {g.nodes[j]: down[j].bit_count() for j in range(len(g.nodes))}


def oracle_md_k(f: DupForest, k: int) -> dict[DupForest, int]:
    """For every element f' of the upset of f, the number of k-tuples of
    elements of the upset of f' whose iterated meet equals f'.  Exhaustive
    over |upset|^k tuples: tiny instances only."""
    if k < 1:
        raise OracleError("k must be >= 1")
    g = _analyzed_upset(f)
    n = len(g.nodes)
    out: dict[DupForest, int] = {}
    for i in range(n):
        base = g.nodes[i]
        above = [g.nodes[j] for j in range(n) if g.reach[i] >> j & 1]
        if len(above) ** k > 1_000_000:
            raise OracleError("meet-decomposition enumeration is infeasible here")
        count = 0
        for combo in product(above, repeat=k):
            m = combo[0]
            for x in combo[1:]:
                m = meet(m, x)
            if m == base:
                count += 1
        out[base] = count
    return out
