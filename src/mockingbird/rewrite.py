"""Combinatory logic systems and one-step rewriting under context closure.

The step, the upset exploration and the reduction chain run on prefix
keys (terms.term_key), with no recursion over the term; each term
handed back is decoded once.  Keys sort as fully parenthesized terms, so
node order is the same in every process.  The confluence probe reads every
pair's join off one exploration of the upset, which ``check`` shares, in
n k bits for k successors (posets.up_meets).
The step over {M} that the fr-transport runs is in mterms; both steps
refuse by posets.MAX_STEP_SIZE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .posets import (DEFAULT_BUDGET, MAX_STEP_SIZE, ExploredPoset, explore,
                     refuse_step, up_meets)
from .terms import (Term, TermError, Variable, basic, contains_basic, decode_term,
                    parse_term, subterm_ends, subterms_preorder,
                    term_key, var, variable_indices)


class SystemError_(TermError):
    """Invalid combinatory logic system definition or usage."""


@dataclass(frozen=True)
class Rule:
    order: int
    rhs: Term


@dataclass(frozen=True)
class CLSystem:
    rules: Mapping[str, Rule]

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.rules)


BUILTIN_SOURCES = {
    "builtin:M": "M 1 := x1 x1",
    "builtin:I": "I 1 := x1",
    "builtin:K": "K 2 := x1",
    "builtin:S": "S 3 := x1 x3 (x2 x3)",
    "builtin:KS": "K 2 := x1\nS 3 := x1 x3 (x2 x3)",
}


def load_system(text: str) -> CLSystem:
    """Parse a system description.

    Each nonblank line has shape ``NAME ORDER := RHS`` with RHS a term over
    variables only; ``#`` starts a comment.  Names of the form ``builtin:X``
    resolve to the built-in definitions (M, I, K, S, KS).  An order n whose
    least redex, 2n + 1 symbols, passes MAX_STEP_SIZE is refused.
    """
    source = BUILTIN_SOURCES.get(text.strip(), text)
    if source.lstrip().startswith("builtin:"):
        raise SystemError_(f"unknown system {text.strip()!r}; the built-in "
                           f"systems are {', '.join(BUILTIN_SOURCES)}")
    rules: dict[str, Rule] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rhs_text = line.partition(":=")
        if not sep:
            raise SystemError_(f"line {lineno}: expected 'NAME ORDER := RHS'")
        parts = head.split()
        if len(parts) != 2:
            raise SystemError_(f"line {lineno}: expected 'NAME ORDER := RHS'")
        name, order_text = parts
        if not name[0].isupper():
            raise SystemError_(f"line {lineno}: combinator name {name!r} must start uppercase")
        try:
            order = int(order_text)
        except ValueError:
            raise SystemError_(f"line {lineno}: bad order {order_text!r}") from None
        if order < 1:
            raise SystemError_(f"line {lineno}: order must be >= 1")
        if 2 * order + 1 > MAX_STEP_SIZE:
            raise SystemError_(f"line {lineno}: order {order} too large: a redex "
                               f"has {2 * order + 1} symbols > {MAX_STEP_SIZE}")
        if name in rules:
            raise SystemError_(f"line {lineno}: duplicate rule for {name}")
        try:
            rhs = parse_term(rhs_text.strip(), set())
        except TermError as exc:
            raise SystemError_(
                f"line {lineno}: bad right-hand side: {exc}") from None
        if contains_basic(rhs):
            raise SystemError_(f"line {lineno}: rule right-hand side contains a combinator")
        high = [i for i in variable_indices(rhs) if i > order]
        if high:
            raise SystemError_(
                f"line {lineno}: variable index {min(high)} exceeds order {order}")
        rules[name] = Rule(order=order, rhs=rhs)
    if not rules:
        raise SystemError_("empty system")
    return CLSystem(rules=rules)


# ---------------------------------------------------------------------------
# The rewrite step on prefix keys (terms.term_key)

_FIRST_TOKEN = ord("A")  # the token of the leaf whose name sorts first


class _KeyRules:
    """A system compiled for the prefix keys of one term, ``start``, and of
    every term it rewrites to.

    Each leaf gets a token in the order of its printed name, so keys sort
    as the fully parenthesized terms do: "." before every token, as "("
    before every name.  A redex of a combinator C of order n reads "." * n
    + C followed by its n arguments; its contractum is the rule's
    right-hand side as a format template over them.  The redex pattern
    counts its dots, and the template numbers only the variables of the
    right-hand side, so a rule's order costs nothing until the rule fires."""

    def __init__(self, sys: CLSystem, t: Term):
        leaves = sorted([basic(name) for name in sys.rules] +
                        [var(i) for i in variable_indices(t)], key=str)
        self.leaves = {chr(_FIRST_TOKEN + i): u for i, u in enumerate(leaves)}
        self.tokens = {u: token for token, u in self.leaves.items()}
        self.shared: dict = {}  # the sides of each decoded application
        self.rules = {}  # head token: order, template
        for name, rule in sys.rules.items():
            rhs = term_key(rule.rhs, {var(i): "{%d}" % (i - 1)
                                      for i in variable_indices(rule.rhs)})
            self.rules[self.tokens[basic(name)]] = rule.order, rhs
        self.redex = re.compile("|".join(
            r"\.{%d}%s" % (n, re.escape(head))
            for head, (n, _) in self.rules.items()))
        try:
            self.start = term_key(t, self.tokens)
        except KeyError as exc:
            raise SystemError_(f"no rule for combinator {exc.args[0]}") from None

    def decode(self, key: str) -> Term:
        return decode_term(key, self.leaves, self.shared)

    def successors(self, key: str) -> list[str]:
        """Keys one step from key, in the order of the redexes (self-loops
        kept)."""
        matches = list(self.redex.finditer(key))
        if len(matches) * len(key) > MAX_STEP_SIZE:
            refuse_step(len(matches), key)
        out = []
        end = subterm_ends(key)
        for match in matches:
            n, rhs = self.rules[key[match.end() - 1]]
            args, pos = [], match.end()
            for _ in range(n):
                args.append(key[pos:end[pos]])
                pos = end[pos]
            out.append(f"{key[:match.start()]}{rhs.format(*args)}{key[pos:]}")
        return out


def explore_component(sys: CLSystem, t: Term, direction: str = "up",
                      budget: int = DEFAULT_BUDGET) -> ExploredPoset:
    """BFS closure of the step from t: its upset.  The walk runs on prefix
    keys, and each node is decoded once.  ``direction`` admits only "up",
    for callers that pass it."""
    if direction != "up":
        raise SystemError_(f"invalid direction {direction!r}")
    rules = _KeyRules(sys, t)
    g = explore(rules.start, rules.successors, budget=budget)
    g.nodes = [rules.decode(key) for key in g.nodes]
    return g


def reduction_chain(sys: CLSystem, t: Term) -> Iterator[Term]:
    """t, then each time the least proper successor in the node order of
    explore_component, until a term has none."""
    rules = _KeyRules(sys, t)
    key = rules.start
    while key is not None:
        yield rules.decode(key)
        key = min(set(rules.successors(key)) - {key}, default=None)


def is_hierarchical(sys: CLSystem) -> dict[str, bool]:
    """For each combinator C of order n: every x_i occurs in the rule rhs,
    and only at depth n + 1 - i."""
    result: dict[str, bool] = {}
    for name, rule in sys.rules.items():
        depths: dict[int, set[int]] = {}
        for depth, u in subterms_preorder(rule.rhs):
            if isinstance(u, Variable):
                depths.setdefault(u.index, set()).add(depth)
        n = rule.order
        result[name] = all(
            depths.get(i) == {n + 1 - i} for i in range(1, n + 1))
    return result


# ---------------------------------------------------------------------------
# Confluence probing


@dataclass
class ConfluenceReport:
    term: Term
    pairs_checked: int
    joinable_pairs: int
    failures: list[tuple[Term, Term]] = field(default_factory=list)
    inconclusive: list[tuple[Term, Term]] = field(default_factory=list)

    @property
    def all_joinable(self) -> bool:
        return not self.failures and not self.inconclusive


def local_confluence_probe(sys: CLSystem, t: Term,
                           join_budget: int = 100_000) -> ConfluenceReport:
    """For every pair of distinct one-step successors of t, look for a
    common upper bound in one exploration of the upset of t that keeps at
    most join_budget nodes.

    A pair joins when the two kept up-sets meet.  A pair that does not is a
    failure when the exploration is complete, and inconclusive when it is
    not, as is every pair with a successor that the budget left out."""
    rules = _KeyRules(sys, t)
    return _read_joins(t, rules, lambda: explore(
        rules.start, rules.successors, budget=join_budget))


def upset_confluence(sys: CLSystem, g: ExploredPoset) -> ConfluenceReport:
    """The report of local_confluence_probe on the start of g, read off g:
    an upset as explore_component returns it, complete or truncated."""
    return _read_joins(g.nodes[0], _KeyRules(sys, g.nodes[0]), lambda: g)


def _read_joins(t: Term, rules: _KeyRules,
                walk: Callable[[], ExploredPoset]) -> ConfluenceReport:
    """The probe's report on t, read off walk(), its upset, explored only if
    t has two proper successors, which explore indexes first, in key order:
    the i-th is node i + 1 while the budget lasts, else it meets nothing."""
    succs = sorted(set(rules.successors(rules.start)) - {rules.start})
    if len(succs) < 2:
        return ConfluenceReport(term=t, pairs_checked=0, joinable_pairs=0)
    g = walk()
    meets = up_meets(g, len(succs) + 1)[1:]
    apart = [(i, j) for i, meet in enumerate(meets)
             for j in range(i + 1, len(meets)) if not meet >> j + 1 & 1]
    pairs = len(succs) * (len(succs) - 1) // 2
    report = ConfluenceReport(term=t, pairs_checked=pairs,
                              joinable_pairs=pairs - len(apart))
    terms = [rules.decode(key) for key in succs] if apart else []
    unjoined = report.failures if g.is_complete else report.inconclusive
    unjoined.extend((terms[i], terms[j]) for i, j in apart)
    return report
