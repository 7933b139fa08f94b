"""Combinatory logic systems and one-step rewriting under context closure.

The step, its inverse, the walks and the reduction chain run on prefix keys
(bridge.term_key), with no recursion over the term; each term handed back
is decoded once.  Keys sort as fully parenthesized terms, so node order is
the same in every process, and walks follow the order of the redexes.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterator, Mapping

from .bridge import decode_term, encode_term, key_extremal_flags, term_key
from .posets import DEFAULT_BUDGET, ExploredPoset, explore
from .terms import (Term, TermError, Variable, basic, contains_basic, parse_term,
                    subterms_preorder, var, variable_indices)


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
    resolve to the built-in definitions (M, I, K, S, KS).
    """
    source = BUILTIN_SOURCES.get(text.strip(), text)
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
# The rewrite step on prefix keys (bridge.term_key)

_FIRST_TOKEN = ord("A")  # the token of the leaf whose name sorts first


def _subterm_ends(key: str) -> list[int]:
    """end[i] is where the subterm that starts at position i ends."""
    end = list(range(1, len(key) + 1))
    for i in range(len(key) - 2, -1, -1):
        if key[i] == ".":
            end[i] = end[end[i + 1]]
    return end


class _KeyRules:
    """A system compiled for the prefix keys of one term, ``start``, and of
    every term it rewrites to or from.

    Each leaf gets a token in the order of its printed name, so keys sort
    as the fully parenthesized terms do: "." before every token, as "("
    before every name.  A redex of a combinator C of order n reads "." * n
    + C followed by its n arguments; its contractum is the rule's
    right-hand side as a format template over them."""

    def __init__(self, sys: CLSystem, t: Term):
        leaves = sorted([basic(name) for name in sys.rules] +
                        [var(i) for i in variable_indices(t)], key=str)
        self.leaves = {chr(_FIRST_TOKEN + i): u for i, u in enumerate(leaves)}
        self.tokens = {u: token for token, u in self.leaves.items()}
        self.rules = {}  # head token: order, template, template as pattern
        self.erasing = None  # a rule whose rhs omits a variable
        for name, rule in sys.rules.items():
            if variable_indices(rule.rhs) != set(range(1, rule.order + 1)):
                self.erasing = self.erasing or name
            rhs = term_key(rule.rhs, {var(i): "{%d}" % (i - 1)
                                      for i in range(1, rule.order + 1)})
            pattern = [int(c) if c.isdigit() else c
                       for c in re.findall(r"\.|\d+", rhs)]
            self.rules[self.tokens[basic(name)]] = rule.order, rhs, pattern
        self.redex = re.compile("|".join(
            re.escape("." * n + head) for head, (n, _, _) in self.rules.items()))
        try:
            self.start = term_key(t, self.tokens)
        except KeyError as exc:
            raise SystemError_(f"no rule for combinator {exc.args[0]}") from None

    def decode(self, key: str) -> Term:
        return decode_term(key, self.leaves)

    def successors(self, key: str) -> list[str]:
        """Keys one step from key, in the order of the redexes (self-loops
        kept)."""
        out = []
        end = _subterm_ends(key)
        for match in self.redex.finditer(key):
            n, rhs, _ = self.rules[key[match.end() - 1]]
            args, pos = [], match.end()
            for _ in range(n):
                args.append(key[pos:end[pos]])
                pos = end[pos]
            out.append(f"{key[:match.start()]}{rhs.format(*args)}{key[pos:]}")
        return out

    def predecessors(self, key: str) -> list[str]:
        """Keys one step to key: each subterm that matches a right-hand
        side, with a repeated variable binding equal subterms, becomes its
        redex."""
        if self.erasing is not None:
            raise SystemError_(f"predecessors are infinite: rhs of "
                               f"{self.erasing} omits a variable")
        out = []
        end = _subterm_ends(key)
        for i in range(len(key)):
            for head, (n, _, pattern) in self.rules.items():
                args, pos = [""] * n, i
                for item in pattern:
                    if item == ".":
                        if key[pos] != ".":
                            break
                        pos += 1
                    elif args[item] in ("", key[pos:end[pos]]):
                        args[item] = key[pos:end[pos]]
                        pos = end[pos]
                    else:
                        break
                else:
                    out.append(f"{key[:i]}{'.' * n}{head}{''.join(args)}{key[pos:]}")
        return out


def step_successors(sys: CLSystem, t: Term) -> set[Term]:
    """All one-step rewrites of t under context closure (self-loops kept)."""
    rules = _KeyRules(sys, t)
    return {rules.decode(key) for key in rules.successors(rules.start)}


def step_predecessors(sys: CLSystem, t: Term) -> set[Term]:
    """All s with s => t, by matching each rhs against every subterm of t.
    Raises SystemError_ if a rule's rhs omits a variable (infinite sets)."""
    rules = _KeyRules(sys, t)
    return {rules.decode(key) for key in rules.predecessors(rules.start)}


def explore_component(sys: CLSystem, t: Term, direction: str = "up",
                      budget: int = DEFAULT_BUDGET) -> ExploredPoset:
    """BFS closure from t: ``up`` follows successors only, ``class`` closes
    under successors and predecessors (the whole equivalence class).  The
    walk runs on prefix keys, and each node is decoded once."""
    rules = _KeyRules(sys, t)
    if direction == "up":
        predecessors = None
    elif direction == "class":
        if any(not hier for hier in is_hierarchical(sys).values()):
            warnings.warn(
                "class exploration of a non-hierarchical system may not "
                "terminate; relying on the node budget", stacklevel=2)
        predecessors = rules.predecessors
    else:
        raise SystemError_(f"invalid direction {direction!r}")
    g = explore(rules.start, rules.successors, budget=budget,
                sort_key=str, predecessors=predecessors)
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


def _walk_up(successors: Callable[[str], list[str]], key: str, budget: int,
             goal: AbstractSet[str] = frozenset()) -> tuple[set[str], str]:
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


def local_confluence_probe(sys: CLSystem, t: Term,
                           join_budget: int = 100_000) -> ConfluenceReport:
    """For every pair of distinct one-step successors of t, search within
    join_budget nodes for a common upper bound."""
    rules = _KeyRules(sys, t)
    succs = sorted(set(rules.successors(rules.start)) - {rules.start})
    report = ConfluenceReport(term=t, pairs_checked=0, joinable_pairs=0)
    for i, t1 in enumerate(succs[:-1]):
        up1, status1 = _walk_up(rules.successors, t1, join_budget)
        for t2 in succs[i + 1:]:
            report.pairs_checked += 1
            # walk the upset of t2, stopping at the first meeting point
            _, status = _walk_up(rules.successors, t2, join_budget, up1)
            if status == "found":
                report.joinable_pairs += 1
            elif "truncated" in (status, status1):
                report.inconclusive.append((rules.decode(t1), rules.decode(t2)))
            else:
                report.failures.append((rules.decode(t1), rules.decode(t2)))
    return report


# ---------------------------------------------------------------------------
# Extremal elements of the Mockingbird poset by pattern avoidance


def extremal_by_pattern(t: Term) -> dict[str, bool]:
    """Maximality/minimality of an M-combinator by factor avoidance:
    maximal avoids M(x1 x2) and minimal avoids (x1 x2)(x1 x2).  Read off
    the prefix key (bridge.key_extremal_flags), so any depth answers."""
    try:
        key, leaves = encode_term(t)
    except TermError as exc:  # a foreign combinator
        raise SystemError_(str(exc)) from None
    if len(leaves) > 1:
        raise SystemError_("extremal_by_pattern expects a combinator (no variables)")
    maximal, minimal = key_extremal_flags(key)
    return {"maximal": maximal, "minimal": minimal}
