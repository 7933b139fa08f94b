"""Combinatory logic systems and one-step rewriting under context closure."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Optional

from .bridge import encode_term, key_extremal_flags
from .posets import DEFAULT_BUDGET, ExploredPoset, explore
from .terms import (
    Application,
    Basic,
    Term,
    TermError,
    Variable,
    app,
    basic,
    compose,
    contains_basic,
    match_pattern,
    parse_term,
    render_term,
    replace_at,
    subterms_preorder,
    variable_indices,
)


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

    def rule_of(self, name: str) -> Rule:
        return self.rules[name]


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


def _spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose t as head applied to a list of arguments (left spine)."""
    args: list[Term] = []
    while isinstance(t, Application):
        args.append(t.right)
        t = t.left
    args.reverse()
    return t, args


def _successor_list(sys: CLSystem, t: Term) -> list[Term]:
    if not isinstance(t, Application):
        return []
    out: list[Term] = []
    head, args = _spine(t)
    if isinstance(head, Basic):
        rule = sys.rules.get(head.name)
        if rule is None:
            raise SystemError_(f"no rule for combinator {head.name}")
        # the redex rooted exactly here consumes all spine arguments
        if rule.order == len(args):
            out.append(compose(rule.rhs, args))
    for left2 in _successor_list(sys, t.left):
        out.append(app(left2, t.right))
    for right2 in _successor_list(sys, t.right):
        out.append(app(t.left, right2))
    return out


def step_successors(sys: CLSystem, t: Term) -> set[Term]:
    """All one-step rewrites of t under context closure (self-loops kept)."""
    return set(_successor_list(sys, t))


def _invertible(sys: CLSystem) -> Optional[str]:
    for name, rule in sys.rules.items():
        if variable_indices(rule.rhs) != set(range(1, rule.order + 1)):
            return name
    return None


def step_predecessors(sys: CLSystem, t: Term) -> set[Term]:
    """All s with s => t, by matching each rhs against every subterm of t.

    Only defined for systems whose rule right-hand sides mention every
    variable up to the order; otherwise the predecessor set is infinite.
    """
    bad = _invertible(sys)
    if bad is not None:
        raise SystemError_(
            f"predecessors are infinite: rhs of {bad} omits a variable")
    out: set[Term] = set()
    for path, u in subterms_preorder(t):
        for name, rule in sys.rules.items():
            bindings: dict[int, Term] = {}
            if match_pattern(rule.rhs, u, bindings):
                redex: Term = basic(name)
                for i in range(1, rule.order + 1):
                    redex = app(redex, bindings[i])
                out.add(replace_at(t, path, redex))
    return out


def _full_render(t: Term) -> str:
    return render_term(t, "full")


def explore_component(sys: CLSystem, t: Term, direction: str = "up",
                      budget: int = DEFAULT_BUDGET) -> ExploredPoset:
    """BFS closure from t: ``up`` follows successors only, ``class`` closes
    under successors and predecessors (the whole equivalence class)."""
    if direction == "up":
        predecessors = None
    elif direction == "class":
        if any(not hier for hier in is_hierarchical(sys).values()):
            warnings.warn(
                "class exploration of a non-hierarchical system may not "
                "terminate; relying on the node budget", stacklevel=2)
        predecessors = lambda u: step_predecessors(sys, u)
    else:
        raise SystemError_(f"invalid direction {direction!r}")
    return explore(
        t,
        lambda u: step_successors(sys, u),
        budget=budget,
        sort_key=_full_render,
        predecessors=predecessors,
    )


def is_hierarchical(sys: CLSystem) -> dict[str, bool]:
    """For each combinator C of order n: every x_i occurs in the rule rhs,
    and only at depth n + 1 - i."""
    result: dict[str, bool] = {}
    for name, rule in sys.rules.items():
        depths: dict[int, set[int]] = {}
        for path, u in subterms_preorder(rule.rhs):
            if isinstance(u, Variable):
                depths.setdefault(u.index, set()).add(len(path))
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


def _walk_up(sys: CLSystem, t: Term, budget: int,
             goal: AbstractSet[Term] = frozenset()) -> tuple[set[Term], str]:
    """Breadth-first walk of the upset of t that keeps at most budget nodes.

    Returns the kept nodes and a status: ``found`` as soon as t or a
    successor lies in goal, ``truncated`` when a new node would pass the
    budget, else ``complete``."""
    seen = {t}
    if t in goal:
        return seen, "found"
    queue = [t]
    for u in queue:
        for v in step_successors(sys, u):
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
    succs = sorted(step_successors(sys, t) - {t}, key=_full_render)
    report = ConfluenceReport(term=t, pairs_checked=0, joinable_pairs=0)
    for i, t1 in enumerate(succs[:-1]):
        up1, status1 = _walk_up(sys, t1, join_budget)
        for t2 in succs[i + 1:]:
            report.pairs_checked += 1
            # walk the upset of t2, stopping at the first meeting point
            _, status = _walk_up(sys, t2, join_budget, up1)
            if status == "found":
                report.joinable_pairs += 1
            elif "truncated" in (status, status1):
                report.inconclusive.append((t1, t2))
            else:
                report.failures.append((t1, t2))
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
