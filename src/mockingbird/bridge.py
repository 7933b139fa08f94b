"""Translation from Mockingbird terms to duplicative forests and
verification that the term upset and the forest upset are isomorphic posets.

Terms are handled as prefix keys (terms.encode_term) and forests as compact
keys, and both are stepped by string surgery (rewrite.key_redex_successors,
forests.key_successors).  The verification transports fr along rewrite
steps over the upset of each side of the start, not over the whole upset:
for a start a b with a not M, the upset is the product of the upsets of a
and b, and its forests are fa fb; for M b with b not M, it is the elements
M b', whose forests are w(fb'), together with the product of up(b) with
itself, whose forests are b(fb fb').  Steps and white nodes split side by
side in the same order, so the transport holds on the product exactly when
it holds on each side, and the counts are products of the side counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from math import isqrt
from typing import Optional

from .forests import BLACK, WHITE, DupForest, key_successors, parse_forest
from .posets import DEFAULT_BUDGET, ExplorationError
from .rewrite import key_redex_successors
from .terms import Term, decode_term, encode_term, render_term, subterm_end


def fr_map(t: Term) -> DupForest:
    """Forest translation of a term over {M} (variables allowed as inert
    leaves).  Leaves and MM map to the empty forest; M applied to a leaf is
    a lone white node; M applied to an application wraps a white node around
    the argument's forest; a left application concatenates; a variable head
    is transparent.  The image is always white-only.

    Computed without recursion over the term, as the compact key fr_key
    reads off its prefix key; encode_term rejects a foreign combinator."""
    return parse_forest(fr_key(encode_term(t)[0]))


@dataclass
class IsoReport:
    term: Term
    term_count: int
    forest_count: int
    fr_injective_on_upset: bool
    cover_preserving: bool
    method: str  # "fr-transport"
    verdict: str  # "isomorphic" | "inconclusive(<details>)"

    @property
    def isomorphic(self) -> bool:
        return self.verdict == "isomorphic"


def fr_key(key: str) -> str:
    """Compact forest key of fr_map of the term with this prefix key.

    One pass over the tokens in reverse, as decode_term does, so deep terms
    need no recursion.  The stack holds the forest key of each subterm, or
    None for the combinator M; a variable's key is empty, so a variable
    head and an application head both concatenate."""
    stack: list[Optional[str]] = []
    for token in reversed(key):
        if token != ".":
            stack.append(None if token == "M" else "")
            continue
        left, right = stack.pop(), stack.pop()
        if left is not None:
            stack.append(left + right if right else left)
        elif right is None:  # M M
            stack.append("")
        else:
            stack.append(f"w({right})" if right else "w")
    return stack[0] or ""


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


def _transport(side: str, cap: int) -> tuple[dict[str, str], str, str]:
    """fr transported over the upset of the term with prefix key side: the
    forest key of each element reached, then the first breakdown and the
    element it names ("" and "" when there is none).  The term key is
    stepped by key_redex_successors and the forest key by key_successors,
    and the i-th successor of one is paired with the i-th of the other.
    Reaching more than cap elements raises ExplorationError."""
    assignment = {side: fr_key(side)}
    forests = set(assignment.values())
    queue = deque(assignment)
    while queue:
        u = queue.popleft()
        fired = key_redex_successors(u)
        blackenings = key_successors(assignment[u])
        if len(fired) != len(blackenings):
            return assignment, "out-degree mismatch", u
        for v, key in zip(fired, blackenings):
            seen = assignment.get(v)
            if seen is not None:
                if seen != key:
                    return assignment, "transport conflict", v
                continue
            if key in forests:
                return assignment, "forest collision", v
            if len(assignment) >= cap:
                raise ExplorationError("budget exhausted during verification")
            assignment[v] = key
            forests.add(key)
            queue.append(v)
    return assignment, "", ""


def _fr_injective(images_a: list[str], images_b: list[str], wrapped: bool) -> bool:
    """Whether literal fr is injective on the upset whose sides have these
    erase_black images: ea eb for the pairs of sides, and, when wrapped
    (images_a is then images_b), w(eb) for each M b'.  Stops at the first
    repeated image."""
    if len(set(images_a)) < len(images_a) or len(set(images_b)) < len(images_b):
        return False
    images = {f"w({eb})" if eb else "w" for eb in images_b} if wrapped else set()
    for ea, eb in product(images_a, images_b):
        image = ea + eb
        if image in images:
            return False
        images.add(image)
    return True


def verify_fr_isomorphism(t: Term, budget: int = DEFAULT_BUDGET) -> IsoReport:
    """Check that the upset of t and the upset of fr_map(t) are isomorphic
    posets, using fr transported along rewrite steps as the candidate map.

    fr itself collapses every term to a white-only forest, so it cannot be
    the isomorphism; instead its local structure is transported: the i-th
    progressing redex of a term is paired with the i-th white node of its
    assigned forest, and firing the redex is matched with blackening the
    node.  If the resulting term-to-forest assignment is well defined
    (independent of the path taken) and injective, and the out-degrees
    agree everywhere, then it is a bijection matching non-loop steps on
    both sides — a poset isomorphism witnessed constructively.

    The transport walks the upset of each distinct side of the start
    t = a b once, on strings; no Term is built, and no element of the
    whole upset is visited.  The redexes of "." + a + b are the root
    redex M b -> b b (when a is M and b is not), then those of a, then
    those of b; the white nodes of fa fb are those of fa, then those of
    fb, and those of w(fb) are the root, whose blackening gives b(fb fb),
    then those of fb.  So the steps of an element are the steps of its
    sides, in the same order, and the transport is well defined, keeps
    out-degrees and is injective on the whole upset exactly when it is on
    each side's upset.  A step keeps the number of top-level trees of a
    forest, so fa fb splits in one way and the side forests count the
    product's.  The upset has n_a * n_b elements, or n_b + n_b**2 when
    a is M and b is not (the elements M b' and the pairs of up(b)); more
    than budget raises ExplorationError, and each side walk stops at the
    largest side count the budget admits.  A side too large to step
    raises ExplorationError too (rewrite.MAX_STEP_SIZE).

    Literal fr of an upset element is its transported forest with the
    black nodes erased (erase_black), and the erasure of a concatenation
    is the concatenation of the erasures, so fr_injective_on_upset is read
    off the erased forests of the sides.

    If the transport breaks down on a side s, the verdict is
    ``inconclusive(<detail>)``, naming the term s b or a s: a failed
    transport does not prove the posets non-isomorphic.  The counts are
    then the product's over the side elements reached.
    """
    start, leaves = encode_term(t)
    if start[0] != ".":  # a leaf fires no redex, and fr maps it to no node
        return IsoReport(t, term_count=1, forest_count=1, fr_injective_on_upset=True,
                         cover_preserving=True, method="fr-transport", verdict="isomorphic")
    budget = max(budget, 1)  # the start is held whatever the budget
    end = subterm_end(start, 1)
    a0, b0 = start[1:end], start[end:]
    wrapped = a0 == "M" != b0
    side_a, failure, culprit = _transport(a0, budget)
    if failure:  # b0 alone is reached on its side
        side_b, culprit = {b0: fr_key(b0)}, "." + culprit + b0
    else:
        cap = (isqrt(4 * budget + 1) - 1) // 2 if wrapped else budget // len(side_a)
        side_b, failure, culprit = (side_a, "", "") if b0 == a0 else _transport(b0, cap)
        if len(side_b) > cap:
            raise ExplorationError("budget exhausted during verification")
        culprit = "." + a0 + culprit
    n_b = len(side_b)
    count = n_b + n_b * n_b if wrapped else len(side_a) * n_b
    images_b = [erase_black(key) for key in side_b.values()]
    images_a = images_b if wrapped else [erase_black(key) for key in side_a.values()]
    injective = not failure and _fr_injective(images_a, images_b, wrapped)
    detail = f"{failure} at {render_term(decode_term(culprit, leaves))}" if failure else ""
    return IsoReport(
        term=t, term_count=count, forest_count=count,
        fr_injective_on_upset=injective,
        cover_preserving=failure in ("", "forest collision"),
        method="fr-transport",
        verdict=f"inconclusive({detail})" if detail else "isomorphic")
