"""Translation from Mockingbird terms to duplicative forests and
verification that the term upset and the forest upset are isomorphic posets.

Terms are handled as prefix keys (terms.encode_term) and forests as compact
keys, and both are stepped by string surgery (rewrite.key_redex_successors,
forests.key_successors).  The verification transports fr along
rewrite steps.  It holds each upset element as the pair of the prefix keys
of its two sides, and its forest by side as well: a triple (wrap, fa, fb)
whose key is fa fb, or, when the start is M applied to a side other than
M, w(fb) until that root redex fires and b(fa fb) after.  Each
distinct side, term or forest, is stepped once per call: the sides come
from the much smaller upsets of the start's two sides.  A step keeps the
number of top-level trees of a forest, so the fa of one call all have the
same tree count, and two triples are equal exactly when their keys are.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

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


def _render(x: tuple[str, str, str]) -> str:
    """Compact forest key of the transported forest held as the triple
    x = (wrap, fa, fb): fa fb, or wrapped in one node when wrap is a color."""
    wrap, fa, fb = x
    if not wrap:
        return fa + fb
    return f"{wrap}({fa}{fb})" if fa or fb else wrap


def _fr_injective(forests: Iterable[tuple[str, str, str]]) -> bool:
    """Whether literal fr is injective on an upset, given the transported
    forests of its elements as triples; stops at the first repeated image."""
    images: set[str] = set()
    for x in forests:
        image = erase_black(_render(x))
        if image in images:
            return False
        images.add(image)
    return True


def _pair_successors(u: tuple[str, str],
                     steps: dict[str, list[str]]) -> list[tuple[str, str]]:
    """The terms one progressing redex from the application whose sides have
    the prefix keys u = (a, b), as pairs of sides, in the redex order of its
    prefix key "." + a + b: the root redex M b -> b b, then those in a, then
    those in b.  ``steps`` holds the key_redex_successors of each side met
    so far, and gains a and b."""
    a, b = u
    # loops, not comprehensions, which cost a call each on Python 3.11:
    # most of these lists are empty or short
    fired = [(b, b)] if a == "M" != b else []
    side_steps = steps.get(a)
    if side_steps is None:
        side_steps = steps[a] = key_redex_successors(a)
    for a2 in side_steps:
        fired.append((a2, b))
    side_steps = steps.get(b)
    if side_steps is None:
        side_steps = steps[b] = key_redex_successors(b)
    for b2 in side_steps:
        fired.append((a, b2))
    return fired


def _forest_successors(x: tuple[str, str, str],
                       steps: dict[str, list[str]]) -> list[tuple[str, str, str]]:
    """The forests one blackening from the transported forest held as the
    triple x = (wrap, fa, fb), as triples, in the pre-order of the blackened
    white node in its key (_render): the wrapping white node w(fb) -> b(fb fb),
    then the nodes in fa, then those in fb.  ``steps`` holds the
    key_successors of each side met so far, and gains fa and fb."""
    wrap, fa, fb = x
    fired = [(BLACK, fb, fb)] if wrap == WHITE else []
    side_steps = steps.get(fa)
    if side_steps is None:
        side_steps = steps[fa] = key_successors(fa)
    for fa2 in side_steps:
        fired.append((wrap, fa2, fb))
    side_steps = steps.get(fb)
    if side_steps is None:
        side_steps = steps[fb] = key_successors(fb)
    for fb2 in side_steps:
        fired.append((wrap, fa, fb2))
    return fired


def verify_fr_isomorphism(t: Term, budget: int = DEFAULT_BUDGET) -> IsoReport:
    """Check that the upset of t and the upset of fr_map(t) are isomorphic
    posets, using fr transported along rewrite steps as the candidate map.

    fr itself collapses every term to a white-only forest, so it cannot be
    the isomorphism; instead its local structure is transported: the i-th
    progressing redex of a term is paired with the i-th white node of its
    assigned forest, and firing the redex is matched with blackening the
    node.  The product graph is explored breadth-first from (t, fr(t)) on
    strings, by string surgery on both sides; no Term is built.  If the
    resulting term-to-forest assignment is well defined (independent of the
    path taken) and injective, and the out-degrees agree everywhere, then it
    is a bijection matching non-loop steps on both sides — a poset
    isomorphism witnessed constructively.

    Every element above an application is an application, so the term side
    is the pair of prefix keys (encode_term) of its two sides, and each
    distinct side is stepped once per call by key_redex_successors.  The
    successors of (a, b) are (b, b) when a is M and b is not, then (a', b)
    for each step a' of a, then (a, b') for each step b' of b: the redex
    order of the prefix key "." + a + b.  The sides come from the upsets of
    the start's two sides, so the steps held are few, while the elements
    are many and share their side strings.  A side too large to step
    raises ExplorationError (rewrite.MAX_STEP_SIZE).

    The forest side is held by side too, as the triple (wrap, fa, fb) that
    mirrors (a, b), and each distinct side forest is stepped once per call
    by key_successors.  Its key is fa fb (wrap "") unless the start is M b0
    with b0 not M; then it is w(fb) (or w, with fa empty) while the root
    redex M b is unfired, and b(fa fb) (or b) after.  Its successors are
    (BLACK, fb, fb) when wrap is WHITE, then (wrap, fa', fb) for each step
    fa' of fa, then (wrap, fa, fb') for each step fb' of fb: the pre-order
    of the white nodes in its key, as key_successors lists them.  The
    triples stand for their keys exactly: a step keeps the number of
    top-level trees, so every fa of one call has the same tree count and
    fa fb splits in one way; a call meets wrap "" alone, or w and b, which
    differ in their first letter.

    Literal fr of an upset element is its transported forest with the black
    nodes erased (erase_black), so fr_injective_on_upset is read off the
    forests' keys, without translating any element; no other key is built.

    If the transport breaks down, the verdict is
    ``inconclusive(<detail>)``, naming the offending term: a failed
    transport does not prove the posets non-isomorphic.  The counts are
    then those of the pairs reached before the break.
    """
    start, leaves = encode_term(t)
    if start[0] != ".":  # a leaf fires no redex, and fr maps it to no node
        return IsoReport(t, term_count=1, forest_count=1, fr_injective_on_upset=True,
                         cover_preserving=True, method="fr-transport", verdict="isomorphic")
    consistent = True
    detail = ""
    end = subterm_end(start, 1)
    root = a0, b0 = start[1:end], start[end:]
    forest = (WHITE if a0 == "M" != b0 else "", fr_key(a0), fr_key(b0))
    queue = deque([root])
    assignment = {root: forest}
    forests = {forest}  # the same triples as the values of assignment
    steps: dict[str, list[str]] = {}  # key_redex_successors of each side
    forest_steps: dict[str, list[str]] = {}  # key_successors of each side

    def name(u: tuple[str, str]) -> str:
        return render_term(decode_term("." + u[0] + u[1], leaves))

    while queue and not detail:
        u = queue.popleft()
        fired = _pair_successors(u, steps)
        blackenings = _forest_successors(assignment[u], forest_steps)
        if len(fired) != len(blackenings):
            consistent = False
            detail = f"out-degree mismatch at {name(u)}"
        for v, x in zip(fired, blackenings):
            seen = assignment.get(v)
            if seen is not None:
                if seen != x:
                    consistent = False
                    detail = f"transport conflict at {name(v)}"
                    break
                continue
            if x in forests:
                detail = f"forest collision at {name(v)}"
                break
            if len(assignment) >= budget:
                raise ExplorationError("budget exhausted during verification")
            assignment[v] = x
            forests.add(x)
            queue.append(v)

    return IsoReport(
        term=t, term_count=len(assignment), forest_count=len(forests),
        fr_injective_on_upset=not detail and _fr_injective(assignment.values()),
        cover_preserving=consistent,
        method="fr-transport",
        verdict=f"inconclusive({detail})" if detail else "isomorphic")
