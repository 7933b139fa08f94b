"""Translation from Mockingbird terms to duplicative forests and
verification that the term upset and the forest upset are isomorphic posets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .forests import BLACK, WHITE, DupForest, key_successors, parse_forest
from .posets import DEFAULT_BUDGET, ExplorationError
from .terms import Application, Basic, Term, TermError, app, basic, render_term

_M = basic("M")


def fr_map(t: Term) -> DupForest:
    """Forest translation of a term over {M} (variables allowed as inert
    leaves).  Leaves and MM map to the empty forest; M applied to a leaf is
    a lone white node; M applied to an application wraps a white node around
    the argument's forest; a left application concatenates; a variable head
    is transparent.  The image is always white-only.

    Computed without recursion over the term, as the compact key fr_key
    reads off its prefix key; encode_term rejects a foreign combinator."""
    return parse_forest(fr_key(encode_term(t)[0]))


def right_comb(d: int) -> Term:
    """M applied to itself d times, associated to the right: r_d = M r_{d-1}."""
    if d < 0:
        raise TermError("right comb index must be >= 0")
    t: Term = _M
    for _ in range(d):
        t = app(_M, t)
    return t


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


# ---------------------------------------------------------------------------
# Terms as prefix strings
#
# "." is an application and each leaf one token from a table, so the string
# of an application is "." followed by the strings of its two sides and a
# subterm is a substring.  Over {M} (encode_term), M is "M".

_VARIABLE_TOKENS = 0x100  # first code point handed out to variables


def term_key(t: Term, tokens: Mapping[Term, str]) -> str:
    """Prefix key of t, with tokens[leaf] for each leaf; a leaf missing
    from the table raises KeyError."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Application):
            out.append(".")
            stack.append(u.right)
            stack.append(u.left)
        else:
            out.append(tokens[u])
    return "".join(out)


class _VariableTokens(dict):
    """Leaf-to-token table over {M} that gives a new variable the next token."""

    def __missing__(self, u: Term) -> str:
        if isinstance(u, Basic):
            raise TermError(f"foreign combinator {u.name} (alphabet is {{M}})")
        token = self[u] = chr(_VARIABLE_TOKENS + len(self))
        return token


def encode_term(t: Term) -> tuple[str, dict[str, Term]]:
    """Prefix key of a term over {M}, and the table from token to leaf that
    decodes it."""
    try:  # a plain table first: most terms have no variables
        return term_key(t, {_M: "M"}), {"M": _M}
    except KeyError:
        pass
    tokens = _VariableTokens({_M: "M"})
    return term_key(t, tokens), {token: u for u, token in tokens.items()}


def decode_term(key: str, leaves: dict[str, Term]) -> Term:
    """The term of a prefix key, given the table from token to leaf."""
    stack: list[Term] = []
    for token in reversed(key):
        if token == ".":
            left = stack.pop()
            stack.append(app(left, stack.pop()))
        else:
            stack.append(leaves[token])
    (t,) = stack
    return t


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


def key_redex_successors(key: str) -> list[str]:
    """Prefix keys of the terms one progressing redex away: every ".M<s>"
    with s != M becomes ".<s><s>" (M M only rewrites to itself).  They are
    listed by the position of the redex, which is the pre-order of the white
    nodes that fr_key makes for them, and distinct redexes give distinct
    terms."""
    out = []
    i = key.find(".M")
    while i >= 0:
        j = i + 2
        if key[j] != "M":
            # s ends where its leaves first outnumber its applications
            end = j
            need = 1
            while need:
                need += 1 if key[end] == "." else -1
                end += 1
            arg = key[j:end]
            out.append(f"{key[:i + 1]}{arg}{arg}{key[end:]}")
        i = key.find(".M", j)
    return out


def key_extremal_flags(key: str) -> tuple[bool, bool]:
    """Whether the term over {M} with this prefix key is maximal and
    whether it is minimal in its component, by the factors it avoids.

    A factor M(x1 x2) reads ".M." in the key.  A factor (x1 x2)(x1 x2) is
    an application whose two sides are equal applications: one pass in
    reverse records where the subterm at each position ends, which gives
    both sides of every application, and compares them only when their
    lengths match."""
    maximal = ".M." not in key
    end = [0] * len(key)
    for i in range(len(key) - 1, -1, -1):
        if key[i] != ".":
            end[i] = i + 1
            continue
        j = end[i + 1]  # the left side is key[i + 1:j], the right key[j:e]
        e = end[i] = end[j]
        if key[i + 1] == "." and j - i - 1 == e - j and \
                key[i + 1:j] == key[j:e]:
            return maximal, False
    return maximal, True


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


def _fr_injective(forest_keys: Iterable[str]) -> bool:
    """Whether literal fr is injective on an upset, given the transported
    forest keys of its elements; stops at the first repeated image."""
    images: set[str] = set()
    for key in forest_keys:
        image = erase_black(key)
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
    node.  The product graph is explored breadth-first from (t, fr(t)) over
    pairs of strings, the prefix key of the term (encode_term) and the
    compact key of the forest, by string surgery on both sides
    (key_redex_successors, key_successors); no Term is built.  If the
    resulting term-to-forest assignment is well defined (independent of the
    path taken) and injective, and the out-degrees agree everywhere, then it
    is a bijection matching non-loop steps on both sides — a poset
    isomorphism witnessed constructively.

    Literal fr of an upset element is its transported forest with the black
    nodes erased (erase_black), so fr_injective_on_upset is read off the
    forest keys, without translating any element.

    If the transport breaks down, the verdict is
    ``inconclusive(<detail>)``, naming the offending term: a failed
    transport does not prove the posets non-isomorphic.  The counts are
    then those of the pairs reached before the break.
    """
    start, leaves = encode_term(t)
    start_key = fr_key(start)
    assignment: dict[str, str] = {start: start_key}
    forest_keys: set[str] = {start_key}
    queue: deque[str] = deque([start])
    consistent = True
    detail = ""

    while queue and not detail:
        u = queue.popleft()
        fired = key_redex_successors(u)
        blackenings = key_successors(assignment[u])
        if len(fired) != len(blackenings):
            consistent = False
            detail = f"out-degree mismatch at {render_term(decode_term(u, leaves))}"
        for v, key2 in zip(fired, blackenings):
            seen_key = assignment.get(v)
            if seen_key is not None:
                if seen_key != key2:
                    consistent = False
                    detail = f"transport conflict at {render_term(decode_term(v, leaves))}"
                    break
                continue
            if key2 in forest_keys:
                detail = f"forest collision at {render_term(decode_term(v, leaves))}"
                break
            if len(assignment) >= budget:
                raise ExplorationError("budget exhausted during verification")
            assignment[v] = key2
            forest_keys.add(key2)
            queue.append(v)

    return IsoReport(
        term=t, term_count=len(assignment), forest_count=len(forest_keys),
        fr_injective_on_upset=not detail and _fr_injective(assignment.values()),
        cover_preserving=consistent,
        method="fr-transport",
        verdict=f"inconclusive({detail})" if detail else "isomorphic")
