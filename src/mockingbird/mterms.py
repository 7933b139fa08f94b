"""Terms over {M} as prefix keys: the encoding, the root split, the step
M x -> x x and the extremal flags, all on strings, with no Term built."""

from __future__ import annotations

from .posets import MAX_STEP_SIZE, refuse_step
from .terms import Basic, Term, TermError, basic, subterm_end, term_key

_VARIABLE_TOKENS = 0x100  # first code point handed out to variables


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
    tokens = _VariableTokens({basic("M"): "M"})
    return term_key(t, tokens), {token: u for u, token in tokens.items()}


def split(key: str) -> tuple[str, str]:
    """The sides a and b of the application with prefix key "." + a + b.

    The root fires only when a is M, so the upset splits with them as
    forests.upset_counts states: up(a) x up(b) for a not M, and for b not
    M, up(M b) wraps up(b): the elements M b' and the pairs of up(b)^2."""
    end = subterm_end(key, 1)
    return key[1:end], key[end:]


def key_redex_successors(key: str) -> list[str]:
    """Prefix keys (encode_term) of the terms over {M} one progressing
    redex away: every ".M<s>" with s != M becomes ".<s><s>" (M M only
    rewrites to itself).  They are listed by the position of the redex,
    which is the pre-order of the white nodes that bridge.fr_key makes for
    them, and distinct redexes give distinct terms.  A key whose redexes
    (M M counted, as the rewrite step counts it) times its length pass
    MAX_STEP_SIZE raises ExplorationError.  Kept apart from the general
    step (rewrite) for the fr-transport's many sides: no regular
    expression, no end table."""
    redexes = key.count(".M")
    if redexes * len(key) > MAX_STEP_SIZE:
        refuse_step(redexes, key)
    out = []
    i = key.find(".M")
    while i >= 0:
        j = i + 2
        if key[j] != "M":
            end = subterm_end(key, j)
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
