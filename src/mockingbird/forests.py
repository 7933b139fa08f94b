"""Duplicative forests: planar trees of white/black nodes, the duplication
step, upset exploration and counts, and the meet/join lattice operations.

A forest is a tuple of trees; a tree is a pair ``(color, children)`` with
color ``"w"`` or ``"b"`` and children again a forest.  Nested tuples are the
public type.  Meet and join are one rule, recursing one frame per forest
level (about 990 levels at the default recursion limit).  Their results
reuse the arguments' tree objects, which is safe because the trees are
immutable tuples, and are f1 itself when the bound equals f1; so their cost
follows the number of tree positions where the arguments differ.  The
duplication step runs on compact keys (the space-free rendering) by string
surgery.
Parsing and printing run without recursion, on forests of any depth.
"""

from __future__ import annotations

from .posets import DEFAULT_BUDGET, ExploredPoset, explore

WHITE = "w"
BLACK = "b"

DupTree = tuple  # (color, DupForest)
DupForest = tuple  # tuple of DupTree

EMPTY: DupForest = ()


class ForestError(ValueError):
    """Malformed forest text or invalid forest operation input."""


class IncompatibleForests(ForestError):
    """meet/join called on forests that share no common upset."""


# ---------------------------------------------------------------------------
# Parsing and printing
#
# Grammar: forest := tree*; tree := ('w'|'b') ('(' forest ')')?.
# Whitespace between trees is optional, so both the spaced rendering
# ("b(w w) w") and the compact key ("b(ww)w") parse back to the same value.


def parse_forest(text: str) -> DupForest:
    """The forest of a rendering or compact key; ForestError if malformed."""
    return _parse(text, {})


def _parse(text: str, trees: dict[str, DupTree]) -> DupForest:
    """The forest of ``text``, read in one pass without recursion.  ``trees``
    maps the text of each tree built so far to that tree and gains the new
    ones, so one table kept across calls shares their equal subtrees."""
    siblings: list[DupTree] = []  # trees read so far at the current depth
    open_trees: list[tuple[int, list[DupTree]]] = []  # (start, siblings)
    for pos, c in enumerate(text):
        if c == "(":
            if not pos or text[pos - 1] not in (WHITE, BLACK):
                raise ForestError(f"expected 'w' or 'b' at position {pos}, got '('")
            open_trees.append((pos - 1, siblings))
            siblings = []
        elif c == ")":
            if not open_trees:
                raise ForestError(f"trailing input at position {pos}")
            start, parent = open_trees.pop()
            parent.append(trees.setdefault(text[start:pos + 1],
                                           (text[start], tuple(siblings))))
            siblings = parent
        elif c == WHITE or c == BLACK:
            if text[pos + 1:pos + 2] != "(":
                siblings.append(trees.setdefault(c, (c, EMPTY)))
        elif not c.isspace():
            raise ForestError(f"expected 'w' or 'b' at position {pos}, got {c!r}")
    if open_trees:
        raise ForestError(
            f"unbalanced parenthesis at position {open_trees[-1][0] + 1}")
    return tuple(siblings)


def render_forest(f: DupForest) -> str:
    """Human-readable rendering with spaces between sibling trees."""
    parts: list[str] = []
    stack = [iter(f)]  # the unread siblings at each open depth
    while stack:
        tree = next(stack[-1], None)
        if tree is None:
            stack.pop()
            if stack:
                parts.append(")")
            continue
        if parts and parts[-1] != "(":
            parts.append(" ")
        color, children = tree
        parts.append(color)
        if children:
            parts.append("(")
            stack.append(iter(children))
    return "".join(parts)


def compact_key(f: DupForest) -> str:
    """Space-free rendering; still unambiguous, used as a sort/dedup key."""
    return render_forest(f).replace(" ", "")


# ---------------------------------------------------------------------------
# Constructors


def ladder(d: int) -> DupForest:
    """The chain of d white nodes; ladder(0) is the empty forest."""
    if d < 0:
        raise ForestError("ladder index must be >= 0")
    f = EMPTY
    for _ in range(d):
        f = ((WHITE, f),)
    return f


# ---------------------------------------------------------------------------
# The duplication step


def key_successors(s: str) -> list[str]:
    """Duplication successors of a compact forest key by string surgery,
    ordered by the pre-order position of the blackened white node: the node
    turns black and its child forest g becomes g followed by a copy of g.

    Distinct white positions always yield distinct results, so the list is
    duplicate-free and its length is the number of white nodes.
    """
    out = []
    for i, c in enumerate(s):
        if c != WHITE:
            continue
        if i + 1 < len(s) and s[i + 1] == "(":
            depth = 1
            j = i + 2
            while depth:
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                j += 1
            inner = s[i + 2:j - 1]
            out.append(f"{s[:i]}b({inner}{inner}){s[j:]}")
        else:
            out.append(f"{s[:i]}b{s[i + 1:]}")
    return out


def forest_upset(f: DupForest, budget: int = DEFAULT_BUDGET) -> ExploredPoset:
    """BFS closure of the duplication step from f; always finite because the
    black count strictly increases along every step.  The walk runs on
    compact keys; each node is parsed back once, through a table of equal
    subtrees local to this call, so the nodes share structure."""
    g = explore(compact_key(f), key_successors, budget=budget)
    trees: dict[str, DupTree] = {}
    g.nodes = [_parse(key, trees) for key in g.nodes]
    return g


def wrap_size(n: int) -> int:
    """Elements of up(w(g)) for n elements of up(g) (upset_counts)."""
    return n + n * n


def wrap_edges(n: int, e: int) -> int:
    """Cover edges of up(w(g)) for n elements and e covers of up(g)."""
    return e + n + 2 * e * n


def upset_counts(key: str) -> tuple[int, int]:
    """Elements and cover edges of the upset of the forest with this compact
    key, in one pass.  A step blackens one white node, so a forest's upset
    is the product of its trees' (Stanley, *EC1* §3.2): n n' elements and
    e n' + n e' covers; a black node's children count as its siblings.
    up(w(g)) wraps up(g): w(g') ordered as up(g), then the pairs b(h h') of
    up(g)^2, w(g') covered by b(g' g') alone (wrap_size, wrap_edges)."""
    stack = [(1, 0, False)]  # each open tree: its children's product so far, white
    for c in key.replace("b(", "[").replace("w(", "{"):  # a token per character
        if c == "{" or c == "[":
            stack.append((1, 0, c == "{"))
        elif c == WHITE or c == ")" and len(stack) > 1:  # a tree ends, or a white leaf
            m, f, white = stack.pop() if c == ")" else (1, 0, True)
            if white:
                m, f = wrap_size(m), wrap_edges(m, f)
            n, e, white = stack[-1]
            stack[-1] = n * m, e * m + n * f, white
        elif c != BLACK and not c.isspace():  # a bare "(" or ")", or no token
            raise ForestError(f"malformed forest key {key!r}")
    if len(stack) > 1 or "[" in key or "{" in key:  # a tree left open, or "[" or "{"
        raise ForestError(f"malformed forest key {key!r}")
    return stack[0][:2]


# ---------------------------------------------------------------------------
# Meet and join (greatest lower bound / least upper bound in a common upset)


def meet(f1: DupForest, f2: DupForest) -> DupForest:
    """Componentwise greatest lower bound of forests in a common upset."""
    return _bound(f1, f2, WHITE)


def join(f1: DupForest, f2: DupForest) -> DupForest:
    """Componentwise least upper bound of forests in a common upset."""
    return _bound(f1, f2, BLACK)


def _bound(f1: DupForest, f2: DupForest, color: str) -> DupForest:
    """The meet (color WHITE) or join (color BLACK) of f1 and f2, tree by
    tree: trees of one color bound their children, and w(g) with b(g' g'')
    meet in w(g ∧ g' ∧ g'') and join in b(g' g'' ∨ g g).

    The result shares structure with the arguments, which is safe because
    forests are immutable: an identical pair is its own bound, a tree whose
    children come back unchanged is reused, and f1 itself is returned when
    every tree of it is.  The side of the result's color goes first in each
    recursive call, so by induction the result is f1 itself whenever the
    bound equals f1.  The work follows the positions where f1 and f2 differ."""
    if f1 is f2:
        return f1
    if len(f1) != len(f2):
        raise IncompatibleForests(
            f"forest length mismatch: {render_forest(f1)!r} vs {render_forest(f2)!r}")
    out = None  # the result's trees, from the first one that is not f1's
    for i in range(len(f1)):
        t1 = f1[i]
        t2 = f2[i]
        if t1 is t2:
            t = t1
        else:
            c1, g1 = t1
            c2, g2 = t2
            if c1 == c2:
                g = _bound(g1, g2, color)
                t = t1 if g is g1 else t2 if g is g2 else (c1, g)
            else:
                white, black = (t1, t2) if c1 == WHITE else (t2, t1)
                gw, gb = white[1], black[1]
                if len(gb) % 2:
                    raise IncompatibleForests(
                        f"black node with odd child count: {render_forest(gb)!r}")
                if color == WHITE:
                    half = len(gb) // 2
                    g = _bound(_bound(gw, gb[:half], WHITE), gb[half:], WHITE)
                    t = white if g is gw else (WHITE, g)
                else:
                    g = _bound(gb, gw + gw, BLACK)
                    t = black if g is gb else (BLACK, g)
        if out is not None:
            out.append(t)
        elif t is not t1:
            out = [*f1[:i], t]
    return f1 if out is None else tuple(out)
