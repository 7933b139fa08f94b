"""Shared helpers for the test suite, and reference implementations that
the library's string-keyed code is compared against: the forest step on
nested tuples, the term step by redex paths, and the recursive fr."""

from mockingbird.forests import BLACK, EMPTY, WHITE
from mockingbird.terms import (
    Application,
    Basic,
    TermError,
    Variable,
    app,
    basic,
    replace_at,
    subterm_at,
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
