"""Seeded inputs and independent reference answers for the benchmark.

Nothing here imports the mockingbird package.  The inputs handed to the
program (term strings, a ladder forest, pair indices, sequence counts) and
the reference answers the checks compare against are both computed from
first principles in this file, so no reference comes from the function
under test.

An M-combinator is represented here as the leaf ``"M"`` or a pair
``(left, right)`` of combinators.
"""

from __future__ import annotations

import random
from math import comb

LEAF = "M"

# Published prefixes (conventional M(d) indexing, see PAPER.md), used as
# golden values by the enumerate checks and for the ladder references.
GOLDEN = {
    "sizes": [1, 1, 2, 6, 42, 1806, 3263442, 10650056950806],
    "edges": [0, 0, 1, 7, 97, 8287, 29942737, 195432804247687],
    "intervals": [1, 1, 3, 17, 371, 144513, 20932611523,
                  438176621806663544657],
    "motzkin": [1, 1, 1, 2, 4, 9, 21, 51],
    "min": [1, 1, 2, 4, 12, 34, 108, 344],
    "classes": [1, 1, 2, 10, 170, 33490, 1133870930, 1285739648704587610],
}

# Workload sizes.  "full" is what a measured run uses; "smoke" is the
# reduced size of ``run.py --smoke``.
SIZES = {
    "full": {
        # every degree-6 and degree-7 combinator whose forest upset has at
        # most `cap` elements: 553 strings, 58,344 upset elements
        "transport": {"degrees": (6, 7), "cap": 2000},
        # every combinator of degree <= 5 (65 terms), the upset of
        # ladder(4) (1,806 elements) and `pairs` seeded element pairs
        "lattice": {"max_degree": 5, "ladder": 4, "pairs": 20_000},
        "enumerate": {
            "counts": {"intervals": 13, "edges": 20, "sizes": 22,
                       "classes": 20, "motzkin": 150, "min": 150},
            "oracle_max_d": 4,
            "census_max_degree": 9,
        },
    },
    "smoke": {
        "transport": {"degrees": (5, 6), "cap": 50},
        "lattice": {"max_degree": 4, "ladder": 3, "pairs": 500},
        "enumerate": {
            "counts": {"intervals": 8, "edges": 8, "sizes": 8,
                       "classes": 8, "motzkin": 20, "min": 20},
            "oracle_max_d": 3,
            "census_max_degree": 6,
        },
    },
}


def combinators(degree: int) -> list:
    """All combinators with `degree` applications (Catalan many), in a
    fixed order."""
    levels: list[list] = [[LEAF]]
    for d in range(1, degree + 1):
        levels.append([(left, right)
                       for i in range(d)
                       for left in levels[i]
                       for right in levels[d - 1 - i]])
    return levels[degree]


def render(t) -> str:
    """Concise term syntax: application is left-associative, so only an
    application in argument position needs parentheses."""
    if t == LEAF:
        return LEAF
    left, right = t
    arg = render(right)
    return render(left) + (arg if right == LEAF else f"({arg})")


def upset_size(t) -> int:
    """Closed-form size of the forest upset of the term's forest image.

    The image of ``M s`` (s an application) is one white tree over the
    image g of s, and |up w(g)| = w(1 + w) with w = |up g|: the node stays
    white (w choices below it) or turns black over g g (w * w choices).  A
    left application concatenates images, which multiplies sizes; ``M``
    and ``M M`` map to the empty forest, of size 1.
    """
    if t == LEAF:
        return 1
    left, right = t
    if left != LEAF:
        return upset_size(left) * upset_size(right)
    if right == LEAF:
        return 1
    w = upset_size(right)
    return w * (1 + w)


def redex_count(t) -> int:
    """Number of subterms ``M s`` with s != M: the one-step rewrites of t
    other than the self-loop ``M M -> M M``, all of them distinct."""
    if t == LEAF:
        return 0
    left, right = t
    own = left == LEAF and right != LEAF
    return own + redex_count(left) + redex_count(right)


def ladder_forest(d: int) -> tuple:
    """The chain of d white nodes, in the package's tuple encoding of
    forests: a forest is a tuple of ``(color, children)`` trees."""
    f: tuple = ()
    for _ in range(d):
        f = (("w", f),)
    return f


def ladder_upset_size(d: int) -> int:
    """|up ladder(d)|: the size a of ladder(d-1)'s upset becomes a + a^2."""
    a = 1
    for _ in range(d):
        a += a * a
    return a


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def transport_inputs(seed: int, degrees: tuple, cap: int) -> list:
    """(term string, expected upset size) for every combinator of the
    degrees whose upset has at most `cap` elements, in seeded order."""
    items = []
    for degree in degrees:
        for t in combinators(degree):
            size = upset_size(t)
            if size <= cap:
                items.append((render(t), size))
    random.Random(seed).shuffle(items)
    return items


def lattice_inputs(seed: int, max_degree: int, ladder: int,
                   pairs: int) -> dict:
    """Term strings with their expected upset size and redex count, the
    ladder forest, and `pairs` seeded index pairs into its upset."""
    terms = [(render(t), upset_size(t), redex_count(t))
             for degree in range(max_degree + 1)
             for t in combinators(degree)]
    n = ladder_upset_size(ladder)
    rng = random.Random(seed)
    return {
        "terms": terms,
        "ladder": ladder_forest(ladder),
        "ladder_size": n,
        # intervals of the d-ladder upset = conventional index d + 1
        "ladder_intervals": GOLDEN["intervals"][ladder + 1],
        "pairs": [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)],
    }
