"""Brute-force ground truth: explicit upset construction with exact counts
of elements, Hasse edges, and intervals, and the extremal census over all
Mockingbird combinators of a degree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .forests import compact_key, key_successors, ladder
from .mterms import key_extremal_flags
from .posets import explore, poset_analysis


class OracleError(ValueError):
    pass


@dataclass
class OracleCounts:
    d: int
    elements: int
    hasse_edges: int
    intervals: Optional[int]
    cover_equals_step: Optional[bool]


MAX_EXACT_D = 4         # full in-memory poset with transitive reduction
MAX_STREAM_D = 5        # element/step-edge counting by streaming over keys
MAX_CENSUS_DEGREE = 10  # extremal census over all combinators of a degree


def oracle_poset_counts(d: int) -> OracleCounts:
    """Counts for the upset of the d-ladder by explicit construction.

    For d <= 4 the whole poset is built on compact string keys, with no
    forest parsed back: hasse_edges is the exact transitive reduction,
    cover_equals_step compares it against the single-step relation, and
    intervals sums the up-set sizes.  d = 5
    (3.26M elements) streams over compact string keys, counting elements
    and single-step edges; there hasse_edges reports the step-edge count
    (covering equals single step on every exactly checked instance), and
    intervals and cover_equals_step are None.
    """
    if d < 0:
        raise OracleError("ladder index must be >= 0")
    if d > MAX_STREAM_D:
        raise OracleError(f"d = {d} is infeasible for explicit construction")
    if d > MAX_EXACT_D:
        elements, step_edges = _ladder_stream_counts(d)
        return OracleCounts(d=d, elements=elements, hasse_edges=step_edges,
                            intervals=None, cover_equals_step=None)

    g = poset_analysis(explore(compact_key(ladder(d)), key_successors),
                       check_lattice=False)
    return OracleCounts(
        d=d,
        elements=len(g.nodes),
        hasse_edges=sum(map(len, g.covers)),
        intervals=sum(r.bit_count() for r in g.reach),
        cover_equals_step=g.covers == g.succ,
    )


def _ladder_stream_counts(d: int) -> tuple[int, int]:
    """Element and single-step edge counts of the d-ladder upset, keeping
    only compact string keys in memory."""
    start = compact_key(ladder(d))
    seen = {start}
    queue = deque([start])
    edges = 0
    while queue:
        s = queue.popleft()
        succ = key_successors(s)
        edges += len(succ)
        for s2 in succ:
            if s2 not in seen:
                seen.add(s2)
                queue.append(s2)
    return len(seen), edges


# ---------------------------------------------------------------------------
# Extremal census over all combinators of a degree

def combinator_keys(degree: int) -> list[str]:
    """Prefix keys (mterms.encode_term) of all binary application trees
    with the given number of applications over the single leaf M (Catalan
    many), by the degree of the left subtree, then left, then right."""
    if degree < 0:
        raise OracleError("degree must be >= 0")
    levels = [["M"]]
    for d in range(1, degree + 1):
        levels.append([
            f".{left}{right}"
            for i in range(d)
            for left in levels[i]
            for right in levels[d - 1 - i]
        ])
    return levels[degree]


def oracle_extremal_census(degree: int) -> dict[str, int]:
    """Classify every combinator of the degree as maximal/minimal by
    pattern avoidance on its prefix key and return the totals."""
    if degree > MAX_CENSUS_DEGREE:
        raise OracleError(f"census limited to degree <= {MAX_CENSUS_DEGREE}")
    flags = [key_extremal_flags(key) for key in combinator_keys(degree)]
    maximal, minimal = map(sum, zip(*flags))
    return {"total": len(flags), "maximal": maximal, "minimal": minimal}
