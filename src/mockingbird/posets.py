"""Explicit finite digraphs of one-step rewrites and their order analysis.

An :class:`ExploredPoset` is produced by :func:`explore`, a single-pass
breadth-first closure (of term rewriting or forest duplication) that
computes each node's successors once.  It holds the step graph in one
shape: ascending successor lists without self-loops, and the set of nodes
that step to themselves.  :func:`poset_analysis` derives the
order-theoretic data: acyclicity, the covers (transitive reduction),
extremal elements, and the lattice property.

Reachability is held as one Python integer bitset per node: ``reach[i]`` is
the up-set of i, computed by :func:`reachability` over the successor lists
of an exploration, complete or truncated (so the confluence probe reads
its joins off the same code).  The lattice check uses only these up-sets.
A finite non-empty poset is a lattice iff it has a bottom and every pair
has a join, because the meet of a and b is the join of their common lower
bounds, a set that holds the bottom.  :func:`down_sets` gives the
down-sets as the reachability of the reversed step graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NoReturn, Optional

DEFAULT_BUDGET = 10_000_000

# A rewrite step builds about one copy of the key per redex.  Past this
# bound on redexes x key length a walk ends in neither useful time nor
# memory, as from a 3,000-deep M(M(...)): 30 ms a step, and the keys keep
# growing.  The largest step in the upset of the right comb M(M(M(M(MM))))
# is 1,008.  Both steps, rewrite's _KeyRules.successors and
# mterms.key_redex_successors, compare inline and call refuse_step.
MAX_STEP_SIZE = 1 << 22


class ExplorationError(ValueError):
    pass


def refuse_step(redexes: int, key: str) -> NoReturn:
    raise ExplorationError(f"term too large to step: {redexes} redexes "
                           f"x {len(key)} symbols > {MAX_STEP_SIZE}")


class IncompleteExplorationError(ExplorationError):
    """Raised when an analysis requires a complete component."""


@dataclass
class ExploredPoset:
    nodes: list  # BFS discovery order; node 0 is the start
    succ: list[list[int]]  # succ[i]: kept successors of i but i, ascending
    loops: set[int]  # the nodes that step to themselves
    is_complete: bool
    covers: Optional[list[list[int]]] = None  # the covers of i in succ[i]
    is_acyclic: Optional[bool] = None
    is_lattice: Optional[bool] = None
    minimal: Optional[set[int]] = None
    maximal: Optional[set[int]] = None
    # reachability bitsets (reach[i] has bit j iff i <= j), filled by analysis
    reach: Optional[list[int]] = field(default=None, repr=False)

    @property
    def step_edges(self) -> set[tuple[int, int]]:
        """The step edges as index pairs, self-loops included."""
        return {(i, j) for i, succs in enumerate(self.succ)
                for j in succs} | {(i, i) for i in self.loops}


def explore(start: Hashable,
            successors: Callable[[Any], Iterable],
            budget: int = DEFAULT_BUDGET) -> ExploredPoset:
    """Deduplicated breadth-first closure of ``successors`` from ``start``.

    One pass over the growing ``nodes`` list, which is the queue: each node's
    successors are computed once, its fresh successors are indexed in sorted
    order (so discovery order is deterministic), and its indexed successors
    are recorded on the spot.  So the start's other successors are nodes 1,
    2, ... in sorted order, as far as the budget reaches.  A successor left
    out for the budget is never indexed later, so no edge is missed.
    """
    if budget < 1:
        raise ExplorationError("budget must be >= 1")

    index: dict[Hashable, int] = {start: 0}
    nodes: list = [start]
    succ: list[list[int]] = []
    loops: set[int] = set()
    complete = True

    for i, u in enumerate(nodes):
        succs = set(successors(u))
        fresh = [v for v in succs if v not in index]
        room = budget - len(nodes)
        if len(fresh) > room:
            complete = False
        if fresh and room:
            for v in sorted(fresh)[:room]:
                index[v] = len(nodes)
                nodes.append(v)
        if u in succs:
            loops.add(i)
        succ.append(sorted(set(map(index.get, succs)) - {None, i}))

    return ExploredPoset(nodes=nodes, succ=succ, loops=loops,
                         is_complete=complete)


def _topological_order(adj: list[list[int]]) -> Optional[list[int]]:
    n = len(adj)
    indeg = [0] * n
    for u in range(n):
        for v in adj[u]:
            indeg[v] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == n else None


def reachability(adj: list[list[int]]) -> tuple[bool, list[int]]:
    """Whether the digraph adj is acyclic, and its reachability bitsets:
    reach[i] has bit j iff j is reachable from i, i itself included.

    One pass in reverse topological order when there is one; on a cyclic
    graph, passes in reverse node order until no bitset grows."""
    topo = _topological_order(adj)
    reach = [1 << i for i in range(len(adj))]
    grew = True
    while grew:
        grew = False
        for u in reversed(topo or range(len(adj))):
            r = reach[u]
            for v in adj[u]:
                r |= reach[v]
            if r != reach[u]:
                reach[u] = r
                grew = topo is None
    return topo is not None, reach


def poset_analysis(g: ExploredPoset, check_lattice: bool = True) -> ExploredPoset:
    """Fill acyclicity, covers, extremal sets, and the lattice flag.

    Self-loops are ignored throughout.  The lattice check asks for a bottom
    (a node whose up-set is every node) and, for every node pair, for a
    join: a node whose up-set is the intersection of the pair's up-sets.
    That suffices, since the meet of a and b is the join of their common
    lower bounds, which are finitely many and include the bottom.  The check
    is quadratic in the node count and can be skipped for large posets
    (is_lattice then stays None).  Requires a complete exploration.  On a
    cyclic graph only the flags and extremal sets are meaningful; every
    list of covers is empty.
    """
    if not g.is_complete:
        raise IncompleteExplorationError(
            "poset_analysis requires a complete exploration")
    n = len(g.nodes)
    g.is_acyclic, reach = reachability(g.succ)
    g.reach = reach

    # succ has no self-loops, so i lies above another node exactly when it
    # is in another node's successor list, also on a cyclic graph
    g.minimal = set(range(n)).difference(*g.succ)
    g.maximal = {i for i in range(n) if not g.succ[i]}

    if not g.is_acyclic:
        g.covers = [[] for _ in range(n)]
        g.is_lattice = False
        return g

    # Covers: a step edge u->v is a cover iff v is not strictly above any
    # successor of u, so one union per node decides all of its edges.
    g.covers = []
    for succs in g.succ:
        beyond = 0  # union over successors w of reach[w] minus w itself
        for w in succs:
            beyond |= reach[w] & ~(1 << w)
        g.covers.append([v for v in succs if not (beyond >> v) & 1])

    if not check_lattice:
        return g

    contains = set(reach).__contains__
    g.is_lattice = (1 << n) - 1 in reach and all(
        all(map(contains, map(reach[a].__and__, reach[a + 1:])))
        for a in range(n - 1))
    return g


def down_sets(g: ExploredPoset) -> list[int]:
    """Transpose of the reachability bitsets: down[j] has bit i iff i <= j.

    This is the reachability of the reversed step graph."""
    radj: list[list[int]] = [[] for _ in g.nodes]
    for i, succs in enumerate(g.succ):
        for j in succs:
            radj[j].append(i)
    return reachability(radj)[1]
